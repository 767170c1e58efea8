"""Cross-domain-size bound quantities and their exhaustive numerical verification.

For a model in distinct-constants form over a single domain type, computes the
extrema of the per-arity weight functions, the products of those extrema over
straddling tuples (the cross bounds ``M_max``/``M_min`` and their log ratio,
the *log spread*), and verifies by full enumeration that:

- every world's weight is sandwiched between its two half-restriction weights
  times the cross extrema (``weight_sandwich``),
- the partition function is sandwiched accordingly (``partition_sandwich``),
- every front-half world's marginal probability is within a factor
  ``exp(log_spread)`` of its direct probability (``marginal_ratio``),
- the KL divergence from the induced marginal to the direct distribution is at
  most the log spread (``kl_bound``),
- the negative log likelihood transfers across sizes with at most ``log_spread``
  slack (``loglik_bound``).

``verify_all`` builds all five records, plus the KL divergence itself, in
place from one exhaustive pass over the (n+m)-worlds, ``_split_context``. The
pass runs on a relaid copy of the grounding table laid out by
``model._split_runs``, with the split the front-half atoms then the back-half
atoms: a world's split code packs its F front bits, then its B back bits, so
its two restriction codes are the bit fields ``code & (2^F - 1)`` and ``(code
>> F) & (2^B - 1)``. The split bits take a block's low bits, as many as fit,
the C straddling atoms the next bits, and the split bits that did not fit the
top bits. So the blocks come in runs of 2^C consecutive blocks that share
their top bits, and offset ``i`` of every block of a run has the split code
``code | i``. While F+B is at most log2(``DEFAULT_CHUNK``), which holds for
every smokers split up to n+m=4 but 4|0 and 0|4, all blocks are one run of
code 0. Each run reads the log weights of ``GroundingTable.pair_log_weights``:
one per (low key, shared code) pair and block, where offset ``i`` takes the
value of pair ``inverse[i]``.

The sandwich's base, the sum of a world's two restriction weights, is read
from an outer sum of the two halves' log weights over the split codes a tile
covers. Within a run, the base depends only on a world's offset in the block,
and so does its front bucket. So the pass reduces across a run's blocks per
pair: each pair keeps the max and min of its log weight, with the first
block start at which each is reached, and a running log-sum-exp. A final pass
over the block's offsets, one tile of ``model.DEFAULT_TILE`` offsets (128 KB
of float64) at a time, gathers the pair max and min to the tile and computes
the upper slack from the max and the lower slack from the min against the
tile's base. These are the same floats as the per-world minima, because
subtracting from a fixed base is monotone. The running minima are strict and
the runs and their tiles go in order, so a slack's witness is the lowest
offset attaining its minimum in the first run that attains it, in the first
block of that run where the offset's pair reaches its extreme. The run's
front buckets fold every offset's log-sum-exp with
``model._fold_pair_buckets``, which ``model.marginal_log_probs`` shares: an
exact per-bucket max, then a running sum in offset order, so neither result
depends on the tile. The first run to reach a bucket writes it, and later runs
add to it. Witnesses are mapped back to ``AtomIndex`` order at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from math import comb
from typing import Mapping

import numpy as np

from .logic import MlnModel, arity_partition, normalize_distinct
from .model import (
    DEFAULT_MAX_ATOMS,
    _fold_pair_buckets,
    _logsumexp,
    _pair_extremes,
    _single_type,
    _split_runs,
    _table,
    _tiles,
    dense_log_weights,
    log_weight,
)
from .worlds import (
    AtomIndex,
    DomainSpec,
    World,
    _guard,
    cross_atom_count,
    restrict,
    restriction_positions,
    split_subsets,
)

DEFAULT_TOL = 1e-9
EXTREMAL_MAX_ATOMS = 27


@dataclass(frozen=True)
class KWeightExtrema:
    """Exact max/min of the arity-k log weight over one canonical k-tuple."""

    arity: int
    log_max: float
    log_min: float
    argmax_bits: int | None
    argmin_bits: int | None

    @property
    def spread(self) -> float:
        return self.log_max - self.log_min


@dataclass(frozen=True)
class CrossBounds:
    """Products of per-arity extrema over straddling tuples, in log space."""

    n: int
    m: int
    log_m_max: float
    log_m_min: float
    per_arity: tuple[KWeightExtrema, ...]
    exponents: tuple[int, ...]

    @property
    def log_spread(self) -> float:
        return self.log_m_max - self.log_m_min


@dataclass(frozen=True)
class CheckRecord:
    name: str
    n: int
    m: int
    log_spread: float
    worst_slack: float
    passed: bool
    details: Mapping[str, float]


@dataclass(frozen=True)
class BoundsReport:
    n: int
    m: int
    cross: CrossBounds
    log2_extensions: int
    checks: tuple[CheckRecord, ...]
    kl: float

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [f"bound report for n={self.n}, m={self.m}"]
        for e in self.cross.per_arity:
            lines.append(
                f"  arity {e.arity}: log w_max={e.log_max:.12g}  "
                f"log w_min={e.log_min:.12g}  spread={e.spread:.12g}"
            )
        lines.append(
            f"  log M_max={self.cross.log_m_max:.12g}  log M_min={self.cross.log_m_min:.12g}  "
            f"log spread={self.cross.log_spread:.12g}"
        )
        lines.append(f"  straddling atoms (log2 extension count): {self.log2_extensions}")
        lines.append(f"  marginal KL divergence: {self.kl:.12g}")
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            extra = "".join(f"  {k}={v:.6g}" for k, v in c.details.items())
            lines.append(f"  {c.name:<22} {status}  worst_slack={c.worst_slack:.6g}{extra}")
        lines.append("ALL CHECKS PASS" if self.all_passed else "CHECK FAILURES PRESENT")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Extrema and cross bounds
# ---------------------------------------------------------------------------


def extremal_k_weights(model: MlnModel, k: int) -> KWeightExtrema:
    """Exhaustive max/min of the arity-k log weight over all k-constant sub-worlds.

    Exchangeability makes one canonical tuple sufficient. Models with no
    arity-k clauses have constant weight 1 (log 0).
    """
    model = normalize_distinct(model)
    tau = _single_type(model)
    clauses = tuple(arity_partition(model).get(k, ()))
    if not clauses:
        return KWeightExtrema(k, 0.0, 0.0, None, None)
    sub_model = replace(model, clauses=clauses)
    index = AtomIndex(model.signature, DomainSpec({tau: k}))
    logs = dense_log_weights(sub_model, index, max_atoms=EXTREMAL_MAX_ATOMS)
    hi = int(np.argmax(logs))
    lo = int(np.argmin(logs))
    return KWeightExtrema(k, float(logs[hi]), float(logs[lo]), hi, lo)


def _cross_exponents(n: int, m: int, d: int) -> tuple[int, ...]:
    """How many arity-k tuples straddle the n|m split, for k = 1..d."""
    return tuple(comb(n + m, k) - comb(n, k) - comb(m, k) for k in range(1, d + 1))


def cross_weight_bounds(model: MlnModel, n: int, m: int) -> CrossBounds:
    """Log products of per-arity weight extrema over tuples straddling the n|m split."""
    model = normalize_distinct(model)
    d = model.max_arity
    per_arity = tuple(extremal_k_weights(model, k) for k in range(1, d + 1))
    exponents = _cross_exponents(n, m, d)
    log_m_max = sum(e * x.log_max for e, x in zip(exponents, per_arity))
    log_m_min = sum(e * x.log_min for e, x in zip(exponents, per_arity))
    return CrossBounds(n, m, log_m_max, log_m_min, per_arity, exponents)


def log_spread(model: MlnModel, n: int, m: int) -> float:
    """Log ratio of the cross-bound extrema products; 0 iff the sandwich is tight.

    With an empty half every exponent is zero, so the extrema are skipped
    after the checks that ``cross_weight_bounds`` makes.
    """
    if n != 0 and m != 0:
        return cross_weight_bounds(model, n, m).log_spread
    model = normalize_distinct(model)
    d = model.max_arity
    if d:
        index = AtomIndex(model.signature, DomainSpec({_single_type(model): d}))
        _guard(index.n_atoms, EXTREMAL_MAX_ATOMS)
    _cross_exponents(n, m, d)
    return 0.0


# ---------------------------------------------------------------------------
# The exhaustive pass and the checks
# ---------------------------------------------------------------------------


def _split_context(model: MlnModel, n: int, m: int, *, max_atoms: int = DEFAULT_MAX_ATOMS):
    """The one pass over all (n+m)-worlds: ``(index, cross, lw_n, lw_m,
    bucket_logs, upper, lower, upper_witness, lower_witness)``."""
    model = normalize_distinct(model)
    tau = _single_type(model)
    spec = DomainSpec({tau: n + m}, split_type=tau, split_at=n)
    index = AtomIndex(model.signature, spec)
    _guard(index.n_atoms, max_atoms)
    front, back = split_subsets(spec)
    sub_n, pos_n = restriction_positions(index, front)
    sub_m, pos_m = restriction_positions(index, back)
    lw_n = dense_log_weights(model, sub_n)
    lw_m = dense_log_weights(model, sub_m)
    cross = cross_weight_bounds(model, n, m)

    split = np.concatenate([pos_n, pos_m])
    order, runs = _split_runs(_table(model.formulas(), index), split, model.weights())
    split_mask = lw_n.shape[0] * lw_m.shape[0] - 1  # the F+B split bits
    bucket_logs = np.empty(lw_n.shape[0])
    worst = [math.inf, math.inf]  # upper, lower
    witness = [0, 0]

    def base_of(code: int, n_worlds: int) -> np.ndarray:
        """The base of the split codes ``code .. code + n_worlds - 1``, taken
        mod 2^(F+B): the outer sum of the back and front log weights they
        read, back code major, repeated when ``n_worlds`` exceeds 2^(F+B)."""
        fronts = min(n_worlds, lw_n.shape[0])
        backs = min(n_worlds // fronts, lw_m.shape[0])
        f0, b0 = code & (lw_n.shape[0] - 1), (code & split_mask) >> sub_n.n_atoms
        base = np.add.outer(lw_m[b0 : b0 + backs], lw_n[f0 : f0 + fronts]).reshape(-1)
        return base if base.shape[0] == n_worlds else np.tile(base, n_worlds // base.shape[0])

    for code, run in runs:
        lse, hi, hi_at, lo, lo_at = _pair_extremes(run)
        _fold_pair_buckets(run, lse, code, bucket_logs)
        for start, stop in _tiles(run.n_worlds):
            base = base_of(code | start, stop - start)
            up = base + cross.log_m_max - run.per_world(hi, start, stop)
            down = run.per_world(lo, start, stop) - base - cross.log_m_min
            # The minima are strict, so the first offset attaining one keeps it,
            # in the first block where its pair reaches its extreme.
            for k, (slack, pair_starts) in enumerate(((up, hi_at), (down, lo_at))):
                i = int(np.argmin(slack))
                if float(slack[i]) < worst[k]:
                    worst[k] = float(slack[i])
                    witness[k] = int(pair_starts[run.pair_of(start + i)]) + start + i

    def _index_bits(relaid_bits: int) -> int:
        return sum(1 << int(p) for j, p in enumerate(order) if relaid_bits >> j & 1)

    witnesses = _index_bits(witness[0]), _index_bits(witness[1])
    return index, cross, lw_n, lw_m, bucket_logs, *worst, *witnesses


def weight_sandwich_slacks(model: MlnModel, n: int, m: int, world: World) -> tuple[float, float]:
    """(upper, lower) sandwich slack for one world over the split domain."""
    model = normalize_distinct(model)
    tau = _single_type(model)
    spec = DomainSpec({tau: n + m}, split_type=tau, split_at=n)
    if world.index != AtomIndex(model.signature, spec):
        raise ValueError("world is not over the split domain spec")
    cross = cross_weight_bounds(model, n, m)
    front, back = split_subsets(spec)
    base = log_weight(model, restrict(world, front)) + log_weight(model, restrict(world, back))
    lw = log_weight(model, world)
    return base + cross.log_m_max - lw, lw - base - cross.log_m_min


def verify_all(
    model: MlnModel,
    n: int,
    m: int,
    *,
    tol: float = DEFAULT_TOL,
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> BoundsReport:
    """Run every bound check on one shared enumeration pass. ``tol`` must be
    finite and at least 0."""
    if not 0 <= tol < math.inf:  # NaN fails too
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    index, cross, lw_n, lw_m, bucket_logs, w_up, w_lo, up_witness, lo_witness = _split_context(
        model, n, m, max_atoms=max_atoms
    )
    spread = cross.log_spread

    def check(name: str, worst: float, **details) -> CheckRecord:
        return CheckRecord(name, n, m, spread, worst, worst >= -tol, details)

    # M_min * W_n * W_m <= W_{n+m} <= M_max * W_n * W_m for every world.
    weight = check(
        "weight_sandwich",
        min(w_up, w_lo),
        upper_slack=w_up,
        lower_slack=w_lo,
        upper_witness=up_witness,
        lower_witness=lo_witness,
    )

    # The same sandwich summed over worlds; the 2^C straddling-atom
    # assignments extend each (front, back) pair.
    extensions = cross_atom_count(index)
    log_z_nm = _logsumexp(bucket_logs)
    log_z_n = _logsumexp(lw_n)
    base = log_z_n + _logsumexp(lw_m) + extensions * math.log(2.0)
    z_up = base + cross.log_m_max - log_z_nm
    z_lo = log_z_nm - base - cross.log_m_min
    partition = check("partition_sandwich", min(z_up, z_lo), upper_slack=z_up, lower_slack=z_lo)

    # |log marginal - log direct| <= log spread for every front-half world.
    marginal = bucket_logs - log_z_nm
    ratio = marginal - (lw_n - log_z_n)
    r_up = float((spread - ratio).min())
    r_lo = float((spread + ratio).min())
    marginal_ratio = check(
        "marginal_ratio",
        min(r_up, r_lo),
        upper_slack=r_up,
        lower_slack=r_lo,
        max_abs_log_ratio=float(np.abs(ratio).max()),
    )

    # KL(marginal || direct) <= log spread.
    kl = float(np.exp(marginal) @ ratio)
    if -1e-12 < kl < 0.0:
        kl = 0.0
    kl_bound = check("kl_bound", spread - kl, kl=kl)

    # Transfer bound per world: -log marginal <= -log direct + log spread (the
    # marginal ratio's lower slack), and the KL-penalized variant collapses to
    # kl <= log spread.
    loglik = check("loglik_bound", min(r_lo, spread - kl), per_world_slack=r_lo)

    checks = (weight, partition, marginal_ratio, kl_bound, loglik)
    return BoundsReport(n, m, cross, log2_extensions=extensions, checks=checks, kl=kl)
