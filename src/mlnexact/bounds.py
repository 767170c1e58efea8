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

``verify_all`` runs all five checks, plus the KL divergence itself, on one
exhaustive pass over the (n+m)-worlds. The pass runs on a relaid copy of the
grounding table: front-half atoms in the low F bits, back-half atoms in the
next B bits, straddling atoms above. A world's two restriction codes are then
the bit fields ``world & (2^F - 1)`` and ``(world >> F) & (2^B - 1)``; the
front marginal folds through the same bucket accumulator as
``model.marginal_log_probs``, log Z is the logsumexp of its buckets, and the
sandwich witnesses are reported in ``AtomIndex`` order.
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
    _fold_front_buckets,
    _logsumexp,
    _single_type,
    _table,
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


def _normalized(model: MlnModel) -> MlnModel:
    return model if model.normalized else normalize_distinct(model)


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

    def to_rows(self) -> list[dict]:
        return [
            {
                "check": c.name,
                "n": c.n,
                "m": c.m,
                "log_spread": c.log_spread,
                "worst_slack": c.worst_slack,
                "pass": c.passed,
            }
            for c in self.checks
        ]

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
    model = _normalized(model)
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


def cross_weight_bounds(model: MlnModel, n: int, m: int) -> CrossBounds:
    """Log products of per-arity weight extrema over tuples straddling the n|m split."""
    model = _normalized(model)
    d = model.max_arity
    per_arity = tuple(extremal_k_weights(model, k) for k in range(1, d + 1))
    exponents = tuple(comb(n + m, k) - comb(n, k) - comb(m, k) for k in range(1, d + 1))
    log_m_max = sum(e * x.log_max for e, x in zip(exponents, per_arity))
    log_m_min = sum(e * x.log_min for e, x in zip(exponents, per_arity))
    return CrossBounds(n, m, log_m_max, log_m_min, per_arity, exponents)


def log_spread(model: MlnModel, n: int, m: int) -> float:
    """Log ratio of the cross-bound extrema products; 0 iff the sandwich is tight."""
    return cross_weight_bounds(model, n, m).log_spread


# ---------------------------------------------------------------------------
# Shared exhaustive pass
# ---------------------------------------------------------------------------


@dataclass
class _SplitContext:
    n: int
    m: int
    index: AtomIndex
    cross: CrossBounds
    lw_n: np.ndarray
    log_z_nm: float
    log_z_n: float
    log_z_m: float
    marginal_logs: np.ndarray
    sandwich_upper: float
    sandwich_lower: float
    upper_witness: int
    lower_witness: int


def _split_context(
    model: MlnModel, n: int, m: int, *, max_atoms: int = DEFAULT_MAX_ATOMS
) -> _SplitContext:
    """One exhaustive pass over all (n+m)-worlds, in the relaid bit layout the
    module docstring describes, collecting everything the checks need."""
    model = _normalized(model)
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

    gt, order = _table(model.formulas(), index).relaid(pos_n, pos_m)
    weights = np.asarray(model.weights(), dtype=np.float64)
    front_bits = np.uint64(sub_n.n_atoms)
    front_mask = np.uint64(lw_n.shape[0] - 1)
    back_mask = np.uint64(lw_m.shape[0] - 1)
    bucket_logs = np.full(lw_n.shape[0], -np.inf)
    up_worst = math.inf
    lo_worst = math.inf
    up_witness = 0
    lo_witness = 0
    for worlds, counts in gt.chunk_counts():
        lw = counts @ weights
        _fold_front_buckets(bucket_logs, int(worlds[0]), lw)
        base = lw_n[worlds & front_mask] + lw_m[(worlds >> front_bits) & back_mask]
        up = base + cross.log_m_max - lw
        lo = lw - base - cross.log_m_min
        i = int(np.argmin(up))
        if float(up[i]) < up_worst:
            up_worst = float(up[i])
            up_witness = int(worlds[i])
        i = int(np.argmin(lo))
        if float(lo[i]) < lo_worst:
            lo_worst = float(lo[i])
            lo_witness = int(worlds[i])
        del lw, base, up, lo  # freed before the next block is counted
    log_z_nm = _logsumexp(bucket_logs)

    def _index_bits(relaid_bits: int) -> int:
        return sum(1 << int(p) for j, p in enumerate(order) if relaid_bits >> j & 1)

    return _SplitContext(
        n=n,
        m=m,
        index=index,
        cross=cross,
        lw_n=lw_n,
        log_z_nm=log_z_nm,
        log_z_n=_logsumexp(lw_n),
        log_z_m=_logsumexp(lw_m),
        marginal_logs=bucket_logs - log_z_nm,
        sandwich_upper=up_worst,
        sandwich_lower=lo_worst,
        upper_witness=_index_bits(up_witness),
        lower_witness=_index_bits(lo_witness),
    )


def _record(name: str, ctx: _SplitContext, worst: float, tol: float, **details) -> CheckRecord:
    return CheckRecord(
        name=name,
        n=ctx.n,
        m=ctx.m,
        log_spread=ctx.cross.log_spread,
        worst_slack=worst,
        passed=worst >= -tol,
        details=details,
    )


def _weight_sandwich(ctx: _SplitContext, tol: float) -> CheckRecord:
    worst = min(ctx.sandwich_upper, ctx.sandwich_lower)
    return _record(
        "weight_sandwich",
        ctx,
        worst,
        tol,
        upper_slack=ctx.sandwich_upper,
        lower_slack=ctx.sandwich_lower,
        upper_witness=ctx.upper_witness,
        lower_witness=ctx.lower_witness,
    )


def _partition_sandwich(ctx: _SplitContext, tol: float) -> CheckRecord:
    log_c = cross_atom_count(ctx.index) * math.log(2.0)
    base = ctx.log_z_n + ctx.log_z_m + log_c
    upper = base + ctx.cross.log_m_max - ctx.log_z_nm
    lower = ctx.log_z_nm - base - ctx.cross.log_m_min
    return _record(
        "partition_sandwich", ctx, min(upper, lower), tol, upper_slack=upper, lower_slack=lower
    )


def _marginal_ratio(ctx: _SplitContext, tol: float) -> CheckRecord:
    direct = ctx.lw_n - ctx.log_z_n
    ratio = ctx.marginal_logs - direct
    upper = float((ctx.cross.log_spread - ratio).min())
    lower = float((ctx.cross.log_spread + ratio).min())
    return _record(
        "marginal_ratio",
        ctx,
        min(upper, lower),
        tol,
        upper_slack=upper,
        lower_slack=lower,
        max_abs_log_ratio=float(np.abs(ratio).max()),
    )


def _kl(ctx: _SplitContext) -> float:
    direct = ctx.lw_n - ctx.log_z_n
    kl = float(np.exp(ctx.marginal_logs) @ (ctx.marginal_logs - direct))
    if -1e-12 < kl < 0.0:
        return 0.0
    return kl


def _kl_bound(ctx: _SplitContext, kl: float, tol: float) -> CheckRecord:
    return _record("kl_bound", ctx, ctx.cross.log_spread - kl, tol, kl=kl)


def _loglik_bound(ctx: _SplitContext, kl: float, tol: float) -> CheckRecord:
    # Transfer bound per world: -log marginal <= -log direct + log spread,
    # and the KL-penalized variant collapses to kl <= log spread.
    direct = ctx.lw_n - ctx.log_z_n
    per_world = float((ctx.marginal_logs - direct + ctx.cross.log_spread).min())
    worst = min(per_world, ctx.cross.log_spread - kl)
    return _record("loglik_bound", ctx, worst, tol, per_world_slack=per_world)


# ---------------------------------------------------------------------------
# Public checks
# ---------------------------------------------------------------------------


def weight_sandwich_slacks(model: MlnModel, n: int, m: int, world: World) -> tuple[float, float]:
    """(upper, lower) sandwich slack for one world over the split domain."""
    model = _normalized(model)
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
    """Run every bound check on one shared enumeration pass."""
    ctx = _split_context(model, n, m, max_atoms=max_atoms)
    kl = _kl(ctx)
    checks = (
        _weight_sandwich(ctx, tol),
        _partition_sandwich(ctx, tol),
        _marginal_ratio(ctx, tol),
        _kl_bound(ctx, kl, tol),
        _loglik_bound(ctx, kl, tol),
    )
    return BoundsReport(
        n=n,
        m=m,
        cross=ctx.cross,
        log2_extensions=cross_atom_count(ctx.index),
        checks=checks,
        kl=kl,
    )
