"""Exact generative weight learning by enumeration.

Likelihood, gradient, and Hessian come from the true-grounding counts of every
world: the gradient is observed-minus-expected counts and the Hessian is their
covariance, so full Newton steps cost one extra matrix product. Newton matters
here: exact ML on tiny domains routinely saturates weights along exponentially
flat valleys where first-order steps crawl.

A world's weight depends on it only through its count vector, so each Newton
step computes log weights and exponentiates once per distinct count vector
(the count histogram, deduped by every world's count key), then gathers the
weights to the 2^G worlds. Three reductions still run over all 2^G worlds:
the normalizer, the expected counts and the Hessian product. Their rounding
depends on summation order; run over the histogram they would move learned
weights in the last bits, which saturated directions amplify. The Hessian's
left operand stays world-major, (2^G, k) with the probability-weighted counts
of one world per row, so its product is the very BLAS call of the plain
``(counts * p[:, None]).T @ counts`` and rounds the same on any BLAS. A
clause-major (k, 2^G) operand is multiplied faster, but it takes another
kernel: OpenBLAS 0.3.31's small-matrix kernels on AVX-512 rounded it
differently at 2 to 4, 9 to 12 and 17 clauses. The operand is filled by one
row gather: each distinct count vector is scaled by its probability, the
same correctly rounded products as in every world that shares it, and
``np.take(..., mode="clip")`` copies the scaled rows to the worlds. Clip
mode writes straight into the caller's buffer, where the default mode
gathers into a temporary and copies it; since clip would clamp a bad index
silently, the row map is checked once, when the table is built. The BLAS
product and the three world-order sums are unchanged.

The data only shifts the gradient, and fits on one count table revisit the
same weights: every fit starts at zero, and once L1 pins the penalized
weights at zero, fits at the next penalty strengths retrace one Newton path.
So each table keeps its last ``_MEMO_SIZE`` evaluations, keyed by the
weights' bytes, and a repeated point returns the floats that ``_moments``
computed there. The line search only accepts or rejects a step, with 1e-12
of slack, so its likelihood is a logsumexp over the histogram alone.

The model is an exponential family, so the data enters the objective only
through its count vector: a fit is a pure function of the clause structure
(formulas and, for tied weights, their origins), the signature, the domain
spec, that vector and the config, and starts from zero weights whatever the
input weights are. ``learn`` therefore keeps the last 1024 fits in an LRU
memo keyed on exactly these, and training worlds that share a count vector
share one fit. A hit returns the same bits as a fresh fit, since the
optimizer would run the same arithmetic on the same operands.

Penalties apply only to clauses of arity above one; L1 uses orthant-wise
pseudo-gradients with zero-clamping projection so penalized weights reach
exact zeros. A halving Armijo line search keeps the objective monotone.
Domain-size-aware scaling divides clause weights by their per-size factors
during both training and target evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .logic import Clause, Formula, MlnModel, Signature, normalize_distinct
from .model import (
    DEFAULT_MAX_ATOMS,
    _logsumexp,
    _distinct_counts,
    apply_da_scaling,
    da_scale_factors,
    log_partition,
    log_weight,
)
from .worlds import AtomIndex, DomainSpec, World, _guard

LEARN_MAX_ATOMS = 20
# Evaluations kept per count table. On the smokers experiments at n=3 and 4,
# 16 entries catch every repeat that 256 catch and 8 entries few; 64 leave
# room for longer Newton paths. An entry holds k + k^2 floats.
_MEMO_SIZE = 64
GRID_DEFAULT = tuple(float(x) for x in np.logspace(-2.0, 2.0, 9))

_REGULARIZERS = ("none", "l1", "l2")


@dataclass(frozen=True)
class LearnConfig:
    regularizer: str = "none"
    lam: float = 0.0
    da: bool = False  # divide weights by train-size scale factors inside the objective
    max_iter: int = 500
    tol: float = 1e-6  # convergence threshold on the (composite) gradient inf-norm
    tie_split_weights: bool = False  # one parameter per pre-normalization clause
    max_atoms: int = LEARN_MAX_ATOMS

    def __post_init__(self):
        if self.regularizer not in _REGULARIZERS:
            raise ValueError(f"regularizer must be one of {_REGULARIZERS}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not self.tol >= 0:  # NaN fails too
            raise ValueError(f"tol must be >= 0, got {self.tol}")


@dataclass(frozen=True)
class IterStats:
    neg_log_likelihood: float
    penalty: float
    grad_norm: float


@dataclass(frozen=True)
class LearnResult:
    weights: np.ndarray  # raw parameter per normalized clause
    model: MlnModel  # input model with the raw parameters applied
    converged: bool
    iterations: int
    trace: tuple[IterStats, ...]
    objective: float  # final penalized negative log-likelihood


@dataclass(frozen=True)
class SweepEntry:
    lam: float
    mean_target_ll: float


@dataclass(frozen=True)
class SweepResult:
    best_lam: float
    entries: tuple[SweepEntry, ...]
    fits: tuple[LearnResult, ...]  # one per training world, at best_lam


# ---------------------------------------------------------------------------
# Count statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Counts:
    """True-grounding counts of every world, and the same counts as a histogram.

    ``rows`` holds the distinct count vectors in count_histogram order, then
    copies of the last one up to a multiple of four, whose ``log_mult`` is
    -inf. With 8 or more clauses, OpenBLAS was measured to round the rows of
    a product's last block differently when that block holds fewer than four
    rows. The 2^G-row world matrix has no such block, so the padding makes
    ``(rows @ theta)[inverse]`` equal ``worlds @ theta`` to the bit.

    ``worlds`` is ``rows[inverse]``: ``_counts_cached`` and ``project`` gather
    it from the rows, so ``_moments`` may read a world's counts off its row.
    The constructor checks that ``inverse`` has one entry per world, each
    naming one of the distinct rows (those whose ``log_mult`` is finite).

    ``moments`` keeps the table's last ``_MEMO_SIZE`` evaluations, so fits
    on one table share the points they revisit. A projected table is a new
    object with its own memo, and ``project`` keeps it per Jacobian, so fits
    with one Jacobian share one projection and its memo.
    """

    worlds: np.ndarray  # (2^G, k) float64, the count vector of every world
    rows: np.ndarray  # (n_padded, k) float64
    log_mult: np.ndarray  # (n_padded,) log of the worlds per row
    inverse: np.ndarray  # (2^G,) the row of every world: rows[inverse] == worlds
    # moments' entries, least recently used first, and project's tables by jac
    # bytes; not init fields, so a projected copy starts with both empty
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _projected: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # _moments gathers rows with mode="clip", which clamps a bad index
        # without a word, so the row map is checked here, once per table.
        n_distinct = np.count_nonzero(self.log_mult > -np.inf)
        inverse = self.inverse
        if inverse.shape != self.worlds.shape[:1]:
            raise ValueError(
                f"inverse has shape {inverse.shape}, not one row per world ({len(self.worlds)})"
            )
        if inverse.size and not (0 <= inverse.min() and inverse.max() < n_distinct):
            raise ValueError(f"inverse indexes rows outside the {n_distinct} distinct rows")

    def project(self, jac: np.ndarray) -> _Counts:
        """The counts in parameter space, where the clause weights are jac @ theta."""
        key = jac.tobytes()
        if key not in self._projected:
            rows = self.rows @ jac
            self._projected[key] = replace(self, worlds=rows[self.inverse], rows=rows)
        return self._projected[key]

    def moments(
        self, theta: np.ndarray, buf: np.ndarray | None = None
    ) -> tuple[np.float64, np.ndarray, Callable[[], np.ndarray]]:
        """``_moments`` at ``theta``, through the memo keyed by its bytes.

        An entry holds the read-only log Z and expected counts, and the
        read-only Hessian once a call has computed it. It keeps no per-world
        array, so a hit that lacks the Hessian runs ``_moments`` again, with
        ``buf`` as there; a hit returns the same floats as a fresh call.
        """
        key = theta.tobytes()
        entry = self._memo.pop(key, None)
        covariance = None
        if entry is None:
            log_z, expected, covariance = _moments(self, theta, buf)
            expected.setflags(write=False)
            entry = [log_z, expected, None]
        self._memo[key] = entry
        if len(self._memo) > _MEMO_SIZE:
            del self._memo[next(iter(self._memo))]

        def hessian() -> np.ndarray:
            if entry[2] is None:
                cov = covariance if covariance is not None else _moments(self, theta, buf)[2]
                entry[2] = cov()
                entry[2].setflags(write=False)
            return entry[2]

        return entry[0], entry[1], hessian


def _counts_for(model: MlnModel, index: AtomIndex, max_atoms: int) -> _Counts:
    """The counts of every world over the index, cached by clause structure."""
    _guard(index.n_atoms, max_atoms)
    return _counts_cached(model.formulas(), index)


@lru_cache(maxsize=8)
def _counts_cached(formulas: tuple[Formula, ...], index: AtomIndex) -> _Counts:
    rows, mult, inverse = _distinct_counts(formulas, index)
    rows = rows.astype(np.float64)
    n = rows.shape[0]
    pad = np.minimum(np.arange(-(-n // 4) * 4), n - 1)
    log_mult = np.log(mult[pad])
    log_mult[n:] = -np.inf
    return _Counts(rows[inverse], rows[pad], log_mult, inverse)


def _validate_data(model: MlnModel, spec: DomainSpec, data: World) -> AtomIndex:
    index = AtomIndex(model.signature, spec)
    if data.index != index:
        raise ValueError("data world is not over the given signature and domain spec")
    return index


def _moments(
    counts: _Counts, theta: np.ndarray, buf: np.ndarray | None = None
) -> tuple[np.float64, np.ndarray, Callable[[], np.ndarray]]:
    """``(log Z, expected counts, covariance call)`` of the model at ``theta``.

    World weights are exponentiated per histogram row and gathered to the
    worlds; the normalizer and both moments sum over the worlds. The
    covariance's left operand is world-major: each row's counts times its
    probability ``e / z``, gathered to the worlds (into ``buf`` when given,
    shaped like ``counts.worlds``). A world's probability is ``fl(e_r / z)``
    of its row ``r``, so the gather equals ``counts.worlds * p[:, None]`` to
    the bit while it scales only the distinct rows. ``mode="clip"`` lets
    ``np.take`` write ``buf`` in place (the default mode buffers and copies);
    the table's constructor has checked every index. The operand enters its
    product transposed, the dense reference's BLAS call, and the normalizer
    and both moments are summed in world order as before.
    """
    logw = counts.rows @ theta
    shift = logw.max()
    e = np.exp(logw - shift)
    w = np.take(e, counts.inverse)
    z = w.sum()
    p = np.divide(w, z, out=w)
    expected = p @ counts.worlds

    def covariance() -> np.ndarray:
        scaled = counts.rows * (e / z)[:, None]
        weighted = np.take(scaled, counts.inverse, axis=0, out=buf, mode="clip")
        return weighted.T @ counts.worlds - np.outer(expected, expected)

    return shift + math.log(z), expected, covariance


def _nll_grad_hessian(
    counts: _Counts, data_counts: np.ndarray, theta: np.ndarray, buf: np.ndarray | None = None
) -> tuple[float, np.ndarray, Callable[[], np.ndarray]]:
    """Negative log-likelihood, its gradient, and a call that returns its exact
    Hessian (the covariance of the counts under the current distribution), so
    a step that has converged does not pay for it. The moments come through
    the table's memo (``_Counts.moments``), so the arrays they hold are
    read-only.
    """
    log_z, expected, hessian = counts.moments(theta, buf)
    return float(log_z - data_counts @ theta), expected - data_counts, hessian


def _nll(counts: _Counts, data_counts: np.ndarray, theta: np.ndarray) -> float:
    """Negative log-likelihood from the histogram alone."""
    return float(_logsumexp(counts.rows @ theta + counts.log_mult) - data_counts @ theta)


def gradient(model: MlnModel, spec: DomainSpec, data: World) -> np.ndarray:
    """Log-likelihood gradient: observed minus expected true-grounding counts."""
    model = normalize_distinct(model)
    index = _validate_data(model, spec, data)
    counts = _counts_for(model, index, LEARN_MAX_ATOMS)
    _, grad, _ = _nll_grad_hessian(counts, counts.worlds[data.bits], np.array(model.weights()))
    return -grad


def _parameter_map(
    model: MlnModel, spec: DomainSpec, config: LearnConfig
) -> tuple[np.ndarray, np.ndarray]:
    """``(tie, jac)`` for a normalized model: its clause weights are ``tie @ theta``
    and the objective sees ``jac @ theta``, the same divided by the DA scale factors."""
    n_clauses = len(model.clauses)
    scale = np.ones(n_clauses)
    if config.da:
        scale = np.array(da_scale_factors(model, dict(spec.sizes)).factors)

    if config.tie_split_weights:
        origins = [c.origin if c.origin is not None else -1 - i for i, c in enumerate(model.clauses)]
        param_ids = list(dict.fromkeys(origins))
        tie = np.zeros((n_clauses, len(param_ids)))
        for ci, o in enumerate(origins):
            tie[ci, param_ids.index(o)] = 1.0
    else:
        tie = np.eye(n_clauses)
    return tie, tie / scale[:, None]


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


class _Fit(NamedTuple):
    """One optimizer run, as the fit memo keeps it. Bytes, not small arrays:
    the memo of a 20-set smokers experiment (240 fits) then takes about
    0.13 MB instead of 0.31 MB (tracemalloc)."""

    weights: bytes  # float64 clause weights
    converged: bool
    iterations: int
    trace: bytes  # float64 (len(trace), 3): the IterStats fields in order


def learn(
    model: MlnModel,
    spec: DomainSpec,
    data: World,
    config: LearnConfig = LearnConfig(),
) -> LearnResult:
    """Maximize exact data log-likelihood minus the configured penalty.

    Returns the best (last) iterate with its trace; ``converged`` is False when
    the gradient norm never reached the threshold within ``max_iter`` steps.
    Fits are shared by the data's count vector (see the module docstring).
    """
    model = normalize_distinct(model)
    index = _validate_data(model, spec, data)
    counts = _counts_for(model, index, config.max_atoms)
    origins = tuple(c.origin for c in model.clauses)  # Clause equality ignores them
    data_counts = counts.worlds[data.bits].tobytes()
    fit = _fit(model.formulas(), origins, model.signature, spec, data_counts, config)
    weights = np.frombuffer(fit.weights)
    trace = tuple(IterStats(*row) for row in np.frombuffer(fit.trace).reshape(-1, 3).tolist())
    return LearnResult(
        weights=weights.copy(),
        model=model.with_weights(weights),
        converged=fit.converged,
        iterations=fit.iterations,
        trace=trace,
        objective=trace[-1].neg_log_likelihood + trace[-1].penalty,
    )


@lru_cache(maxsize=1024)
def _fit(
    formulas: tuple[Formula, ...],
    origins: tuple[int | None, ...],
    signature: Signature,
    spec: DomainSpec,
    data_counts: bytes,
    config: LearnConfig,
) -> _Fit:
    """Newton's method from zero weights on a normalized clause list's counts."""
    clauses = tuple(Clause(f, 0.0, origin=o) for f, o in zip(formulas, origins))
    model = MlnModel(signature, clauses, normalized=True)
    counts = _counts_cached(formulas, AtomIndex(signature, spec))
    data_counts = np.frombuffer(data_counts).copy()
    tie, jac = _parameter_map(model, spec, config)
    n_params = tie.shape[1]

    penalized = np.array([c.formula.arity > 1 for c in model.clauses], dtype=float)
    lam_vec = config.lam * (tie.T @ penalized)
    l1 = config.regularizer == "l1"
    l2 = config.regularizer == "l2"

    # Work directly in parameter space: a clause's effective weight is
    # (tie @ theta) / scale, so parameter-space counts fold both in.
    if config.tie_split_weights or config.da:
        counts_p = counts.project(jac)
        data_counts_p = data_counts @ jac
    else:
        counts_p = counts
        data_counts_p = data_counts
    buf = np.empty_like(counts_p.worlds)

    def penalty(theta: np.ndarray) -> float:
        if l1:
            return float(lam_vec @ np.abs(theta))
        if l2:
            return float(lam_vec @ theta**2)
        return 0.0

    def prox(x: np.ndarray, t: np.ndarray | float) -> np.ndarray:
        if not l1:
            return x
        return np.sign(x) * np.maximum(np.abs(x) - t * lam_vec, 0.0)

    theta = np.zeros(n_params)
    trace: list[IterStats] = []
    converged = False
    iterations = 0

    def stats_at(point: np.ndarray, value: float, smooth_grad: np.ndarray) -> IterStats:
        if l1:
            residual = float(np.abs(point - prox(point - smooth_grad, 1.0)).max(initial=0.0))
        else:
            residual = float(np.abs(smooth_grad).max(initial=0.0))
        return IterStats(value, penalty(point), residual)

    armijo = 1e-4
    penalized_coords = lam_vec > 0.0

    def pseudo_gradient(theta: np.ndarray, smooth_grad: np.ndarray) -> np.ndarray:
        """Steepest-descent direction sign-resolved across the L1 kink."""
        if not l1:
            return smooth_grad
        pg = smooth_grad + lam_vec * np.sign(theta)
        at_zero = theta == 0.0
        pg_zero = smooth_grad - lam_vec * np.sign(smooth_grad)
        pg_zero[np.abs(smooth_grad) <= lam_vec] = 0.0
        return np.where(at_zero, pg_zero, pg)

    for _ in range(config.max_iter):
        iterations += 1
        value, grad, hessian_at = _nll_grad_hessian(counts_p, data_counts_p, theta, buf)
        objective = value + penalty(theta)
        smooth_grad = grad + (2.0 * lam_vec * theta if l2 else 0.0)
        stats = stats_at(theta, value, smooth_grad)
        trace.append(stats)
        if stats.grad_norm <= config.tol:
            converged = True
            break
        hessian = hessian_at()
        if l2:
            hessian = hessian + np.diag(2.0 * lam_vec)

        # Exact-Hessian Newton direction; flat (weight-saturating) directions
        # get their natural long steps, which first-order steps cannot take.
        pg = pseudo_gradient(theta, smooth_grad)
        ridge = 1e-10 * max(float(np.trace(hessian)) / max(n_params, 1), 1.0)
        direction = -np.linalg.solve(hessian + ridge * np.eye(n_params), pg)
        # For L1, coordinates pinned at zero by the threshold stay inactive.
        if l1:
            direction[(theta == 0.0) & (pg == 0.0)] = 0.0
        descent = float(pg @ direction)
        if descent >= 0.0:
            direction = -pg
            descent = -float(pg @ pg)

        alpha = 1.0
        stalled = False
        orthant = np.sign(np.where(theta == 0.0, -pg, theta))
        while True:
            cand = theta + alpha * direction
            if l1:
                # Orthant projection: penalized coordinates may not cross zero
                # within one step; crossing clamps to the kink.
                flipped = penalized_coords & (np.sign(cand) != orthant) & (cand != 0.0)
                cand = np.where(flipped, 0.0, cand)
            cand_objective = _nll(counts_p, data_counts_p, cand) + penalty(cand)
            if cand_objective <= objective + armijo * float(pg @ (cand - theta)) + 1e-12:
                break
            alpha *= 0.5
            if alpha < 1e-14:
                stalled = True
                break
        if stalled or not np.any(cand != theta):
            break
        theta = cand
    else:
        # Loop exhausted max_iter with a final update; record the last iterate.
        value, grad, _ = _nll_grad_hessian(counts_p, data_counts_p, theta, buf)
        smooth_grad = grad + (2.0 * lam_vec * theta if l2 else 0.0)
        stats = stats_at(theta, value, smooth_grad)
        trace.append(stats)
        converged = stats.grad_norm <= config.tol

    rows = [(t.neg_log_likelihood, t.penalty, t.grad_norm) for t in trace]
    return _Fit((tie @ theta).tobytes(), converged, iterations, np.array(rows).tobytes())


# ---------------------------------------------------------------------------
# Target evaluation and the regularization sweep
# ---------------------------------------------------------------------------


def target_log_likelihoods(
    model: MlnModel,
    target_spec: DomainSpec,
    target_worlds: Sequence[World],
    *,
    da_sizes: dict[str, int] | None = None,
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> list[float]:
    """Log likelihoods of several worlds at one target size, sharing one partition pass."""
    scaled = model
    if da_sizes is not None:
        scaled = apply_da_scaling(model, da_scale_factors(model, da_sizes))
    index = AtomIndex(scaled.signature, target_spec)
    for w in target_worlds:
        if w.index != index:
            raise ValueError("target world is not over the target domain spec")
    log_z = log_partition(scaled, index=index, max_atoms=max_atoms)
    return [log_weight(scaled, w) - log_z for w in target_worlds]


def lambda_sweep(
    model: MlnModel,
    spec: DomainSpec,
    train_worlds: Sequence[World],
    target_spec: DomainSpec,
    target_worlds: Sequence[World],
    regularizer: str,
    grid: Sequence[float] | None = None,
    config: LearnConfig | None = None,
    *,
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> SweepResult:
    """Pick the penalty strength maximizing mean validation-target log likelihood.

    Ties break toward the larger penalty. The fits at the chosen strength are
    kept in the result, so callers need not refit.
    """
    points = sorted(GRID_DEFAULT if grid is None else (float(x) for x in grid))
    if not points:
        raise ValueError("empty regularization grid")
    if not train_worlds:
        raise ValueError("no training worlds")
    if not target_worlds:
        raise ValueError("no target worlds")
    base = config if config is not None else LearnConfig()
    entries = []
    best_lam = None
    best_score = -math.inf
    best_fits: tuple[LearnResult, ...] = ()
    for lam in points:
        cfg = replace(base, regularizer=regularizer, lam=lam)
        lls: list[float] = []
        fits: list[LearnResult] = []
        for tw in train_worlds:
            fits.append(learn(model, spec, tw, cfg))
            lls.extend(
                target_log_likelihoods(
                    fits[-1].model,
                    target_spec,
                    target_worlds,
                    da_sizes=dict(target_spec.sizes) if cfg.da else None,
                    max_atoms=max_atoms,
                )
            )
        score = float(np.mean(lls))
        entries.append(SweepEntry(lam, score))
        if score >= best_score:
            best_score = score
            best_lam = lam
            best_fits = tuple(fits)
    return SweepResult(best_lam, tuple(entries), best_fits)
