"""Exact generative weight learning by enumeration.

Likelihood, gradient, and Hessian come from a cached matrix of true-grounding
counts over every world: the gradient is observed-minus-expected counts and
the Hessian is their covariance, so full Newton steps cost one extra matrix
product. Newton matters here: exact ML on tiny domains routinely saturates
weights along exponentially flat valleys where first-order steps crawl.
Penalties apply only to clauses of arity above one; L1 uses orthant-wise
pseudo-gradients with zero-clamping projection so penalized weights reach
exact zeros. A halving Armijo line search keeps the objective monotone.
Domain-size-aware scaling divides clause weights by their per-size factors
during both training and target evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from .logic import Formula, MlnModel, normalize_distinct
from .model import (
    DEFAULT_MAX_ATOMS,
    _logsumexp,
    _table,
    apply_da_scaling,
    da_scale_factors,
    log_partition,
    log_weight,
)
from .worlds import AtomIndex, DomainSpec, World, _guard

LEARN_MAX_ATOMS = 20
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
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


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


def _counts_for(model: MlnModel, index: AtomIndex, max_atoms: int) -> np.ndarray:
    """(2^G, n_clauses) float64 true-grounding counts for every world, cached by structure."""
    _guard(index.n_atoms, max_atoms)
    return _counts_cached(model.formulas(), index)


@lru_cache(maxsize=8)
def _counts_cached(formulas: tuple[Formula, ...], index: AtomIndex) -> np.ndarray:
    out = np.empty((1 << index.n_atoms, len(formulas)))
    for worlds, counts in _table(formulas, index).chunk_counts():
        start = int(worlds[0])
        out[start : start + worlds.shape[0]] = counts
    return out


def _validate_data(model: MlnModel, spec: DomainSpec, data: World) -> AtomIndex:
    index = AtomIndex(model.signature, spec)
    if data.index != index:
        raise ValueError("data world is not over the given signature and domain spec")
    return index


def _nll_grad_hessian(
    counts: np.ndarray, data_counts: np.ndarray, theta: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Negative log-likelihood, its gradient, and its exact Hessian (the
    covariance of the counts under the current distribution)."""
    logw = counts @ theta
    shift = logw.max()
    w = np.exp(logw - shift)
    z = w.sum()
    p = w / z
    value = float(shift + math.log(z) - data_counts @ theta)
    expected = p @ counts
    hessian = (counts * p[:, None]).T @ counts - np.outer(expected, expected)
    return value, expected - data_counts, hessian


def gradient(model: MlnModel, spec: DomainSpec, data: World) -> np.ndarray:
    """Log-likelihood gradient: observed minus expected true-grounding counts."""
    model = normalize_distinct(model)
    index = _validate_data(model, spec, data)
    counts = _counts_for(model, index, LEARN_MAX_ATOMS)
    _, grad, _ = _nll_grad_hessian(counts, counts[data.bits], np.array(model.weights()))
    return -grad


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


def learn(
    model: MlnModel,
    spec: DomainSpec,
    data: World,
    config: LearnConfig = LearnConfig(),
) -> LearnResult:
    """Maximize exact data log-likelihood minus the configured penalty.

    Returns the best (last) iterate with its trace; ``converged`` is False when
    the gradient norm never reached the threshold within ``max_iter`` steps.
    """
    model = normalize_distinct(model)
    index = _validate_data(model, spec, data)
    counts = _counts_for(model, index, config.max_atoms)
    data_counts = counts[data.bits].copy()
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
    n_params = tie.shape[1]

    penalized = np.array([c.formula.arity > 1 for c in model.clauses], dtype=float)
    lam_vec = config.lam * (tie.T @ penalized)
    l1 = config.regularizer == "l1"
    l2 = config.regularizer == "l2"

    # Work directly in parameter space: a clause's effective weight is
    # (tie @ theta) / scale, so parameter-space counts fold both in.
    jac = tie / scale[:, None]
    if config.tie_split_weights or config.da:
        counts_p = counts @ jac
        data_counts_p = data_counts @ jac
    else:
        counts_p = counts
        data_counts_p = data_counts

    def nll(theta: np.ndarray) -> float:
        return float(_logsumexp(counts_p @ theta) - data_counts_p @ theta)

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
        value, grad, hessian = _nll_grad_hessian(counts_p, data_counts_p, theta)
        objective = value + penalty(theta)
        smooth_grad = grad + (2.0 * lam_vec * theta if l2 else 0.0)
        if l2:
            hessian = hessian + np.diag(2.0 * lam_vec)
        stats = stats_at(theta, value, smooth_grad)
        trace.append(stats)
        if stats.grad_norm <= config.tol:
            converged = True
            break

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
            cand_objective = nll(cand) + penalty(cand)
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
        value, grad, _ = _nll_grad_hessian(counts_p, data_counts_p, theta)
        smooth_grad = grad + (2.0 * lam_vec * theta if l2 else 0.0)
        stats = stats_at(theta, value, smooth_grad)
        trace.append(stats)
        converged = stats.grad_norm <= config.tol

    clause_weights = tie @ theta
    return LearnResult(
        weights=clause_weights,
        model=model.with_weights(clause_weights),
        converged=converged,
        iterations=iterations,
        trace=tuple(trace),
        objective=trace[-1].neg_log_likelihood + trace[-1].penalty,
    )


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
