"""Independent brute-force references the engine is validated against.

Everything here recomputes quantities from first principles with plain loops:
no grounding tables, no restriction machinery, no vectorization. Slow on
purpose; only usable at toy sizes.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from mlnexact.logic import And, Atom, Iff, Implies, MlnModel, Not, Or
from mlnexact.worlds import World


def eval_ground(node, env: dict, world: World) -> bool:
    if isinstance(node, Atom):
        return world.truth(node.pred, tuple(env[v] for v in node.args))
    if isinstance(node, Not):
        return not eval_ground(node.sub, env, world)
    if isinstance(node, And):
        return eval_ground(node.lhs, env, world) and eval_ground(node.rhs, env, world)
    if isinstance(node, Or):
        return eval_ground(node.lhs, env, world) or eval_ground(node.rhs, env, world)
    if isinstance(node, Implies):
        return (not eval_ground(node.lhs, env, world)) or eval_ground(node.rhs, env, world)
    if isinstance(node, Iff):
        return eval_ground(node.lhs, env, world) == eval_ground(node.rhs, env, world)
    raise TypeError(node)


def count_groundings_direct(clause, world: World) -> int:
    """Satisfying assignments by looping over every type-respecting assignment."""
    f = clause.formula
    spec = world.index.spec
    names = [v for v, _ in f.vars]
    types = {v: t for v, t in f.vars}
    count = 0
    for values in product(*[spec.constants(t) for _, t in f.vars]):
        env = dict(zip(names, values))
        if any(types[a] == types[b] and env[a] == env[b] for a, b in f.distinct):
            continue
        if eval_ground(f.ast, env, world):
            count += 1
    return count


def raw_log_weight(model: MlnModel, world: World) -> float:
    return sum(c.weight * count_groundings_direct(c, world) for c in model.clauses)


def raw_log_probs(model: MlnModel, index) -> list[float]:
    """Log probability of every world by direct summation (float-safe shift)."""
    logs = [raw_log_weight(model, World(index, b)) for b in range(1 << index.n_atoms)]
    shift = max(logs)
    z = shift + math.log(sum(math.exp(x - shift) for x in logs))
    return [x - z for x in logs]


def dense_nll_grad_hessian(counts, data_counts, theta):
    """Negative log-likelihood, gradient and Hessian of the learning objective,
    each a plain pass over the (2^G, k) count matrix of every world."""
    logw = counts @ theta
    shift = logw.max()
    w = np.exp(logw - shift)
    z = w.sum()
    p = w / z
    value = float(shift + math.log(z) - data_counts @ theta)
    expected = p @ counts
    hessian = (counts * p[:, None]).T @ counts - np.outer(expected, expected)
    return value, expected - data_counts, hessian


def dense_nll(counts, data_counts, theta) -> float:
    """The negative log-likelihood alone, as a logsumexp over every world."""
    logw = counts @ theta
    shift = float(logw.max())
    return float(shift + math.log(float(np.exp(logw - shift).sum())) - data_counts @ theta)


def set_partitions_reference(items: list) -> list[list[list]]:
    """All set partitions by recursive block insertion (not the engine's algorithm)."""
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for part in set_partitions_reference(rest):
        for i in range(len(part)):
            out.append(part[:i] + [[first] + part[i]] + part[i + 1 :])
        out.append([[first]] + part)
    return out


def canonical_partition(part) -> frozenset:
    return frozenset(frozenset(block) for block in part)


def fd_gradient(fn, weights, h: float = 1e-5):
    """Central finite differences of a scalar function of the weight vector."""
    out = []
    for i in range(len(weights)):
        up = list(weights)
        down = list(weights)
        up[i] += h
        down[i] -= h
        out.append((fn(up) - fn(down)) / (2 * h))
    return out


def kl_reference(p_logs, q_logs) -> float:
    return sum(math.exp(p) * (p - q) for p, q in zip(p_logs, q_logs))
