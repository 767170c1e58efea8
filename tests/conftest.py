from __future__ import annotations

import numpy as np
import pytest

from mlnexact import learning
from mlnexact.logic import (
    And,
    Atom,
    Clause,
    Formula,
    Implies,
    MlnModel,
    Not,
    Or,
    Signature,
    parse_mln,
)
from mlnexact.model import _table, bit_codes, world_chunks

EXAMPLE2_TEXT = """\
// contagion model: vaccines protect, contact spreads
type person = 4
predicate Vaccine(person)
predicate Covid(person)
predicate Contact(person,person)

1.0 Vaccine(x) => !Covid(x)
0.8 Covid(x) ^ Contact(x,y) => Covid(y)
"""

EXAMPLE3_TEXT = """\
// projective fragment: every atom uses the full variable list
type person = 4
predicate Covid(person)
predicate Contact(person,person)

0.6 Covid(x)
0.9 Contact(x,y) ^ Contact(y,x) ^ x != y
"""

TRIANGLE_TEXT = """\
type node = 4
predicate R(node,node)

0.7 R(x,y) ^ R(y,z) ^ R(x,z)
"""

UNARY_ONLY_TEXT = """\
type item = 3
predicate A(item)
predicate B(item)

0.5 A(x)
-1.1 A(x) => B(x)
"""


@pytest.fixture(autouse=True)
def _empty_fit_memo():
    """Start every test with an empty fit memo, so no test reads a fit that an
    earlier one cached and no result depends on test order."""
    learning._fit.cache_clear()


@pytest.fixture
def example2_model():
    return parse_mln(EXAMPLE2_TEXT)


@pytest.fixture
def example3_model():
    return parse_mln(EXAMPLE3_TEXT)


@pytest.fixture
def triangle_model():
    return parse_mln(TRIANGLE_TEXT)


@pytest.fixture
def unary_model():
    return parse_mln(UNARY_ONLY_TEXT)


def random_raw_model(
    rng: np.random.Generator,
    *,
    weight_range: tuple[float, float] = (-1.5, 1.5),
    include_ternary_clause: bool = False,
) -> MlnModel:
    """Random raw (un-normalized) model over one type.

    Signatures keep the ground-atom count at n+m=4 enumerable: one or two
    predicates of arity <= 2, never two binary ones.
    """
    n_preds = int(rng.integers(1, 3))
    arities = []
    for _ in range(n_preds):
        arity = int(rng.integers(1, 3))
        if arity == 2 and 2 in arities:
            arity = 1
        arities.append(arity)
    predicates = {f"P{i}": tuple("t" for _ in range(a)) for i, a in enumerate(arities)}
    signature = Signature.make({"t": 4}, predicates)
    pred_names = list(predicates)

    def random_clause(n_vars: int) -> Clause:
        var_names = ["x", "y", "z"][:n_vars]
        while True:
            n_atoms = int(rng.integers(1, 4)) if n_vars <= 2 else int(rng.integers(2, 5))
            atoms = []
            for _ in range(n_atoms):
                pred = pred_names[int(rng.integers(0, len(pred_names)))]
                k = len(predicates[pred])
                args = tuple(var_names[int(rng.integers(0, n_vars))] for _ in range(k))
                atoms.append(Atom(pred, args))
            used = {v for a in atoms for v in a.args}
            if used == set(var_names):
                break
        node = Not(atoms[0]) if rng.random() < 0.3 else atoms[0]
        for atom in atoms[1:]:
            rhs = Not(atom) if rng.random() < 0.3 else atom
            op = (And, Or, Implies)[int(rng.integers(0, 3))]
            node = op(node, rhs)
        order = []
        for a in atoms:
            for v in a.args:
                if v not in order:
                    order.append(v)
        formula = Formula(node, frozenset(), tuple((v, "t") for v in order))
        weight = float(rng.uniform(*weight_range))
        return Clause(formula, weight)

    n_clauses = int(rng.integers(1, 4))
    clauses = [random_clause(int(rng.integers(1, 3))) for _ in range(n_clauses)]
    if include_ternary_clause:
        clauses.append(random_clause(3))
    return MlnModel(signature, tuple(clauses))


def plain_log_weights(model: MlnModel, index) -> np.ndarray:
    """Log weight of every world over the index, from the plain per-block
    kernel (``GroundingTable.log_weights``) over ``world_chunks``."""
    gt = _table(model.formulas(), index)
    return np.concatenate(
        [gt.log_weights(worlds, model.weights()) for worlds in world_chunks(index.n_atoms)]
    )


def dense_restriction_oracle(model: MlnModel, index, positions) -> tuple[np.ndarray, np.ndarray]:
    """Per-world log weights over the full index, and the unnormalized log mass
    of every restriction bucket, by gathering each world's restriction code
    with ``bit_codes`` and scattering with ``np.logaddexp.at``."""
    lw = plain_log_weights(model, index)
    buckets = np.full(1 << len(positions), -np.inf)
    for worlds in world_chunks(index.n_atoms):
        start = int(worlds[0])
        np.logaddexp.at(buckets, bit_codes(worlds, positions), lw[start : start + worlds.shape[0]])
    return lw, buckets
