import hashlib
import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlnexact import learning
from mlnexact.bounds import log_spread
from mlnexact.datagen import FRIENDS_SMOKERS_MLN
from mlnexact.learning import (
    GRID_DEFAULT,
    LEARN_MAX_ATOMS,
    LearnConfig,
    LearnResult,
    _Counts,
    _counts_for,
    _nll,
    _nll_grad_hessian,
    _parameter_map,
    gradient,
    lambda_sweep,
    learn,
    target_log_likelihoods,
)
from mlnexact.logic import Predicate, Signature, normalize_distinct, parse_mln
from mlnexact.model import (
    apply_da_scaling,
    da_scale_factors,
    log_marginal,
    log_probability,
    marginal_log_probs,
)
from mlnexact.worlds import AtomIndex, DomainSpec, DomainTooLargeError, World

from _oracles import dense_nll, dense_nll_grad_hessian, fd_gradient
from conftest import random_raw_model


TEN_CLAUSE_TEXT = """\
type p = 2
predicate S(p)
predicate C(p)
predicate F(p,p)
0 S(x)
0 C(x)
0 S(x) => C(x)
0 F(x,y) ^ S(x) => S(y)
0 F(x,y) => F(y,x)
0 F(x,y) ^ C(y)
0 F(x,x)
"""


def smokers_model():
    return normalize_distinct(
        parse_mln(
            "type p = 3\npredicate S(p)\npredicate F(p,p)\n"
            "0 S(x)\n0 F(x,y) ^ S(x) => S(y)"
        )
    )


def smokers_data(model, n=3):
    spec = DomainSpec({"p": n})
    index = AtomIndex(model.signature, spec)
    world = World.from_true_atoms(index, [("S", (1,)), ("F", (1, 2)), ("F", (2, 3))])
    return spec, index, world


class TestLikelihoodAndGradient:
    def test_zero_weights_uniform(self):
        model = smokers_model()
        spec, index, _ = smokers_data(model)
        assert log_probability(model, World(index, 0)) == pytest.approx(
            -index.n_atoms * math.log(2)
        )

    def test_likelihood_never_positive(self):
        rng = np.random.default_rng(3)
        model = normalize_distinct(random_raw_model(rng))
        tau = model.signature.types[0][0]
        spec = DomainSpec({tau: 3})
        index = AtomIndex(model.signature, spec)
        for bits in rng.integers(0, 1 << index.n_atoms, size=6):
            assert log_probability(model, World(index, int(bits))) <= 0.0

    def test_gradient_sign_matches_local_likelihood_change(self):
        model = smokers_model()
        spec, index, data = smokers_data(model)
        g = gradient(model, data)
        h = 1e-4
        for i, gi in enumerate(g):
            if abs(gi) < 1e-9:
                continue
            bumped = list(model.weights())
            bumped[i] += h * math.copysign(1.0, gi)
            assert log_probability(model.with_weights(bumped), data) > log_probability(model, data)

    def test_gradient_of_positive_literal_on_empty_world(self):
        model = normalize_distinct(parse_mln("type p = 3\npredicate S(p)\n0 S(x)"))
        spec = DomainSpec({"p": 3})
        index = AtomIndex(model.signature, spec)
        g = gradient(model, World(index, 0))
        # observed count 0 minus the uniform expectation n/2
        assert g == pytest.approx([-1.5])

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_matches_central_differences(self, seed):
        rng = np.random.default_rng(40 + seed)
        model = normalize_distinct(random_raw_model(rng))
        tau = model.signature.types[0][0]
        spec = DomainSpec({tau: 3})
        index = AtomIndex(model.signature, spec)
        weights = rng.uniform(-1.0, 1.0, size=len(model.clauses))
        model = model.with_weights(weights)
        data = World(index, int(rng.integers(0, 1 << index.n_atoms)))
        analytic = gradient(model, data)
        numeric = fd_gradient(
            lambda w: log_probability(model.with_weights(w), data), weights
        )
        assert np.abs(analytic - np.array(numeric)).max() <= 1e-5

    def test_log_probability_rejects_world_over_another_signature(self):
        model = smokers_model()
        wider = Signature(
            model.signature.types, model.signature.predicates + (Predicate("C", ("p",)),)
        )
        world = World(AtomIndex(wider, DomainSpec({"p": 3})), 0)
        with pytest.raises(ValueError, match="signature"):
            log_probability(model, world)

    def test_learning_and_scoring_reject_world_over_another_signature(self):
        # The world's index names the domain; its signature must be the model's.
        model = smokers_model()
        wider = Signature(
            model.signature.types, model.signature.predicates + (Predicate("C", ("p",)),)
        )
        world = World(AtomIndex(wider, DomainSpec({"p": 3})), 0)
        for score in (gradient, learn, lambda m, w: target_log_likelihoods(m, [w])):
            with pytest.raises(ValueError, match="signature"):
                score(model, world)

    def test_target_worlds_must_share_one_index(self):
        model = smokers_model()
        _, index, world = smokers_data(model)
        _, _, other = smokers_data(model, n=4)
        with pytest.raises(ValueError, match="one atom index"):
            target_log_likelihoods(model, [world, other])
        with pytest.raises(ValueError, match="one atom index"):
            target_log_likelihoods(model, [])
        # Equal indexes are one index, whichever objects hold them.
        again = World(AtomIndex(model.signature, DomainSpec({"p": 3})), world.bits)
        assert again.index is not index
        assert target_log_likelihoods(model, [world, again]) == target_log_likelihoods(
            model, [world, world]
        )


def smokers_training_worlds(n: int, seeds) -> list[World]:
    """Worlds of ``n`` people subsampled from populations of 10."""
    from mlnexact.datagen import SampleSpec, db_to_world, domain_spec_for
    from mlnexact.datagen import generate_friends_smokers, subsample

    worlds = []
    for seed in seeds:
        db = subsample(generate_friends_smokers(10, seed), SampleSpec("person", n, seed))
        worlds.append(db_to_world(db, domain_spec_for(db)))
    return worlds


def dense_objective(counts, data_counts, theta, buf=None):
    """``learning._nll_grad_hessian``'s contract, from the dense oracle."""
    value, grad, hessian = dense_nll_grad_hessian(counts.worlds, data_counts, theta)
    return value, grad, lambda: hessian


class TestHistogramObjective:
    """The Newton objective reads per-world weights and the line search off the
    count histogram; the dense per-world objective is its oracle."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 3),
        ternary=st.booleans(),
        jacobian=st.sampled_from(["plain", "da", "tied"]),
    )
    def test_matches_dense_oracle(self, seed, n, ternary, jacobian):
        rng = np.random.default_rng(seed)
        model = normalize_distinct(random_raw_model(rng, include_ternary_clause=ternary))
        tau = model.signature.types[0][0]
        spec = DomainSpec({tau: n})
        index = AtomIndex(model.signature, spec)
        config = LearnConfig(da=jacobian == "da", tie_split_weights=jacobian == "tied")
        _, jac = _parameter_map(model, spec, config)
        counts = _counts_for(model, index, LEARN_MAX_ATOMS)
        dense = counts.worlds @ jac
        data_counts = dense[int(rng.integers(0, 1 << index.n_atoms))]
        theta = rng.uniform(-2.0, 2.0, size=jac.shape[1])

        value, grad, hessian_at = _nll_grad_hessian(counts.project(jac), data_counts, theta)
        hessian = hessian_at()
        want_value, want_grad, want_hessian = dense_nll_grad_hessian(dense, data_counts, theta)
        assert value == pytest.approx(want_value, rel=1e-9, abs=1e-9)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(hessian, want_hessian, rtol=1e-9, atol=1e-9)
        assert _nll(counts.project(jac), data_counts, theta) == pytest.approx(
            dense_nll(dense, data_counts, theta), rel=1e-9, abs=1e-9
        )

    def test_wide_model_matches_dense_oracle_bit_for_bit(self):
        # Ten clauses after normalization, and 118 distinct count vectors: a
        # BLAS product rounds a short last block of rows differently at this
        # width, which the histogram's padding keeps out (see learning._Counts).
        model = normalize_distinct(parse_mln(TEN_CLAUSE_TEXT))
        spec = DomainSpec({"p": 2})
        counts = _counts_for(model, AtomIndex(model.signature, spec), LEARN_MAX_ATOMS)
        assert counts.rows.shape[1] == 10
        rng = np.random.default_rng(0)
        for _ in range(20):
            theta = rng.normal(scale=2.0, size=10)
            data_counts = counts.worlds[int(rng.integers(0, counts.worlds.shape[0]))]
            value, grad, hessian_at = _nll_grad_hessian(counts, data_counts, theta)
            hessian = hessian_at()
            want_value, want_grad, want_hessian = dense_nll_grad_hessian(
                counts.worlds, data_counts, theta
            )
            assert value == want_value
            assert np.array_equal(grad, want_grad)
            assert np.array_equal(hessian, want_hessian)

    @pytest.mark.parametrize(
        "config",
        [
            LearnConfig(),
            LearnConfig(regularizer="l1", lam=1.0),
            LearnConfig(regularizer="l2", lam=1.0),
            LearnConfig(da=True),
        ],
        ids=["none", "l1", "l2", "da"],
    )
    def test_learned_smokers_weights_equal_the_dense_objective_bit_for_bit(
        self, config, monkeypatch
    ):
        model = normalize_distinct(parse_mln(FRIENDS_SMOKERS_MLN))
        for data in smokers_training_worlds(3, (0, 1)):
            fast = learn(model, data, config)
            calls = []

            def counted_dense_objective(*args):
                calls.append(None)
                return dense_objective(*args)

            with monkeypatch.context() as m:
                # The optimizer without its memo, so the oracle fit really runs.
                m.setattr(learning, "_fit", learning._fit.__wrapped__)
                m.setattr(learning, "_nll_grad_hessian", counted_dense_objective)
                m.setattr(learning, "_nll", lambda c, d, t: dense_nll(c.worlds, d, t))
                slow = learn(model, data, config)
            assert len(calls) >= slow.iterations
            assert np.array_equal(fast.weights, slow.weights)
            assert (fast.iterations, fast.objective) == (slow.iterations, slow.objective)


def synthetic_counts(rng, k: int, n_worlds: int, n_rows: int) -> _Counts:
    """A count table of random small counts, padded as ``_counts_cached`` pads."""
    rows = rng.integers(0, 12, size=(n_rows, k)).astype(np.float64)
    inverse = rng.permutation(np.arange(n_worlds) % n_rows)
    pad = np.minimum(np.arange(-(-n_rows // 4) * 4), n_rows - 1)
    log_mult = np.log(np.bincount(inverse, minlength=n_rows)[pad])
    log_mult[n_rows:] = -np.inf
    return _Counts(rows[inverse], rows[pad], log_mult, inverse)


class TestHessianOperand:
    """The Hessian's left operand is world-major, so its product is the dense
    reference's own BLAS call. A clause-major operand takes another BLAS
    kernel, which was measured to round differently at some widths."""

    @pytest.mark.parametrize("k", [*range(1, 13), 16, 17, 24, 40])
    def test_matches_the_dense_product_bit_for_bit(self, k):
        rng = np.random.default_rng(k)
        for n_worlds in (8, 64, 1000, 4096, 1 << 14):
            counts = synthetic_counts(rng, k, n_worlds, min(n_worlds, 50))
            theta = rng.normal(scale=0.3, size=k)
            data_counts = counts.worlds[int(rng.integers(0, n_worlds))]
            buf = np.empty_like(counts.worlds)
            value, grad, hessian_at = _nll_grad_hessian(counts, data_counts, theta, buf)
            want_value, want_grad, want_hessian = dense_nll_grad_hessian(
                counts.worlds, data_counts, theta
            )
            assert value == want_value
            assert np.array_equal(grad, want_grad)
            assert np.array_equal(hessian_at(), want_hessian)


def multiply_moments(counts, theta, buf=None):
    """``learning._moments`` with the Hessian operand filled by scaling every
    world's counts by its probability, the plain dense fill."""
    logw = counts.rows @ theta
    shift = logw.max()
    w = np.take(np.exp(logw - shift), counts.inverse)
    z = w.sum()
    p = np.divide(w, z, out=w)
    expected = p @ counts.worlds

    def covariance():
        weighted = np.multiply(counts.worlds, p[:, None], out=buf)
        return weighted.T @ counts.worlds - np.outer(expected, expected)

    return shift + math.log(z), expected, covariance


JACOBIANS = {
    "plain": LearnConfig(),
    "da": LearnConfig(da=True),
    "tied": LearnConfig(tie_split_weights=True),
    "da_tied": LearnConfig(da=True, tie_split_weights=True),
}


class TestRowGatherOperand:
    """The Hessian operand is gathered from per-row probability-weighted
    counts, which equals the world-by-world product only while every table's
    worlds are its rows gathered by ``inverse``."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 3),
        ternary=st.booleans(),
        jacobian=st.sampled_from(sorted(JACOBIANS)),
    )
    def test_projected_tables_match_their_dense_objective_bit_for_bit(
        self, seed, n, ternary, jacobian
    ):
        rng = np.random.default_rng(seed)
        model = normalize_distinct(random_raw_model(rng, include_ternary_clause=ternary))
        spec = DomainSpec({model.signature.types[0][0]: n})
        _, jac = _parameter_map(model, spec, JACOBIANS[jacobian])
        counts = _counts_for(model, AtomIndex(model.signature, spec), LEARN_MAX_ATOMS)
        projected = counts.project(jac)
        assert np.array_equal(projected.rows[projected.inverse], projected.worlds)
        data_counts = projected.worlds[int(rng.integers(0, projected.worlds.shape[0]))]
        theta = rng.uniform(-2.0, 2.0, size=jac.shape[1])
        buf = np.empty_like(projected.worlds)
        value, grad, hessian_at = _nll_grad_hessian(projected, data_counts, theta, buf)
        want_value, want_grad, want_hessian = dense_nll_grad_hessian(
            projected.worlds, data_counts, theta
        )
        assert value == want_value
        assert np.array_equal(grad, want_grad)
        assert np.array_equal(hessian_at(), want_hessian)

    def test_every_table_holds_its_rows_gathered(self, monkeypatch):
        tables = []
        cached, project = learning._counts_cached, _Counts.project

        def recorded(method):
            def wrapper(*args):
                tables.append(method(*args))
                return tables[-1]

            return wrapper

        monkeypatch.setattr(learning, "_counts_cached", recorded(cached))
        monkeypatch.setattr(_Counts, "project", recorded(project))
        cached.cache_clear()
        learning._fit.cache_clear()  # fits must run, so that they project
        for text in (FRIENDS_SMOKERS_MLN, TEN_CLAUSE_TEXT):
            model = normalize_distinct(parse_mln(text))
            spec = DomainSpec({model.signature.types[0][0]: 2})
            data = World(AtomIndex(model.signature, spec), 5)
            for config in (*JACOBIANS.values(), LearnConfig(regularizer="l1", lam=0.3)):
                learn(model, data, config)
        kinds = {(t.rows.shape[1], t.worlds.shape[0]) for t in tables}
        assert len(tables) >= 8 and len(kinds) >= 4
        for table in tables:
            assert np.array_equal(table.rows[table.inverse], table.worlds)

    @pytest.mark.parametrize(
        "inverse",
        [
            np.arange(15) % 5,  # one world short
            np.append(np.arange(15) % 5, -1),
            np.append(np.arange(15) % 5, 5),  # the first padding row
            np.append(np.arange(15) % 5, 8),  # past every row
        ],
        ids=["short", "negative", "padding", "past_the_rows"],
    )
    def test_an_inverse_outside_the_distinct_rows_is_rejected(self, inverse):
        rows = np.arange(40, dtype=np.float64).reshape(8, 5)
        log_mult = np.log(np.array([4, 3, 3, 3, 3, 1, 1, 1], dtype=np.float64))
        log_mult[5:] = -np.inf
        worlds = rows[np.append(np.arange(15) % 5, 0)]
        assert _Counts(worlds, rows, log_mult, np.append(np.arange(15) % 5, 0)).inverse.size == 16
        with pytest.raises(ValueError, match="inverse"):
            _Counts(worlds, rows, log_mult, inverse)

    def test_an_experiment_equals_one_with_the_multiplied_operand(self, monkeypatch):
        from mlnexact.experiment import ExperimentConfig, rows_to_csv, run_experiment

        cfg = ExperimentConfig(train_sets=1, target_sizes=(3,), target_replicates=2, seed=7)
        calls = []

        def run():
            learning._fit.cache_clear()
            learning._counts_cached.cache_clear()
            rows, models = run_experiment(cfg)
            weights = {k: np.array(m.weights()).tobytes() for k, m in models.items()}
            return rows_to_csv(rows, "t"), weights

        got = run()
        monkeypatch.setattr(
            learning, "_moments", lambda *args: calls.append(None) or multiply_moments(*args)
        )
        want = run()
        assert len(calls) > 50
        assert got[0] == want[0]
        assert got[1] == want[1] and len(got[1]) >= 4


class TestZeroWeights:
    """Every fit starts at zero weights, where the objective's moments do not
    depend on the data: one evaluation in the table's memo serves every fit."""

    @pytest.fixture
    def zero_evaluations(self, monkeypatch):
        """The count tables ``_moments`` has evaluated at zero weights."""
        calls = []
        moments = learning._moments

        def counted(counts, theta, buf=None):
            if not theta.any():
                calls.append(counts)
            return moments(counts, theta, buf)

        monkeypatch.setattr(learning, "_moments", counted)
        return calls

    def test_one_evaluation_serves_fits_of_every_penalty_and_data(self, zero_evaluations):
        model = smokers_model()
        spec, index, data = smokers_data(model)
        learning._counts_cached.cache_clear()
        others = [
            World.from_true_atoms(index, [("S", (1,)), ("S", (2,)), ("F", (1, 2))]),
            World.from_true_atoms(index, [("F", (1, 2)), ("F", (2, 1)), ("S", (3,))]),
        ]
        configs = [
            LearnConfig(),
            LearnConfig(regularizer="l1", lam=0.3),
            LearnConfig(regularizer="l2", lam=0.3),
        ]
        counts = _counts_for(model, index, LEARN_MAX_ATOMS)
        assert len({counts.worlds[w.bits].tobytes() for w in [data, *others]}) == 3
        fits = [learn(model, w, c) for w, c in zip([data, *others], configs)]
        assert learning._fit.cache_info().misses == 3
        assert all(f.iterations > 1 for f in fits)  # each one took a step from zero
        assert len(zero_evaluations) == 1 and zero_evaluations[0] is counts

    @pytest.mark.parametrize("text", [None, TEN_CLAUSE_TEXT], ids=["smokers", "ten_clauses"])
    def test_equals_the_dense_oracle_bit_for_bit(self, text):
        model = smokers_model() if text is None else normalize_distinct(parse_mln(text))
        index = AtomIndex(model.signature, DomainSpec({"p": 3 if text is None else 2}))
        counts = _counts_for(model, index, LEARN_MAX_ATOMS)
        zero = np.zeros(counts.rows.shape[1])
        rng = np.random.default_rng(2)
        for bits in rng.integers(0, counts.worlds.shape[0], size=4):
            data_counts = counts.worlds[int(bits)]
            value, grad, hessian_at = _nll_grad_hessian(counts, data_counts, zero)
            want_value, want_grad, want_hessian = dense_nll_grad_hessian(
                counts.worlds, data_counts, zero
            )
            assert value == want_value
            assert np.array_equal(grad, want_grad)
            assert np.array_equal(hessian_at(), want_hessian)
            assert hessian_at() is counts.moments(zero)[2]()
        _, expected, hessian_at = counts.moments(zero)
        assert not expected.flags.writeable and not hessian_at().flags.writeable

    def test_the_first_evaluation_fills_the_callers_buffer(self):
        # The Hessian operand goes into the fit's buffer, so the step at zero
        # holds no more memory than any other step.
        counts = synthetic_counts(np.random.default_rng(3), 5, 1 << 10, 40)
        buf = np.full_like(counts.worlds, np.nan)
        _, _, hessian_at = _nll_grad_hessian(counts, counts.worlds[0], np.zeros(5), buf)
        hessian_at()
        assert np.array_equal(buf, counts.worlds / (1 << 10))

    def test_fits_with_one_jacobian_share_one_projection(self, zero_evaluations):
        # DA fits on other data and penalties share the projected table and
        # its zero-weight evaluation; a tied fit's Jacobian gets its own.
        model = smokers_model()
        spec, index, data = smokers_data(model)
        learning._counts_cached.cache_clear()
        counts = _counts_for(model, index, LEARN_MAX_ATOMS)
        _, jac = _parameter_map(model, spec, LearnConfig(da=True))
        _, tied = _parameter_map(model, spec, LearnConfig(tie_split_weights=True))
        assert not np.array_equal(jac, tied)
        assert counts.project(jac) is counts.project(jac.copy())
        assert counts.project(tied) is not counts.project(jac)
        assert np.array_equal(counts.project(tied).worlds, counts.worlds @ tied)
        other = World.from_true_atoms(index, [("S", (1,)), ("S", (2,)), ("F", (1, 2))])
        configs = [LearnConfig(da=True), LearnConfig(da=True, regularizer="l2", lam=0.3)]
        fits = [learn(model, w, c) for w, c in zip([data, other], configs)]
        assert learning._fit.cache_info().misses == 2
        assert all(f.iterations > 1 for f in fits)
        assert zero_evaluations == [counts.project(jac)]

    def test_a_projected_table_has_its_own(self, zero_evaluations):
        model = normalize_distinct(parse_mln(FRIENDS_SMOKERS_MLN))
        spec = DomainSpec({"person": 3})
        index = AtomIndex(model.signature, spec)
        _, jac = _parameter_map(model, spec, LearnConfig(da=True))
        counts = _counts_for(model, index, LEARN_MAX_ATOMS)
        zero = np.zeros(jac.shape[1])
        base = counts.moments(zero)
        projected = counts.project(jac)
        got = projected.moments(zero)
        assert zero_evaluations[-1] is projected
        assert not np.array_equal(got[2](), base[2]())
        data_counts = projected.worlds[5]
        _, want_grad, want_hessian = dense_nll_grad_hessian(projected.worlds, data_counts, zero)
        _, grad, hessian_at = _nll_grad_hessian(projected, data_counts, zero)
        assert np.array_equal(grad, want_grad)
        assert np.array_equal(hessian_at(), want_hessian)


def held_arrays(obj, seen=None) -> list[np.ndarray]:
    """Every array that ``obj`` holds, through containers, closures and objects."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj, *([] if obj.base is None else held_arrays(obj.base, seen))]
    if isinstance(obj, dict):
        children = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    elif callable(obj) and getattr(obj, "__closure__", None):
        children = []
        for cell in obj.__closure__:
            try:
                children.append(cell.cell_contents)
            except ValueError:  # a cell not yet bound
                pass
    else:
        children = list(getattr(obj, "__dict__", {}).values())
    return [a for child in children for a in held_arrays(child, seen)]


class TestMomentMemo:
    """Each count table keeps its last ``_MEMO_SIZE`` evaluations by the
    weights' bytes: fits that revisit a point read it instead of recomputing."""

    SWEEPS = (
        ("none", LearnConfig()),
        ("l1", LearnConfig()),
        ("l2", LearnConfig()),
        ("l1", LearnConfig(da=True)),
        ("l2", LearnConfig(tie_split_weights=True)),
    )

    @staticmethod
    def sweep_fits(model, train) -> list[LearnResult]:
        """Every fit of the default-grid sweeps, in ``lambda_sweep``'s order,
        run afresh on cold tables."""
        learning._fit.cache_clear()
        learning._counts_cached.cache_clear()
        return [
            learn(model, w, replace(config, regularizer=regularizer, lam=lam))
            for regularizer, config in TestMomentMemo.SWEEPS
            for lam in GRID_DEFAULT
            for w in train
        ]

    # Random models of 6, 5 and 9 clauses after normalization; the last one
    # has fits that end at max_iter.
    @pytest.mark.parametrize(
        "seed, ternary",
        [(None, False), (0, True), (1, False), (4, True)],
        ids=["smokers", "random0", "random1", "random4"],
    )
    def test_fits_equal_fits_without_the_memo(self, seed, ternary, monkeypatch):
        if seed is None:
            model = normalize_distinct(parse_mln(FRIENDS_SMOKERS_MLN))
            train = smokers_training_worlds(3, (0, 1))
        else:
            rng = np.random.default_rng(seed)
            model = normalize_distinct(random_raw_model(rng, include_ternary_clause=ternary))
            spec = DomainSpec({model.signature.types[0][0]: 3})
            index = AtomIndex(model.signature, spec)
            train = [World(index, int(b)) for b in rng.integers(0, 1 << index.n_atoms, size=2)]
        with monkeypatch.context() as m:
            m.setattr(learning, "_MEMO_SIZE", 0)  # every lookup misses
            fresh = self.sweep_fits(model, train)
        memo = self.sweep_fits(model, train)
        assert len(memo) == len(fresh) == len(self.SWEEPS) * len(GRID_DEFAULT) * len(train)
        for got, want in zip(memo, fresh):
            assert got.weights.tobytes() == want.weights.tobytes()
            assert got.trace == want.trace
            assert (got.converged, got.iterations) == (want.converged, want.iterations)
            assert (got.objective, got.model) == (want.objective, want.model)

    @pytest.fixture
    def l1_sweep(self, monkeypatch):
        """A default-grid L1 sweep on one smokers world at n=3, from cold
        tables: its table, its Newton evaluations and its ``_moments`` calls."""
        calls = {"evaluations": 0, "moments": 0}
        nll_grad_hessian, moments = learning._nll_grad_hessian, learning._moments

        def counted(name, f):
            def call(*args):
                calls[name] += 1
                return f(*args)

            return call

        monkeypatch.setattr(learning, "_nll_grad_hessian", counted("evaluations", nll_grad_hessian))
        monkeypatch.setattr(learning, "_moments", counted("moments", moments))
        learning._counts_cached.cache_clear()
        model = normalize_distinct(parse_mln(FRIENDS_SMOKERS_MLN))
        (data,) = smokers_training_worlds(3, (0,))
        lambda_sweep(model, [data], [data], "l1")
        counts = _counts_for(model, data.index, LEARN_MAX_ATOMS)
        return counts, calls

    def test_a_sweep_shares_its_evaluations(self, l1_sweep):
        # Without the memo, the 9 fits' 132 evaluations took 124 calls: all
        # but the 8 repeats of the zero point.
        counts, calls = l1_sweep
        assert calls == {"evaluations": 132, "moments": 68}
        assert 0 < len(counts._memo) <= learning._MEMO_SIZE

    def test_entries_hold_no_per_world_array(self, l1_sweep):
        counts, _ = l1_sweep
        k = counts.rows.shape[1]
        arrays = held_arrays(counts._memo)
        assert len(arrays) >= len(counts._memo)
        for a in arrays:
            assert a.size <= k * k and not a.flags.writeable

    def test_memo_is_bounded(self):
        counts = synthetic_counts(np.random.default_rng(4), 3, 64, 10)
        for i in range(learning._MEMO_SIZE + 5):
            counts.moments(np.full(3, float(i)))
        assert len(counts._memo) == learning._MEMO_SIZE
        # The oldest points went first; a lookup makes a point the newest.
        assert np.full(3, 5.0).tobytes() == next(iter(counts._memo))
        counts.moments(np.full(3, 5.0))
        counts.moments(np.full(3, -1.0))
        assert np.full(3, 5.0).tobytes() in counts._memo
        assert np.full(3, 6.0).tobytes() not in counts._memo


class TestLearnConfig:
    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("lam", math.nan),
            ("lam", math.inf),
            ("lam", -0.5),
            ("tol", math.nan),
            ("tol", -1e-9),
            ("max_iter", 0),
        ],
    )
    def test_values_no_fit_can_use_name_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            LearnConfig(**{field: value})

    def test_edge_values_are_accepted(self):
        LearnConfig(lam=0.0, tol=0.0, max_iter=1)


class TestLearn:
    def test_unregularized_reaches_stationarity(self):
        model = smokers_model()
        spec, _, data = smokers_data(model)
        result = learn(model, data, LearnConfig(max_iter=500))
        assert result.converged
        assert result.trace[-1].grad_norm <= 1e-6

    def test_objective_monotone(self):
        model = smokers_model()
        spec, _, data = smokers_data(model)
        for reg, lam in (("none", 0.0), ("l1", 0.3), ("l2", 0.3)):
            result = learn(model, data, LearnConfig(regularizer=reg, lam=lam))
            objective = [t.neg_log_likelihood + t.penalty for t in result.trace]
            assert all(b <= a + 1e-9 for a, b in zip(objective, objective[1:]))

    def test_huge_l1_zeroes_higher_arity_weights_exactly(self):
        model = smokers_model()
        spec, _, data = smokers_data(model)
        result = learn(model, data, LearnConfig(regularizer="l1", lam=1e6))
        assert result.converged
        for clause, w in zip(result.model.clauses, result.weights):
            if clause.formula.arity > 1:
                assert w == 0.0

    def test_l2_shrinks_higher_arity_weights(self):
        model = smokers_model()
        spec, _, data = smokers_data(model)
        free = learn(model, data, LearnConfig())
        shrunk = learn(model, data, LearnConfig(regularizer="l2", lam=1.0))
        for clause, w0, w1 in zip(model.clauses, free.weights, shrunk.weights):
            if clause.formula.arity > 1:
                assert abs(w1) <= abs(w0) + 1e-9

    def test_l2_shrinkage_monotone_in_lambda(self):
        model = smokers_model()
        spec, _, data = smokers_data(model)
        mask = np.array([c.formula.arity > 1 for c in model.clauses])
        previous = math.inf
        for lam in (0.1, 1.0, 10.0):
            result = learn(model, data, LearnConfig(regularizer="l2", lam=lam))
            assert result.converged
            current = float((np.array(result.weights)[mask] ** 2).sum())
            assert current <= previous + 1e-9
            previous = current

    def test_unary_weights_never_penalized(self):
        model = normalize_distinct(parse_mln("type p = 3\npredicate S(p)\n0 S(x)"))
        spec = DomainSpec({"p": 3})
        index = AtomIndex(model.signature, spec)
        data = World.from_true_atoms(index, [("S", (1,)), ("S", (2,))])
        free = learn(model, data, LearnConfig())
        l1 = learn(model, data, LearnConfig(regularizer="l1", lam=1e3))
        assert l1.weights == pytest.approx(free.weights, abs=1e-5)

    def test_non_convergence_flagged(self):
        model = smokers_model()
        spec, _, data = smokers_data(model)
        result = learn(model, data, LearnConfig(max_iter=1))
        assert not result.converged
        assert result.iterations == 1

    def test_tied_split_weights_share_values(self):
        model = normalize_distinct(parse_mln("type p = 3\npredicate R(p,p)\n0 R(x,y)"))
        spec = DomainSpec({"p": 3})
        index = AtomIndex(model.signature, spec)
        data = World.from_true_atoms(
            index, [("R", (1, 1)), ("R", (2, 2)), ("R", (1, 2)), ("R", (2, 1))]
        )
        result = learn(model, data, LearnConfig(tie_split_weights=True))
        origins = [c.origin for c in result.model.clauses]
        assert origins == [0, 0]
        assert result.weights[0] == pytest.approx(result.weights[1])
        untied = learn(model, data, LearnConfig())
        assert abs(untied.weights[0] - untied.weights[1]) > 1e-3


def newton_pin_fits() -> list[tuple[int, LearnResult]]:
    """``(max_iter, fit)`` for fits that end at ``max_iter``, at convergence
    and at a line-search stall."""
    model = normalize_distinct(parse_mln(FRIENDS_SMOKERS_MLN))
    (data,) = smokers_training_worlds(3, [0])
    configs = [
        LearnConfig(max_iter=max_iter, **options)
        for options in ({}, dict(regularizer="l1", lam=0.3, da=True, tie_split_weights=True),
                        dict(regularizer="l2", lam=0.5))
        for max_iter in (1, 2, 5, 500)
    ]
    fits = [(c.max_iter, learn(model, data, c)) for c in configs]
    # The one fit of a sweep over random models whose line search stalls.
    stall = random_raw_model(np.random.default_rng(1), include_ternary_clause=True)
    index = AtomIndex(stall.signature, DomainSpec({"t": 3}))
    config = LearnConfig(regularizer="l1", lam=0.3, da=True)
    fits.append((config.max_iter, learn(stall, World(index, 0), config)))
    return fits


class TestNewtonLoop:
    # sha256 of every pinned fit's weights, converged flag, iteration count
    # and trace, recorded before the loop was rewritten.
    PINNED = "1dd98bb866dd64ae524625b240a693df008826f9218d7ebc46aea88163b6d497"

    def test_fits_keep_their_bytes(self):
        digest = hashlib.sha256()
        for _, fit in newton_pin_fits():
            digest.update(fit.weights.tobytes())
            digest.update(bytes([fit.converged]) + fit.iterations.to_bytes(4, "little"))
            digest.update(np.array([astuple(t) for t in fit.trace]).tobytes())
        assert digest.hexdigest() == self.PINNED

    def test_fits_end_every_way(self):
        *smokers, (_, stall) = newton_pin_fits()
        for max_iter, fit in smokers:
            assert fit.converged == (max_iter == 500)
            assert fit.converged or fit.iterations == max_iter
        assert (stall.converged, stall.iterations) == (False, 17)

    def test_a_fit_ending_at_max_iter_records_the_last_iterate(self):
        for max_iter, fit in newton_pin_fits():
            at_max_iter = not fit.converged and fit.iterations == max_iter
            assert len(fit.trace) == fit.iterations + at_max_iter


class TestFitMemo:
    """Fits are shared by the data's count vector; a hit must be a fresh fit."""

    @pytest.fixture
    def misses(self):
        """The optimizer runs since the memo was last emptied."""
        return lambda: learning._fit.cache_info().misses

    def test_worlds_with_equal_count_vectors_share_one_fit(self, misses):
        model = smokers_model()
        spec, index, data = smokers_data(model)
        # The same world with its constants relabelled 1 -> 2 -> 3 -> 1.
        relabelled = World.from_true_atoms(index, [("S", (2,)), ("F", (2, 3)), ("F", (3, 1))])
        counts = _counts_for(model, index, LEARN_MAX_ATOMS)
        assert data.bits != relabelled.bits
        assert np.array_equal(counts.worlds[data.bits], counts.worlds[relabelled.bits])
        first = learn(model, data)
        assert misses() == 1
        second = learn(model, relabelled)
        assert misses() == 1
        assert first.weights.tobytes() == second.weights.tobytes()

    @pytest.mark.parametrize(
        "config",
        [LearnConfig(), LearnConfig(regularizer="l1", lam=0.3), LearnConfig(da=True)],
        ids=["none", "l1", "da"],
    )
    def test_hit_equals_a_fresh_fit(self, config, misses):
        model = smokers_model()
        spec, _, data = smokers_data(model)
        learn(model, data, config)
        hit = learn(model, data, config)
        assert learning._fit.cache_info().hits == 1
        learning._fit.cache_clear()
        fresh = learn(model, data, config)
        assert misses() == 1  # emptying the memo also resets its counts
        assert hit.weights.tobytes() == fresh.weights.tobytes()
        assert hit.iterations == fresh.iterations
        assert hit.trace == fresh.trace
        assert hit.objective == fresh.objective
        assert hit.converged == fresh.converged
        assert hit.model == fresh.model

    def test_clause_origins_are_part_of_the_key(self, misses):
        shared = normalize_distinct(parse_mln("type p = 3\npredicate R(p,p)\n0 R(x,y)"))
        separate = replace(
            shared, clauses=tuple(replace(c, origin=i) for i, c in enumerate(shared.clauses))
        )
        assert shared == separate  # Clause equality ignores origins
        spec = DomainSpec({"p": 3})
        index = AtomIndex(shared.signature, spec)
        data = World.from_true_atoms(
            index, [("R", (1, 1)), ("R", (2, 2)), ("R", (1, 2)), ("R", (2, 1))]
        )
        config = LearnConfig(tie_split_weights=True)
        tied = learn(shared, data, config)
        untied = learn(separate, data, config)
        assert misses() == 2
        assert tied.weights[0] == tied.weights[1]
        assert abs(untied.weights[0] - untied.weights[1]) > 1e-3

    def test_an_unused_predicate_changes_the_key(self, misses):
        text = "type p = 3\npredicate S(p)\npredicate F(p,p)\n{}0 S(x)\n0 F(x,y) ^ S(x) => S(y)"
        plain = normalize_distinct(parse_mln(text.format("")))
        wider = normalize_distinct(parse_mln(text.format("predicate Q(p)\n")))
        assert plain.formulas() == wider.formulas()
        spec, _, data = smokers_data(plain)
        wide_data = World.from_true_atoms(
            AtomIndex(wider.signature, spec), [("S", (1,)), ("F", (1, 2)), ("F", (2, 3))]
        )
        small = learn(plain, data)
        wide = learn(wider, wide_data)
        assert misses() == 2
        # Three free Q atoms double the partition function three times.
        assert wide.objective == pytest.approx(small.objective + 3 * math.log(2), abs=1e-9)

    def test_returned_weights_are_the_callers_own(self):
        model = smokers_model()
        spec, _, data = smokers_data(model)
        first = learn(model, data)
        want = first.weights.tobytes()
        first.weights[:] = 99.0
        again = learn(model, data)
        assert again.weights.tobytes() == want
        assert again.weights is not first.weights

    def test_a_warm_memo_keeps_the_guard(self):
        model = smokers_model()
        spec, index, data = smokers_data(model)
        learn(model, data)
        with pytest.raises(DomainTooLargeError):
            learn(model, data, LearnConfig(max_atoms=index.n_atoms - 1))

    def test_memo_is_bounded(self):
        assert learning._fit.cache_info().maxsize == 1024


class TestDomainAwareTraining:
    def test_da_learn_scales_objective(self):
        model = smokers_model()
        spec, _, data = smokers_data(model)
        plain = learn(model, data, LearnConfig())
        scaled = learn(model, data, LearnConfig(da=True))
        # same optimum in effective-weight space: equal likelihood, and the
        # scaled raw parameter is the plain one times its factor (skipping the
        # collapsed tautology clause, whose weight is unidentifiable)
        assert scaled.trace[-1].neg_log_likelihood == pytest.approx(
            plain.trace[-1].neg_log_likelihood, abs=1e-8
        )
        factors = da_scale_factors(model, dict(spec.sizes))
        assert factors == (1.0, 1.0, 3.0)
        assert scaled.weights[0] == pytest.approx(plain.weights[0], abs=1e-4)
        assert scaled.weights[2] / 3.0 == pytest.approx(plain.weights[2], abs=1e-4)

    def test_da_sweep_scores_at_the_target_factors(self):
        model = smokers_model()
        _, _, data = smokers_data(model)
        world = World(AtomIndex(model.signature, DomainSpec({"p": 4})), 12345)
        config = LearnConfig(da=True)
        sweep = lambda_sweep(model, [data], [world], "l2", grid=[0.5], config=config)
        scaled = apply_da_scaling(sweep.fits[0].model, {"p": 4})
        expected = log_probability(scaled, world)
        assert sweep.entries[0].mean_target_ll == pytest.approx(expected, abs=1e-12)


class TestTargetEvaluation:
    def test_same_spec_equals_training_likelihood(self):
        model = smokers_model().with_weights([0.3, -0.2, 0.5])
        spec, index, data = smokers_data(model)
        assert target_log_likelihoods(model, [data])[0] == pytest.approx(
            log_probability(model, data)
        )

    def test_zero_weights_uniform(self):
        model = smokers_model()
        spec4 = DomainSpec({"p": 4})
        index4 = AtomIndex(model.signature, spec4)
        assert target_log_likelihoods(model, [World(index4, 99)])[0] == pytest.approx(
            -index4.n_atoms * math.log(2)
        )

    def test_batch_shares_partition(self):
        model = smokers_model().with_weights([0.3, -0.2, 0.5])
        spec, index, _ = smokers_data(model)
        worlds = [World(index, b) for b in (0, 5, 77)]
        batch = target_log_likelihoods(model, worlds)
        singles = [target_log_likelihoods(model, [w])[0] for w in worlds]
        assert batch == pytest.approx(singles)


class TestMarginalObjective:
    def test_matches_marginal_vector(self):
        model = smokers_model().with_weights([0.4, 0.2, -0.3])
        split = DomainSpec({"p": 3}, split_type="p", split_at=2)
        sub_index, logs = marginal_log_probs(model, split)
        data = World(sub_index, 9)
        assert log_marginal(model, split, data) == pytest.approx(logs[9])

    def test_transfer_bound_on_learned_weights(self):
        """Learned weights still satisfy the cross-size likelihood transfer bound."""
        model = smokers_model()
        spec2 = DomainSpec({"p": 2})
        index2 = AtomIndex(model.signature, spec2)
        data = World.from_true_atoms(index2, [("S", (1,)), ("F", (1, 2))])
        result = learn(model, data, LearnConfig(regularizer="l2", lam=0.5))
        learned = result.model
        split = DomainSpec({"p": 4}, split_type="p", split_at=2)
        neg_marginal = -log_marginal(learned, split, data)
        neg_direct = -log_probability(learned, data)
        assert neg_marginal <= neg_direct + log_spread(learned, 2, 2) + 1e-9


class TestLambdaSweep:
    def test_single_point_grid(self):
        model = smokers_model()
        spec, index, data = smokers_data(model)
        sweep = lambda_sweep(model, [data], [data], "l2", grid=[0.5])
        assert sweep.best_lam == 0.5
        assert len(sweep.entries) == 1

    def test_kept_fit_equals_a_fresh_fit_at_the_best_lambda(self):
        model = smokers_model()
        spec, _, data = smokers_data(model)
        for reg in ("l1", "l2"):
            sweep = lambda_sweep(model, [data], [data], reg, grid=[0.1, 1.0, 10.0])
            (kept,) = sweep.fits
            learning._fit.cache_clear()  # a real refit, not the sweep's memoized one
            fresh = learn(model, data, LearnConfig(regularizer=reg, lam=sweep.best_lam))
            assert kept.weights.tobytes() == fresh.weights.tobytes()
            assert kept.trace == fresh.trace
            assert (kept.converged, kept.iterations) == (fresh.converged, fresh.iterations)

    def test_default_grid_is_nine_log_spaced_points(self):
        assert len(GRID_DEFAULT) == 9
        assert GRID_DEFAULT[0] == pytest.approx(1e-2)
        assert GRID_DEFAULT[-1] == pytest.approx(1e2)
        ratios = [GRID_DEFAULT[i + 1] / GRID_DEFAULT[i] for i in range(8)]
        assert all(r == pytest.approx(ratios[0]) for r in ratios)

    def test_validating_on_training_world_prefers_least_regularization(self):
        model = smokers_model()
        spec, index, _ = smokers_data(model)
        # interior counts so the unregularized optimum is finite and strict
        data = World.from_true_atoms(
            index, [("S", (1,)), ("F", (1, 2)), ("F", (2, 1)), ("F", (3, 1))]
        )
        sweep = lambda_sweep(model, [data], [data], "l2")
        assert sweep.best_lam == GRID_DEFAULT[0]
        scores = [e.mean_target_ll for e in sweep.entries]
        assert all(b <= a + 1e-12 for a, b in zip(scores, scores[1:]))

    def test_ties_break_toward_larger_lambda(self, unary_model):
        # penalties never bind on a unary-only model: all scores equal
        model = normalize_distinct(unary_model)
        spec = DomainSpec({"item": 3})
        index = AtomIndex(model.signature, spec)
        data = World(index, 21)
        sweep = lambda_sweep(model, [data], [data], "l1", grid=[0.1, 1.0, 10.0])
        assert sweep.best_lam == 10.0

    def test_empty_grid_rejected(self):
        model = smokers_model()
        spec, _, data = smokers_data(model)
        with pytest.raises(ValueError, match="empty"):
            lambda_sweep(model, [data], [data], "l1", grid=[])

    def test_no_training_worlds_rejected(self):
        model = smokers_model()
        spec, _, data = smokers_data(model)
        with pytest.raises(ValueError, match="training"):
            lambda_sweep(model, [], [data], "l1", grid=[0.1, 1.0])

    def test_no_target_worlds_rejected(self):
        model = smokers_model()
        spec, _, data = smokers_data(model)
        with pytest.raises(ValueError, match="target"):
            lambda_sweep(model, [data], [], "l1", grid=[0.1, 1.0])


class TestSpreadReduction:
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_regularization_never_grows_spread(self, seed):
        from mlnexact.datagen import SampleSpec, db_to_world, domain_spec_for
        from mlnexact.datagen import generate_friends_smokers, subsample
        from mlnexact.experiment import load_experiment_model, ExperimentConfig

        model = load_experiment_model(ExperimentConfig())
        db = subsample(generate_friends_smokers(10, 50 + seed), SampleSpec("person", 3, seed))
        data = db_to_world(db, domain_spec_for(db))
        free = learn(model, data, LearnConfig(max_iter=2000))
        assert free.converged
        reference = log_spread(free.model, 3, 1)
        for reg in ("l1", "l2"):
            config = LearnConfig(max_iter=2000)
            best = lambda_sweep(model, [data], [data], reg, config=config).best_lam
            reg_result = learn(model, data, LearnConfig(regularizer=reg, lam=best, max_iter=2000))
            assert reg_result.converged
            assert log_spread(reg_result.model, 3, 1) <= reference + 1e-9
        da_result = learn(model, data, LearnConfig(da=True, max_iter=2000))
        effective = apply_da_scaling(da_result.model, {"person": 4})
        assert log_spread(effective, 3, 1) <= log_spread(da_result.model, 3, 1) + 1e-9
