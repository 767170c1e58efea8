"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Shared session fixtures keep the expensive artifacts (the 50-model bound
reports and the double-run experiment pipeline) computed once.
"""

import numpy as np
import pytest

from mlnexact import learning
from mlnexact.bounds import log_spread, verify_all
from mlnexact.experiment import (
    ExperimentConfig,
    rows_to_csv,
    run_experiment,
    write_outputs,
)
from mlnexact.learning import gradient
from mlnexact.logic import normalize_distinct, parse_mln
from mlnexact.model import (
    apply_da_scaling,
    dense_log_weights,
    log_partition,
    log_probability,
    marginal_log_probs,
    max_split_factorization_error,
    max_tuple_factorization_error,
)
from mlnexact.worlds import AtomIndex, DomainSpec, World

from _oracles import fd_gradient, raw_log_probs, weight_sandwich_slacks
from conftest import EXAMPLE2_TEXT, EXAMPLE3_TEXT, TRIANGLE_TEXT, random_raw_model

TOL = 1e-9


def conclude(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number:02d} {status}: {name}{suffix}")
    assert ok, f"criterion {number} ({name}) failed {suffix}"


@pytest.fixture(scope="session")
def models_50():
    rng = np.random.default_rng(20240817)
    return [normalize_distinct(random_raw_model(rng)) for _ in range(50)]


@pytest.fixture(scope="session")
def reports_50(models_50):
    return [verify_all(m, 2, 2, tol=TOL) for m in models_50]


@pytest.fixture(scope="session")
def special_reports():
    triangle = parse_mln(TRIANGLE_TEXT)
    contagion = parse_mln(EXAMPLE2_TEXT)
    return {
        "triangle": verify_all(triangle, 2, 2, tol=TOL),
        "contagion": verify_all(contagion, 2, 2, tol=TOL),
    }


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    cfg = ExperimentConfig(
        train_sets=20,
        train_population=10,
        train_size=3,
        target_sizes=(3, 4),
        target_replicates=5,
        seed=7,
        out=str(tmp_path_factory.mktemp("acceptance") / "results"),
    )
    rows_a, models_a = run_experiment(cfg)
    write_outputs(cfg, rows_a, models_a)
    learning._fit.cache_clear()  # the rerun fits afresh
    rows_b, _ = run_experiment(cfg)
    csv_a = rows_to_csv(rows_a, timestamp="fixed")
    csv_b = rows_to_csv(rows_b, timestamp="fixed")
    return cfg, rows_a, models_a, csv_a, csv_b


def test_criterion_01_factorization_identities(models_50):
    worst_tuple = max(max_tuple_factorization_error(m, 3) for m in models_50)
    worst_split = max(max_split_factorization_error(m, 2, 2) for m in models_50)
    conclude(
        1,
        "weight factorization identities over all worlds",
        worst_tuple <= TOL and worst_split <= TOL,
        f"worst tuple gap {worst_tuple:.2e}, worst split gap {worst_split:.2e}",
    )


def test_criterion_02_bound_suite(reports_50, special_reports):
    all_reports = reports_50 + list(special_reports.values())
    worst = min(c.worst_slack for r in all_reports for c in r.checks)
    ok = all(r.all_passed for r in all_reports)
    conclude(
        2,
        "bound suite passes on 50 random models plus the triangle and contagion models",
        ok and worst >= -TOL,
        f"{len(all_reports)} reports, worst slack {worst:.2e}",
    )


def test_criterion_03_sandwich_tightness():
    model = normalize_distinct(parse_mln(TRIANGLE_TEXT))
    spec = DomainSpec({"node": 4}, split_type="node", split_at=2)
    index = AtomIndex(model.signature, spec)
    upper, _ = weight_sandwich_slacks(model, 2, 2, World.all_true(index))
    _, lower = weight_sandwich_slacks(model, 2, 2, World.all_false(index))
    conclude(
        3,
        "sandwich bounds tight at the complete and empty worlds",
        abs(upper) <= TOL and abs(lower) <= TOL,
        f"upper slack {upper:.2e}, lower slack {lower:.2e}",
    )


def test_criterion_04_kl_bound_and_projective_looseness(reports_50, special_reports):
    all_reports = reports_50 + list(special_reports.values())
    bound_ok = all(r.kl <= r.cross.log_spread + TOL for r in all_reports)
    projective = verify_all(parse_mln(EXAMPLE3_TEXT), 2, 2, tol=TOL)
    loose_ok = projective.kl <= TOL and projective.cross.log_spread > 1.0
    conclude(
        4,
        "marginal KL below the spread bound; projective fragment shows the bound loose",
        bound_ok and loose_ok,
        f"projective kl {projective.kl:.2e} vs spread {projective.cross.log_spread:.3g}",
    )


def test_criterion_05_unary_models_have_null_spread():
    texts = [
        "type t = 3\npredicate A(t)\n0.9 A(x)",
        "type t = 3\npredicate A(t)\npredicate B(t)\n-1.2 A(x)\n0.4 A(x) => B(x)",
        "type t = 3\npredicate A(t)\npredicate B(t)\n1.5 A(x) <=> B(x)\n-0.7 B(x)",
    ]
    worst_spread = 0.0
    worst_gap = 0.0
    for text in texts:
        model = normalize_distinct(parse_mln(text))
        worst_spread = max(worst_spread, abs(log_spread(model, 2, 1)))
        spec = DomainSpec({"t": 3}, split_type="t", split_at=2)
        sub_index, marginal = marginal_log_probs(model, spec)
        direct = dense_log_weights(model, sub_index) - log_partition(model, index=sub_index)
        worst_gap = max(worst_gap, float(np.abs(marginal - direct).max()))
    conclude(
        5,
        "unary-only models have zero spread and exactly projective marginals",
        worst_spread <= TOL and worst_gap <= TOL,
        f"max spread {worst_spread:.2e}, max marginal gap {worst_gap:.2e}",
    )


def test_criterion_06_gradient_matches_finite_differences():
    rng = np.random.default_rng(901)
    worst = 0.0
    for _ in range(10):
        model = normalize_distinct(random_raw_model(rng))
        tau = model.signature.types[0][0]
        spec = DomainSpec({tau: 3})
        index = AtomIndex(model.signature, spec)
        weights = rng.uniform(-1.5, 1.5, size=len(model.clauses))
        model = model.with_weights(weights)
        data = World(index, int(rng.integers(0, 1 << index.n_atoms)))
        analytic = gradient(model, data)
        numeric = fd_gradient(
            lambda w: log_probability(model.with_weights(w), data), weights, h=1e-5
        )
        worst = max(worst, float(np.abs(analytic - np.array(numeric)).max()))
    conclude(
        6,
        "analytic gradient matches central finite differences",
        worst <= 1e-5,
        f"worst deviation {worst:.2e}",
    )


def test_criterion_07_normalization_preserves_probabilities():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(20):
        raw = random_raw_model(rng, include_ternary_clause=True)
        norm = normalize_distinct(raw)
        tau = raw.signature.types[0][0]
        index = AtomIndex(raw.signature, DomainSpec({tau: 3}))
        oracle = np.array(raw_log_probs(raw, index))
        engine = dense_log_weights(norm, index) - log_partition(norm, index=index)
        worst = max(worst, float(np.abs(engine - oracle).max()))
    conclude(
        7,
        "distinct-constants normalization leaves every world probability unchanged",
        worst <= TOL,
        f"worst log-probability gap {worst:.2e}",
    )


def test_criterion_08_regularization_reduces_spread(pipeline):
    cfg, rows, models, _, _ = pipeline
    spreads = {}
    converged = {}
    for row in rows:
        if row.target_size == 4 and row.replicate == 0:
            spreads[(row.run, row.regularizer)] = row.log_spread
            converged[(row.run, row.regularizer)] = row.converged
    runs = sorted({run for run, _ in spreads})
    assert len(runs) == 20
    reg_ok = sum(
        spreads[(r, "l1")] <= spreads[(r, "none")] + TOL
        and spreads[(r, "l2")] <= spreads[(r, "none")] + TOL
        for r in runs
    )
    da_ok = 0
    for r in runs:
        raw = models[(r, "da")]
        effective = apply_da_scaling(raw, {"person": 4})
        if log_spread(effective, 3, 1) <= log_spread(raw, 3, 1) + TOL:
            da_ok += 1
    all_converged = all(converged.values())
    conclude(
        8,
        "regularization and target scaling never increase the spread (20/20 converged runs)",
        reg_ok == 20 and da_ok == 20 and all_converged,
        f"l1/l2 {reg_ok}/20, da {da_ok}/20, converged={all_converged}",
    )


def test_criterion_09_generalization_direction(pipeline):
    cfg, rows, _, csv_a, csv_b = pipeline
    means = {}
    for method in ("l1", "l2", "da"):
        deltas = [
            r.delta_ll for r in rows if r.regularizer == method and r.target_size == 4
        ]
        assert len(deltas) == 100  # 20 runs x 5 replicates
        means[method] = float(np.mean(deltas))
    reproducible = csv_a == csv_b
    conclude(
        9,
        "some variance-reducing method improves mean target likelihood at the larger size",
        any(v > 0 for v in means.values()) and reproducible,
        "means " + ", ".join(f"{k}={v:+.3f}" for k, v in means.items()),
    )


def test_criterion_10_pipeline_determinism(pipeline):
    _, _, _, csv_a, csv_b = pipeline
    lines_a = [l for l in csv_a.splitlines() if not l.startswith("#")]
    lines_b = [l for l in csv_b.splitlines() if not l.startswith("#")]
    conclude(
        10,
        "rerunning the pipeline with fixed seeds reproduces every CSV cell",
        lines_a == lines_b and len(lines_a) == 1 + 20 * 4 * 2 * 5,
        f"{len(lines_a) - 1} data rows compared",
    )
