import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mlnexact import experiment, learning
from mlnexact.cli import main
from mlnexact.experiment import (
    ExperimentConfig,
    rows_to_csv,
    run_experiment,
    seed_target,
    seed_train_generation,
    target_worlds,
    load_experiment_model,
)
from mlnexact.learning import target_log_likelihoods
from mlnexact.model import dense_log_weights
from mlnexact.worlds import DomainTooLargeError

TINY = dict(train_sets=2, target_sizes=(3,), target_replicates=2, seed=13, out="unused")


class TestPipeline:
    def test_workers_do_not_change_results(self):
        cfg = ExperimentConfig(**TINY)
        rows_seq, models_seq = run_experiment(cfg)
        learning._fit.cache_clear()  # forked workers must fit, not inherit the memo
        rows_par, models_par = run_experiment(dataclasses.replace(cfg, workers=2))
        assert rows_to_csv(rows_seq, "t") == rows_to_csv(rows_par, "t")
        assert models_seq == models_par

    def test_row_grid_is_complete(self):
        cfg = ExperimentConfig(**TINY)
        rows, _ = run_experiment(cfg)
        keys = {(r.run, r.regularizer, r.target_size, r.replicate) for r in rows}
        assert len(rows) == len(keys) == 2 * 4 * 1 * 2
        assert all(r.status == "ok" for r in rows)

    def test_failed_training_sets_become_error_rows(self, tmp_path):
        good = tmp_path / "good.db"
        good.write_text("Smokes(a)\nFriends(a,b)\nCancer(c)\n")
        cfg = ExperimentConfig(
            train_dbs=(str(good), str(tmp_path / "missing.db")),
            target_sizes=(3,),
            target_replicates=1,
            seed=1,
            out="unused",
        )
        rows, _ = run_experiment(cfg)
        by_status = {}
        for r in rows:
            by_status.setdefault(r.run, set()).add(r.status)
        assert by_status[0] == {"ok"}
        assert all(s.startswith("error:") for s in by_status[1])
        assert all(math.isnan(r.target_ll) for r in rows if r.run == 1)

    def test_csv_header_and_error_row_are_pinned(self, tmp_path):
        cfg = ExperimentConfig(
            train_dbs=(str(tmp_path / "missing.db"),),
            target_sizes=(3,),
            target_replicates=1,
            methods=("none",),
            out="unused",
        )
        rows, _ = run_experiment(cfg)
        assert rows_to_csv(rows, "t").splitlines()[2:] == [
            "run,regularizer,lambda,train_size,target_size,replicate,status,"
            "converged,train_ll,target_ll,delta_ll,log_spread",
            "0,none,,3,-1,-1,error:FileNotFoundError,false,nan,nan,nan,nan",
        ]

    def test_all_failed_runs_exit_nonzero(self, tmp_path, capsys):
        code = main(
            [
                "experiment",
                "--out",
                str(tmp_path / "o"),
                "--train-sets",
                "1",
                "--targets",
                "3",
                "--target-replicates",
                "1",
                "--train-size",
                "10",  # the whole population, G=120: learning is past its 2^20 guard
            ]
        )
        assert code == 1

    def test_each_training_set_fits_once_per_method_and_grid_point(self, monkeypatch):
        calls = []
        original = learning.learn

        def counting_learn(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(learning, "learn", counting_learn)
        monkeypatch.setattr(experiment, "learn", counting_learn)
        cfg = ExperimentConfig(**{**TINY, "grid": (0.1, 1.0)})
        run_experiment(cfg)
        # none and da once each; l1 and l2 once per grid point, with no refit.
        assert len(calls) == cfg.train_sets * (2 + 2 * len(cfg.grid))

    def test_seed_schedule_is_injective_across_runs_and_targets(self):
        seen = set()
        for r in range(50):
            seen.add(seed_train_generation(7, r))
        for si in range(3):
            for j in range(10):
                seen.add(seed_target(7, si, j))
        assert len(seen) == 50 + 30


class TestWorkers:
    @pytest.mark.parametrize("workers", [0, -3])
    def test_fewer_than_one_worker_is_rejected(self, workers, tmp_path, capsys):
        with pytest.raises(ValueError, match="workers"):
            ExperimentConfig(**{**TINY, "workers": workers})
        out = tmp_path / "o"
        assert main(["experiment", "--out", str(out), "--workers", str(workers)]) == 2
        assert "workers" in capsys.readouterr().err
        assert not out.exists()

    def test_a_serial_run_loads_no_process_pool(self):
        code = (
            "import sys\n"
            "from mlnexact import cli, experiment\n"
            "experiment.run_experiment(experiment.ExperimentConfig("
            "train_sets=1, target_sizes=(2,), target_replicates=1))\n"
            "assert 'concurrent.futures.process' not in sys.modules\n"
            "assert 'multiprocessing' not in sys.modules\n"
        )
        src = str(Path(experiment.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestModelCheck:
    @pytest.mark.parametrize(
        ("text", "missing"),
        [
            ("type person = 3\npredicate Smokes(person)\n0 Smokes(x)\n", "Cancer(person)"),
            (
                "type person = 3\ntype city = 2\npredicate Smokes(person)\n"
                "predicate Cancer(person)\npredicate Friends(person,city)\n0 Smokes(x)\n",
                "Friends(person,person)",
            ),
        ],
    )
    def test_model_the_target_generator_cannot_fill_is_rejected_before_any_pass(
        self, text, missing, tmp_path, monkeypatch
    ):
        path = tmp_path / "model.mln"
        path.write_text(text)

        def no_pass(*args, **kwargs):
            raise AssertionError("a pass ran before the model check")

        monkeypatch.setattr(experiment, "count_histogram", no_pass)
        monkeypatch.setattr(experiment, "learn", no_pass)
        cfg = ExperimentConfig(**{**TINY, "mln": str(path)})
        with pytest.raises(ValueError, match=re.escape(missing)):
            run_experiment(cfg)

    def test_extra_predicates_and_types_are_allowed(self, tmp_path):
        path = tmp_path / "model.mln"
        path.write_text(
            "type person = 3\ntype city = 2\npredicate Smokes(person)\n"
            "predicate Cancer(person)\npredicate Friends(person,person)\n"
            "predicate Lives(person,city)\n0 Smokes(x) => Cancer(x)\n"
        )
        model = load_experiment_model(ExperimentConfig(mln=str(path)))
        assert model.signature.has_predicate("Lives")
        # The generated target worlds are over the model's signature, Lives
        # all false, so a model with extra predicates scores them.
        db = tmp_path / "train.db"
        db.write_text("Smokes(A)\nCancer(A)\nFriends(A,B)\nLives(A,C1)\n")
        cfg = {**TINY, "mln": str(path), "train_dbs": (str(db),), "methods": ("none", "da")}
        rows, _ = run_experiment(ExperimentConfig(**{**cfg, "target_sizes": (2,)}))
        assert [r.status for r in rows] == ["ok"] * 4

    def test_generated_training_worlds_are_over_the_model_signature(self, tmp_path):
        # The generator knows only the smokers predicates and the person
        # type; the training world takes Lives all false and the model's city
        # count.
        path = tmp_path / "model.mln"
        path.write_text(
            "type person = 3\ntype city = 2\npredicate Smokes(person)\n"
            "predicate Cancer(person)\npredicate Friends(person,person)\n"
            "predicate Lives(person,city)\n0 Smokes(x) => Cancer(x)\n"
        )
        cfg = ExperimentConfig(
            mln=str(path), train_sets=1, train_size=2, train_population=2, target_sizes=(2,)
        )
        model = load_experiment_model(cfg)
        world = experiment.training_world(cfg, model, 0)
        assert world.index.signature == model.signature
        assert world.index.spec.sizes == (("person", 2), ("city", 2))
        rows, _ = run_experiment(cfg)
        assert rows and all(r.status == "ok" for r in rows)


class TestTargetScoring:
    def test_histogram_scoring_matches_dense_summation(self):
        """Target scoring through the cached count histogram matches the
        per-world log weights normalized by direct summation."""
        model = load_experiment_model(ExperimentConfig())
        weights = [0.4, -0.3, 0.7, 0.0, 1.2]
        worlds = target_worlds(ExperimentConfig(**TINY), model)[3]
        scored = model.with_weights(weights)
        per_world = dense_log_weights(scored, worlds[0].index)
        shift = per_world.max()
        log_z = shift + math.log(np.exp(per_world - shift).sum())
        expected = [per_world[w.bits] - log_z for w in worlds]
        cached = target_log_likelihoods(scored, worlds)
        assert cached == pytest.approx(expected, abs=1e-12)
        direct = [target_log_likelihoods(scored, [w])[0] for w in worlds]
        assert cached == pytest.approx(direct, abs=1e-12)

    def test_target_over_the_guard_fails_before_any_run(self):
        # Smokers at n=5 has 35 ground atoms, over the default guard of 28.
        cfg = ExperimentConfig(**{**TINY, "train_sets": 1, "target_sizes": (5,)})
        with pytest.raises(DomainTooLargeError):
            run_experiment(cfg)
