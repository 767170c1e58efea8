import dataclasses
import math

import numpy as np
import pytest

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
from mlnexact.learning import evaluate_target, target_log_likelihoods
from mlnexact.model import dense_log_weights
from mlnexact.worlds import DomainSpec, DomainTooLargeError

TINY = dict(train_sets=2, target_sizes=(3,), target_replicates=2, seed=13, out="unused")


class TestPipeline:
    def test_workers_do_not_change_results(self):
        cfg = ExperimentConfig(**TINY)
        rows_seq, models_seq = run_experiment(cfg)
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
                "99",  # larger than the generated population: every run fails
            ]
        )
        assert code == 1

    def test_seed_schedule_is_injective_across_runs_and_targets(self):
        seen = set()
        for r in range(50):
            seen.add(seed_train_generation(7, r))
        for si in range(3):
            for j in range(10):
                seen.add(seed_target(7, si, j))
        assert len(seen) == 50 + 30


class TestSizeEvaluator:
    def test_cached_and_streaming_paths_agree(self):
        """Target scoring through the cached count histogram matches the
        per-world log weights normalized by direct summation."""
        model = load_experiment_model(ExperimentConfig())
        spec = DomainSpec({"person": 3})
        weights = [0.4, -0.3, 0.7, 0.0, 1.2]
        worlds = target_worlds(ExperimentConfig(**TINY), model)[3]
        scored = model.with_weights(weights)
        per_world = dense_log_weights(scored, worlds[0].index)
        shift = per_world.max()
        log_z = shift + math.log(np.exp(per_world - shift).sum())
        expected = [per_world[w.bits] - log_z for w in worlds]
        cached = target_log_likelihoods(scored, spec, worlds)
        assert cached == pytest.approx(expected, abs=1e-12)
        direct = [evaluate_target(scored, spec, w) for w in worlds]
        assert cached == pytest.approx(direct, abs=1e-12)

    def test_target_over_the_guard_fails_before_any_run(self):
        # Smokers at n=5 has 35 ground atoms, over the default guard of 28.
        cfg = ExperimentConfig(**{**TINY, "train_sets": 1, "target_sizes": (5,)})
        with pytest.raises(DomainTooLargeError):
            run_experiment(cfg)
