"""The benchmark's workloads: their inputs, their timed call and their outputs.

This module imports nothing from the package at module level, so the harness
can read the workload table without loading numpy; the worker imports the
package inside `prepare`, which is timed as set-up.
"""

from __future__ import annotations

import json

DEFAULT_SEED = 7  # ExperimentConfig's own default seed; references are recorded at it
HELD_OUT_SEED = 20240  # kept out of development, for claims that must hold on a fresh seed
WEIGHT_RANGE = 1.5  # verify_fs24 weights are drawn uniformly from [-WEIGHT_RANGE, WEIGHT_RANGE]

# Each workload puts most of its time in a different layer; see README.md.
WORKLOADS = {
    "verify_fs24": {"kind": "verify", "splits": ((2, 2), (3, 1))},
    "learn_sweep_n3": {"kind": "experiment", "train_sets": 20, "target_sizes": (3,)},
    "experiment_n4": {"kind": "experiment", "train_sets": 5, "target_sizes": (3, 4)},
}

# The same code paths at reduced size, for the harness self-test.
SMALL = {
    "verify_fs24": {"kind": "verify", "splits": ((1, 1),)},
    "learn_sweep_n3": {"kind": "experiment", "train_sets": 1, "target_sizes": (3,)},
    "experiment_n4": {"kind": "experiment", "train_sets": 1, "target_sizes": (3,)},
}

TRAIN_SIZE = 3
TARGET_REPLICATES = 5


def spec_for(workload: str, size: str) -> dict:
    return (WORKLOADS if size == "full" else SMALL)[workload]


def prepare(spec: dict, seed: int):
    """Build the inputs from the seed; returns the timed call (no arguments)."""
    if seed < 0:
        raise ValueError("the workload seed must be >= 0")
    if spec["kind"] == "verify":
        import numpy as np

        from mlnexact import bounds
        from mlnexact.datagen import FRIENDS_SMOKERS_MLN
        from mlnexact.logic import normalize_distinct, parse_mln

        model = normalize_distinct(parse_mln(FRIENDS_SMOKERS_MLN))
        rng = np.random.default_rng(seed)
        model = model.with_weights(rng.uniform(-WEIGHT_RANGE, WEIGHT_RANGE, len(model.clauses)))
        # Looked up on the module at call time, so a traced run sees its wrapper.
        return lambda: [bounds.verify_all(model, n, m) for n, m in spec["splits"]]

    from mlnexact import experiment

    cfg = experiment.ExperimentConfig(
        train_sets=spec["train_sets"],
        train_size=TRAIN_SIZE,
        target_sizes=spec["target_sizes"],
        target_replicates=TARGET_REPLICATES,
        seed=seed,
        workers=1,
    )
    return lambda: experiment.run_experiment(cfg)


def canonical_output(spec: dict, result) -> str:
    """The timed call's result as text; equal text means byte-identical results."""
    if spec["kind"] == "verify":
        records = [
            [c.name, c.n, c.m, c.log_spread, c.worst_slack, c.passed]
            for report in result
            for c in report.checks
        ]
        return json.dumps(records)
    from mlnexact.experiment import rows_to_csv

    rows, _ = result
    return rows_to_csv(rows, timestamp="fixed")


def work_done(spec: dict) -> dict:
    """Problem size of one timed call, derived from the workload's inputs."""
    if spec["kind"] == "verify":
        g = [_ground_atoms(n + m) for n, m in spec["splits"]]
        return {"G": sorted(set(g)), "worlds": sum(1 << x for x in g)}
    from mlnexact.experiment import ExperimentConfig

    # Per training set: one fit each for none and da, and for l1 and l2 one
    # fit per grid point in the sweep plus the final refit.
    per_set = 2 + 2 * (len(ExperimentConfig().grid) + 1)
    return {
        "train_G": _ground_atoms(TRAIN_SIZE),
        "target_G": [_ground_atoms(n) for n in spec["target_sizes"]],
        "fits": spec["train_sets"] * per_set,
    }


def _ground_atoms(n: int) -> int:
    from mlnexact.datagen import FRIENDS_SMOKERS_MLN
    from mlnexact.logic import parse_mln
    from mlnexact.worlds import AtomIndex, DomainSpec

    signature = parse_mln(FRIENDS_SMOKERS_MLN).signature
    (tau, _), = signature.types
    return AtomIndex(signature, DomainSpec({tau: n})).n_atoms
