"""Batch experiment pipeline: generate, subsample, learn with each method,
evaluate on target sets, and emit deterministic CSV rows.

The pipeline is fully seeded: training sets come from generated populations
subsampled to the training size, target sets are generated fresh per size and
replicate, and every derived seed is an arithmetic function of the base seed.
Rerunning a config reproduces every numeric cell byte for byte.

Each CSV column is one field of ``Row``, in field order; ``rows_to_csv`` and
``CSV_COLUMNS`` read the schema from it.

Target worlds are scored with ``learning.target_log_likelihoods``. Every run
and method at one target size shares that size's cached count histogram
(``model.count_histogram``), so the 2^G enumeration happens once per size and
each further weight vector costs one small logsumexp.
"""

from __future__ import annotations

import math
import os
from dataclasses import astuple, dataclass, fields, replace
from datetime import datetime, timezone
from typing import Sequence

import numpy as np

from . import bounds as _bounds
from .datagen import (
    FRIENDS_SMOKERS_MLN,
    PERSON,
    Database,
    SampleSpec,
    db_to_world,
    domain_spec_for,
    friends_smokers_signature,
    generate_friends_smokers,
    subsample,
)
from .learning import (
    GRID_DEFAULT,
    LearnConfig,
    lambda_sweep,
    learn,
    target_log_likelihoods,
)
from .logic import MlnModel, Signature, normalize_distinct, parse_mln, serialize_mln
from .model import DEFAULT_MAX_ATOMS, apply_da_scaling, count_histogram
from .worlds import DomainSpec, World

SCHEMA = "mlnexact-experiment schema=1"
METHODS_ALL = ("none", "l1", "l2", "da")

@dataclass(frozen=True)
class ExperimentConfig:
    mln: str | None = None  # model file; None uses the built-in smokers model
    out: str = "results"
    train_dbs: tuple[str, ...] = ()  # explicit training databases instead of the generator
    train_sets: int = 20
    train_population: int = 10
    train_size: int = 3
    target_sizes: tuple[int, ...] = (3, 4)
    target_replicates: int = 5
    methods: tuple[str, ...] = METHODS_ALL
    grid: tuple[float, ...] = GRID_DEFAULT
    seed: int = 7
    max_iter: int = 2000
    tol: float = 1e-6
    max_atoms: int = DEFAULT_MAX_ATOMS
    workers: int = 1
    da_eval_only: bool = False
    tie_split_weights: bool = False

    def __post_init__(self):
        for m in self.methods:
            if m not in METHODS_ALL:
                raise ValueError(f"unknown method {m!r}")
        if any(m != "none" for m in self.methods) and "none" not in self.methods:
            raise ValueError("the unregularized baseline 'none' is required for deltas")
        if self.train_sets < 1 and not self.train_dbs:
            raise ValueError("need at least one training set")
        if not self.target_sizes:
            raise ValueError("target_sizes must name at least one size")
        for name, least in (
            ("target_sizes", min(self.target_sizes)),
            ("target_replicates", self.target_replicates),
            ("train_size", self.train_size),
            ("max_iter", self.max_iter),
            ("workers", self.workers),
        ):
            if least < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        # Each run would reject these, one error row per run; fail the config instead.
        if not self.grid or not all(math.isfinite(x) and x >= 0 for x in self.grid):
            raise ValueError(f"grid must be finite values >= 0, at least one, got {self.grid}")
        if not self.tol >= 0:  # NaN fails too
            raise ValueError(f"tol must be >= 0, got {self.tol}")
        if not self.train_dbs and self.train_size > self.train_population:
            raise ValueError(
                f"train_size {self.train_size} exceeds train_population {self.train_population}"
            )

    @classmethod
    def from_mapping(cls, values: dict) -> "ExperimentConfig":
        kwargs = {}
        by_name = {f.name: f for f in fields(cls)}
        for key, raw in values.items():
            if key not in by_name:
                raise ValueError(f"unknown config key {key!r}")
            kwargs[key] = _coerce(raw, by_name[key].type)
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        values = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                stripped = raw.split("//", 1)[0].split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = stripped.partition("=")
                values[key.strip()] = value.strip()
        return cls.from_mapping(values)


def _coerce(raw, annotation: str | type):
    if not isinstance(raw, str):
        return raw
    ann = annotation if isinstance(annotation, str) else getattr(annotation, "__name__", "")
    if ann.startswith("tuple[str"):
        return tuple(x.strip() for x in raw.split(",") if x.strip())
    if ann.startswith("tuple[int"):
        return tuple(int(x) for x in raw.split(",") if x.strip())
    if ann.startswith("tuple[float"):
        return tuple(float(x) for x in raw.split(",") if x.strip())
    if ann == "int":
        return int(raw)
    if ann == "float":
        return float(raw)
    if ann == "bool":
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"cannot parse boolean {raw!r}")
    if ann.startswith("str | None") or ann == "str":
        return raw
    raise ValueError(f"cannot coerce config value {raw!r} to {ann}")


@dataclass(frozen=True)
class Row:
    """One CSV row; the fields, in order, are the CSV columns. A run that
    fails keeps the defaults of the last five fields, and its ``train_size``
    is the configured ``ExperimentConfig.train_size``, also when ``train_dbs``
    supplies the training worlds, whose domain size a failed run cannot know."""

    run: int
    regularizer: str
    lam: float | None
    train_size: int
    target_size: int
    replicate: int
    status: str
    converged: bool = False
    train_ll: float = math.nan
    target_ll: float = math.nan
    delta_ll: float = math.nan
    log_spread: float = math.nan


# ``lambda`` is a Python keyword, so the field is named ``lam``.
CSV_COLUMNS = tuple("lambda" if f.name == "lam" else f.name for f in fields(Row))


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def rows_to_csv(rows: Sequence[Row], timestamp: str | None = None) -> str:
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat()
    lines = [f"# {SCHEMA}", f"# generated={timestamp}", ",".join(CSV_COLUMNS)]
    lines += [",".join(_fmt(v) for v in astuple(r)) for r in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Seed schedule
# ---------------------------------------------------------------------------


def seed_train_generation(base: int, run: int) -> int:
    return base + 1_000 + run


def seed_train_subsample(base: int, run: int) -> int:
    return base + 2_000 + run


def seed_target(base: int, size_index: int, replicate: int) -> int:
    return base + 3_000 + 100 * size_index + replicate


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


def load_experiment_model(cfg: ExperimentConfig) -> MlnModel:
    """The normalized experiment model. Target worlds come from the smokers
    generator, so the model must declare each of its predicates over the
    same types."""
    if cfg.mln is None:
        text = FRIENDS_SMOKERS_MLN
    else:
        with open(cfg.mln, encoding="utf-8") as fh:
            text = fh.read()
    model = normalize_distinct(parse_mln(text))
    for pred in friends_smokers_signature().predicates:
        if pred not in model.signature.predicates:
            raise ValueError(
                f"the target generator needs predicate {pred.name}"
                f"({','.join(pred.arg_types)}) in the model"
            )
    return model


def _sample_type(model: MlnModel) -> str:
    types = model.signature.types
    if any(t == PERSON for t, _ in types):
        return PERSON
    return types[0][0]


def training_world(cfg: ExperimentConfig, model: MlnModel, run: int) -> World:
    tau = _sample_type(model)
    if cfg.train_dbs:
        from .datagen import parse_db

        with open(cfg.train_dbs[run], encoding="utf-8") as fh:
            db = parse_db(fh.read(), model.signature)
        return db_to_world(db, domain_spec_for(db))
    db = generate_friends_smokers(cfg.train_population, seed_train_generation(cfg.seed, run))
    if cfg.train_size < cfg.train_population:
        db = subsample(db, SampleSpec(tau, cfg.train_size, seed_train_subsample(cfg.seed, run)))
    # Over the model's signature, at the model's sizes for the types the generator lacks.
    size = len(db.constants[tau])
    spec = DomainSpec({t: size if t == tau else s for t, s in model.signature.types})
    return db_to_world(_over(db, model.signature), spec)


def _over(db: Database, signature: Signature) -> Database:
    """The database over a signature that declares each of its predicates."""
    out = Database(signature)
    for t, names in db.constants.items():
        for name in names:
            out.add_constant(t, name)
    for pred, args in db.atoms:
        out.add_atom(pred, args, register=False)
    return out


def target_worlds(cfg: ExperimentConfig, model: MlnModel) -> dict[int, list[World]]:
    """Generated target worlds per size, over the model's signature."""
    out: dict[int, list[World]] = {}
    tau = _sample_type(model)
    for si, size in enumerate(cfg.target_sizes):
        spec = DomainSpec({t: size if t == tau else s for t, s in model.signature.types})
        seeds = [seed_target(cfg.seed, si, j) for j in range(cfg.target_replicates)]
        out[size] = [
            db_to_world(_over(generate_friends_smokers(size, seed), model.signature), spec)
            for seed in seeds
        ]
    return out


def _spread_at(model: MlnModel, weights: Sequence[float], n: int, m: int) -> float:
    try:
        return _bounds.log_spread(model.with_weights(weights), n, m)
    except ValueError:
        return math.nan


def run_experiment(
    cfg: ExperimentConfig,
) -> tuple[list[Row], dict[tuple[int, str], MlnModel]]:
    """Execute every (training set x method) run; returns rows plus learned models.

    The model map is keyed by (run, method) for raw learned models and by
    (run, f"da_eff{size}") for target-scaled variants.
    """
    n_runs = len(cfg.train_dbs) if cfg.train_dbs else cfg.train_sets
    run_ids = list(range(n_runs))
    if cfg.workers > 1:
        # Imported here: it loads multiprocessing, which a serial run and
        # every other command would pay for at start-up.
        from concurrent.futures import ProcessPoolExecutor

        batches = [list(b) for b in np.array_split(run_ids, cfg.workers) if len(b)]
        rows: list[Row] = []
        models: dict[tuple[int, str], MlnModel] = {}
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            for part_rows, part_models in pool.map(_run_batch, [(cfg, b) for b in batches]):
                rows.extend(part_rows)
                models.update(part_models)
        return rows, models
    return _run_batch((cfg, run_ids))


def _run_batch(args: tuple[ExperimentConfig, list[int]]) -> tuple[list[Row], dict]:
    cfg, run_ids = args
    model = load_experiment_model(cfg)
    tau = _sample_type(model)
    targets = target_worlds(cfg, model)
    # Built ahead of the runs: a target size over the enumeration guard fails
    # the whole experiment instead of turning every run into error rows.
    for worlds in targets.values():
        count_histogram(model, worlds[0].index, max_atoms=cfg.max_atoms)
    smallest = min(cfg.target_sizes)
    rows: list[Row] = []
    models: dict[tuple[int, str], MlnModel] = {}
    for run in run_ids:
        try:
            rows_r, models_r = _run_one(cfg, model, tau, run, targets, smallest)
            rows.extend(rows_r)
            models.update(models_r)
        except Exception as exc:  # per-run isolation: one bad run must not sink the batch
            error = f"error:{type(exc).__name__}"
            rows += [Row(run, m, None, cfg.train_size, -1, -1, error) for m in cfg.methods]
    return rows, models


def _run_one(cfg, model, tau, run, targets, smallest):
    data = training_world(cfg, model, run)
    train_n = data.index.spec.size(tau)
    base_cfg = LearnConfig(
        max_iter=cfg.max_iter, tol=cfg.tol, tie_split_weights=cfg.tie_split_weights
    )
    methods = [m for m in METHODS_ALL if m in cfg.methods]

    results = {}
    best_lams: dict[str, float | None] = {m: None for m in methods}
    for method in methods:
        if method == "none":
            results[method] = learn(model, data, base_cfg)
        elif method == "da":
            results[method] = learn(model, data, replace(base_cfg, da=not cfg.da_eval_only))
        else:
            sweep = lambda_sweep(
                model,
                [data],
                targets[smallest],
                method,
                grid=cfg.grid,
                config=base_cfg,
                max_atoms=cfg.max_atoms,
            )
            best_lams[method] = sweep.best_lam
            results[method] = sweep.fits[0]

    rows: list[Row] = []
    models: dict[tuple[int, str], MlnModel] = {}
    baseline: dict[tuple[int, int], float] = {}
    for method in methods:
        res = results[method]
        models[(run, method)] = res.model
        for size in cfg.target_sizes:
            scored = res.model
            if method == "da":
                scored = apply_da_scaling(res.model, dict(targets[size][0].index.spec.sizes))
                models[(run, f"da_eff{size}")] = scored
            lls = target_log_likelihoods(scored, targets[size], max_atoms=cfg.max_atoms)
            spread = _spread_at(model, scored.weights(), train_n, size - train_n)
            for j, ll in enumerate(lls):
                if method == "none":
                    baseline[(size, j)] = ll
                rows.append(
                    Row(
                        run=run,
                        regularizer=method,
                        lam=best_lams.get(method),
                        train_size=train_n,
                        target_size=size,
                        replicate=j,
                        status="ok",
                        converged=res.converged,
                        train_ll=-res.trace[-1].neg_log_likelihood,
                        target_ll=ll,
                        delta_ll=ll - baseline[(size, j)],
                        log_spread=spread,
                    )
                )
    return rows, models


def write_outputs(
    cfg: ExperimentConfig, rows: Sequence[Row], models: dict[tuple[int, str], MlnModel]
) -> str:
    """Write the CSV and the serialized learned models; returns the CSV path."""
    os.makedirs(cfg.out, exist_ok=True)
    csv_path = os.path.join(cfg.out, "results.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(rows_to_csv(rows))
    model_dir = os.path.join(cfg.out, "models")
    os.makedirs(model_dir, exist_ok=True)
    for (run, method), m in sorted(models.items()):
        path = os.path.join(model_dir, f"run{run:02d}_{method}.mln")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_mln(m))
    return csv_path
