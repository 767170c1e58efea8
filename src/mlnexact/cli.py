"""Command-line harness: verify bounds, learn and evaluate weights, generate
data, and run the full batch experiment.

Exit codes: 0 success (all checks pass), 1 check or run failure, 2 usage or
enumeration-guard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace

from . import bounds as _bounds
from .datagen import (
    DbParseError,
    db_to_world,
    domain_spec_for,
    generate_friends_smokers,
    generation_metadata,
    parse_db,
    serialize_db,
)
from .experiment import ExperimentConfig, run_experiment, write_outputs
from .learning import LEARN_MAX_ATOMS, LearnConfig, learn, target_log_likelihoods
from .logic import MlnParseError, formula_to_text, normalize_distinct, parse_mln, serialize_mln
from .model import DEFAULT_MAX_ATOMS, apply_da_scaling
from .worlds import FORCED_MAX_ATOMS, DomainSpec, DomainTooLargeError


def _load_mln(path: str):
    with open(path, encoding="utf-8") as fh:
        return normalize_distinct(parse_mln(fh.read()))


def _load_db(path: str, signature):
    with open(path, encoding="utf-8") as fh:
        return parse_db(fh.read(), signature)


def _spec_for(model, n: int) -> DomainSpec:
    if len(model.signature.types) != 1:
        raise ValueError("--n requires a single-type signature; edit the model file instead")
    return DomainSpec({model.signature.types[0][0]: n})


def cmd_verify(args) -> int:
    model = _load_mln(args.mln)
    report = _bounds.verify_all(model, args.n, args.m, tol=args.tol, max_atoms=args.max_atoms)
    print(report.to_text())
    if args.out:
        lines = ["check,n,m,log_spread,worst_slack,pass"]
        lines += [
            f"{c.name},{c.n},{c.m},{c.log_spread:.17g},{c.worst_slack:.17g},{str(c.passed).lower()}"
            for c in report.checks
        ]
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0 if report.all_passed else 1


def cmd_learn(args) -> int:
    model = _load_mln(args.mln)
    db = _load_db(args.db, model.signature)
    spec = _spec_for(model, args.n) if args.n is not None else domain_spec_for(db)
    data = db_to_world(db, spec)
    # Every learn flag but the inputs and outputs is a config field.
    config = LearnConfig(**{f.name: getattr(args, f.name) for f in fields(LearnConfig)})
    result = learn(model, data, config)
    print(f"converged: {result.converged} after {result.iterations} iterations")
    print(f"final objective (penalized negative log-likelihood): {result.objective:.12g}")
    print(f"train log-likelihood: {-result.trace[-1].neg_log_likelihood:.12g}")
    for clause, w in zip(result.model.clauses, result.weights):
        print(f"  {w: .12g}  {formula_to_text(clause.formula)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(serialize_mln(result.model))
        print(f"learned model written to {args.out}")
    return 0


def cmd_eval(args) -> int:
    model = _load_mln(args.mln)
    db = _load_db(args.db, model.signature)
    spec = _spec_for(model, args.n) if args.n is not None else domain_spec_for(db)
    data = db_to_world(db, spec)
    if args.da:
        model = apply_da_scaling(model, dict(spec.sizes))
    lls = target_log_likelihoods(model, [data], max_atoms=args.max_atoms)
    print(f"log-likelihood: {lls[0]:.17g}")
    return 0


def cmd_generate(args) -> int:
    if args.kind != "fs":
        raise ValueError(f"unknown generator kind {args.kind!r}")
    os.makedirs(args.out, exist_ok=True)
    for seed in args.seeds:
        db = generate_friends_smokers(args.population, seed)
        stem = os.path.join(args.out, f"fs_pop{args.population}_seed{seed}")
        with open(stem + ".db", "w", encoding="utf-8") as fh:
            fh.write(serialize_db(db))
        with open(stem + ".meta.json", "w", encoding="utf-8") as fh:
            json.dump(generation_metadata(args.population, seed, db), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {stem}.db ({len(db.atoms)} atoms)")
    return 0


def cmd_experiment(args) -> int:
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    # Every experiment flag's dest is a config field; a flag left unset is None.
    names = {f.name for f in fields(ExperimentConfig)}
    cfg = replace(cfg, **{k: v for k, v in vars(args).items() if k in names and v is not None})
    rows, models = run_experiment(cfg)
    csv_path = write_outputs(cfg, rows, models)
    ok = sum(1 for r in rows if r.status == "ok")
    print(f"{len(rows)} rows ({ok} ok) written to {csv_path}")
    if ok == 0:
        return 1
    return 0


def _max_atoms(text: str) -> int:
    value = int(text)
    if value > FORCED_MAX_ATOMS:
        raise argparse.ArgumentTypeError(f"{value} exceeds the hard cap of {FORCED_MAX_ATOMS}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--force-guard", action="store_true", help="raise the enumeration guard")
    p.add_argument("--max-atoms", type=_max_atoms, default=DEFAULT_MAX_ATOMS, dest="max_atoms")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlnexact",
        description="Exact Markov logic engine for small domains: bound verification, "
        "weight learning, data generation, batch experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run every bound check by exhaustive enumeration")
    p.add_argument("--mln", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", help="write machine-readable check rows to this CSV")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("learn", help="learn weights on one database by exact likelihood")
    p.add_argument("--mln", required=True)
    p.add_argument("--db", required=True)
    p.add_argument("--n", type=int, help="domain size (defaults to database constants)")
    p.add_argument("--reg", choices=("none", "l1", "l2"), default="none", dest="regularizer")
    p.add_argument("--lambda", type=float, default=0.0, dest="lam")
    p.add_argument("--da", action="store_true", help="scale weights by train-size factors")
    p.add_argument("--max-iter", type=int, default=500, dest="max_iter")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--tie-split-weights", action="store_true", dest="tie_split_weights")
    p.add_argument("--out", help="write the learned model here")
    _add_common(p)
    p.set_defaults(func=cmd_learn, max_atoms=LEARN_MAX_ATOMS)

    p = sub.add_parser("eval", help="log-likelihood of a database under a model")
    p.add_argument("--mln", required=True)
    p.add_argument("--db", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--da", action="store_true", help="apply scale-down factors at this size")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("generate", help="generate seeded synthetic databases")
    p.add_argument("--kind", default="fs", choices=("fs",))
    p.add_argument("--population", type=int, required=True)
    p.add_argument("--seeds", type=lambda s: [int(x) for x in s.split(",")], required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("experiment", help="run the batch learning experiment")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--mln")
    p.add_argument("--out")
    p.add_argument("--train-sets", type=int, dest="train_sets")
    p.add_argument("--train-population", type=int, dest="train_population")
    p.add_argument("--train-size", type=int, dest="train_size")
    p.add_argument(
        "--targets", type=lambda s: tuple(int(x) for x in s.split(",")), dest="target_sizes"
    )
    p.add_argument("--target-replicates", type=int, dest="target_replicates")
    p.add_argument("--methods", type=lambda s: tuple(x.strip() for x in s.split(",")))
    p.add_argument("--grid", type=lambda s: tuple(float(x) for x in s.split(",")))
    p.add_argument("--seed", type=int)
    p.add_argument("--max-iter", type=int, dest="max_iter")
    p.add_argument("--workers", type=int)
    p.add_argument("--da-eval-only", action="store_true", default=None, dest="da_eval_only")
    p.add_argument("--force-guard", action="store_true")
    p.set_defaults(func=cmd_experiment, max_atoms=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "force_guard", False):
        args.max_atoms = FORCED_MAX_ATOMS
    try:
        return args.func(args)
    except DomainTooLargeError as exc:
        hint = "" if getattr(args, "force_guard", False) else " (use --force-guard to override)"
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 2
    except (MlnParseError, DbParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
