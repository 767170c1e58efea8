"""Alternating parent/change runs of the benchmark harness, summarized as JSON.

    python3 tools/bench_pairs.py PARENT_DIR --workload verify_fs24 \
        --workload learn_sweep_n3 --seed 7 --pairs 10 --out BENCH_17.json
    python3 tools/bench_pairs.py PARENT_DIR --tier1 3 --out BENCH_17.json

``--workload`` may be given more than once; the workloads then run one after
the other, each with its own pairs, into the same file. Each pair runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
once in the parent checkout and once in the change checkout (by default the
checkout this script sits in), one after the other. The side that goes first
alternates, the parent first in pair 0, so drift on the host falls
on both sides alike. Every run contributes its result line: the medians of
``wall_s``, ``setup_s`` and ``peak_rss_mb`` over its repetitions, and its
``correct``, ``attempted`` and ``failed`` counts.

``--tier1 RUNS`` also runs the tier-1 test command, ``TIER1_COMMAND`` with
``src`` put first on ``PYTHONPATH``, RUNS times in each checkout, in the same
alternation, before any workload. Each run records its wall time and the
counts of the suite's last line, and the block goes to the file's ``tier1``:
the command, the run order, and per side the passed and failed counts and the
wall times with their median.

The summary goes to ``workloads[W][S]`` of the output file, which is created
or updated in place, so several invocations fill one file and its other keys
are kept. It is rewritten after every pair. Per side it holds each metric's
runs and their median and quartiles (inclusive method, as numpy's linear
percentiles), and per metric how many pairs the change ran lower, the
relative change of the medians, and whether a claim that the change lowers
the metric holds: lower in at least 9 of 10 pairs, with the medians further
apart than the parent's interquartile range. The file's ``parent_commit`` and
``commit`` are ``git rev-parse HEAD`` of each checkout, with ``-dirty`` when
tracked files differ from it, and ``host`` names the CPUs, Python and numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parents[1]
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
SIDES = ("parent", "change")
TIER1_COMMAND = "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors"


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One harness run in the checkout at ``root``: its last output line."""
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: run.py exited with {proc.returncode}\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_tier1_once(root: Path) -> dict:
    """One tier-1 run in the checkout at ``root``: its wall time and the
    outcome counts of pytest's last line, such as ``{"passed": 608}``."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": "src" + (os.pathsep + path if path else "")}
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    found = re.findall(r"(\d+) (passed|failed|error)s?\b", lines[-1] if lines else "")
    counts = {k: int(n) for n, k in found}
    if not counts:
        raise SystemExit(f"{root}: no test counts in pytest's output\n{proc.stdout[-4000:]}")
    return {"wall_s": wall, **counts}


def tier1_summary(records: dict[str, list[dict]], first: list[str]) -> dict:
    """The ``tier1`` block of ``records[side]``, each side's runs in order."""
    out: dict = {"command": TIER1_COMMAND, "runs": len(first)}
    out["order"] = [side for lead in first for side in pair_order(lead)]
    for side in SIDES:
        walls = [round(r["wall_s"], 2) for r in records[side]]
        out[side] = {
            "passed": [r.get("passed", 0) for r in records[side]],
            "failed": [r.get("failed", 0) + r.get("error", 0) for r in records[side]],
            "wall_s": walls,
            "median_wall_s": round(statistics.median(walls), 2),
        }
    return out


def commit_of(root: Path) -> str | None:
    """``git rev-parse HEAD`` of the checkout, ``-dirty`` when a tracked file
    differs from it; None outside a git checkout."""
    git = ["git", "-C", str(root)]
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
    if head.returncode != 0:
        return None
    status = subprocess.run(
        git + ["status", "--porcelain", "--untracked-files=no"], capture_output=True, text=True
    )
    return head.stdout.strip() + ("-dirty" if status.stdout.strip() else "")


def host() -> str:
    cpus = len(os.sched_getaffinity(0))
    return f"{cpus} CPUs, Python {platform.python_version()}, numpy {version('numpy')}"


def first_in_pair(pairs: int) -> list[str]:
    return [SIDES[k % 2] for k in range(pairs)]


def pair_order(lead: str) -> tuple[str, str]:
    """The sides of one pair in the order they run."""
    return lead, SIDES[1 - SIDES.index(lead)]


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def summarize(records: dict[str, list[dict]], first: list[str]) -> dict:
    """The summary of ``records[side]``, each side's result lines in pair order."""
    runs = {
        side: {m: [r["metrics"][m]["value"] for r in records[side]] for m in METRICS}
        for side in SIDES
    }
    out: dict = {"pairs": len(first), "runs": runs, "first_in_pair": first}
    for side in SIDES:
        out[side] = {m: _quartiles(runs[side][m]) for m in METRICS}
        out[side]["failed"] = sum(r["failed"] for r in records[side])
        out[side]["attempted"] = sum(r["attempted"] for r in records[side])
        out[side]["correct"] = all(r["correct"] for r in records[side])
    for m in METRICS:
        parent, change = runs["parent"][m], runs["change"][m]
        lower = sum(c < p for p, c in zip(parent, change))
        out[f"change_lower_{m}"] = f"{lower}/{len(parent)}"
        ratio = statistics.median(change) / statistics.median(parent) - 1.0
        out[f"median_ratio_{m}"] = round(ratio, 4)
        gap = out["parent"][m]["median"] - out["change"][m]["median"]
        iqr = out["parent"][m]["q3"] - out["parent"][m]["q1"]
        out[f"claim_holds_{m}"] = 10 * lower >= 9 * len(parent) and gap > iqr
    return out


def write_summary(path: Path, keys: tuple[str, ...], summary: dict, stamp: dict) -> None:
    """Put ``summary`` at ``data[keys[0]][keys[1]]...`` of the file's JSON."""
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    data.update(stamp)
    node = data
    for key in keys[:-1]:
        node = node.setdefault(key, {})
    node[keys[-1]] = summary
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def main(argv=None, run=run_once, run_tier1=run_tier1_once) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="the parent checkout")
    ap.add_argument("--change", type=Path, default=CHECKOUT, help="the change checkout")
    ap.add_argument("--workload", action="append", default=[], help="repeatable")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--tier1", type=int, default=0, metavar="RUNS", help="tier-1 runs per side")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if args.tier1 < 0:
        ap.error("--tier1 must be at least 0")
    if not args.workload and not args.tier1:
        ap.error("give at least one --workload, or --tier1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    first = first_in_pair(args.pairs)
    stamp = {
        "parent_commit": commit_of(roots["parent"]),
        "commit": commit_of(roots["change"]),
        "host": host(),
    }
    if args.tier1:
        order = first_in_pair(args.tier1)
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        for k, lead in enumerate(order):
            for side in pair_order(lead):
                runs[side].append(run_tier1(roots[side]))
                wall = runs[side][-1]["wall_s"]
                print(f"tier1 run {k + 1}/{args.tier1} {side}: wall_s={wall:.4g}", file=sys.stderr)
            write_summary(args.out, ("tier1",), tier1_summary(runs, order[: k + 1]), stamp)
    for workload in args.workload:
        records: dict[str, list[dict]] = {side: [] for side in SIDES}
        for k, lead in enumerate(first):
            for side in pair_order(lead):
                record = run(roots[side], workload, args.seed, args.seconds)
                records[side].append(record)
                wall = record["metrics"]["wall_s"]["value"]
                pair = f"{workload} pair {k + 1}/{args.pairs} {side}"
                print(f"{pair}: wall_s={wall:.6g}", file=sys.stderr)
            summary = summarize(records, first[: k + 1])
            write_summary(args.out, ("workloads", workload, str(args.seed)), summary, stamp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
