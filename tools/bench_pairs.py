"""Alternating parent/change runs of the benchmark harness, summarized as JSON.

    python3 tools/bench_pairs.py PARENT_DIR --workload verify_fs24 \
        --workload learn_sweep_n3 --seed 7 --pairs 10 --out BENCH_17.json

``--workload`` may be given more than once; the workloads then run one after
the other, each with its own pairs, into the same file. Each pair runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
once in the parent checkout and once in the change checkout (by default the
checkout this script sits in), one after the other. The side that goes first
alternates, the parent first in pair 0, so drift on the host falls
on both sides alike. Every run contributes its result line: the medians of
``wall_s``, ``setup_s`` and ``peak_rss_mb`` over its repetitions, and its
``correct``, ``attempted`` and ``failed`` counts.

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
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parents[1]
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
SIDES = ("parent", "change")


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


def write_summary(path: Path, workload: str, seed: int, summary: dict, stamp: dict) -> None:
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    data.update(stamp)
    data.setdefault("workloads", {}).setdefault(workload, {})[str(seed)] = summary
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def main(argv=None, run=run_once) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="the parent checkout")
    ap.add_argument("--change", type=Path, default=CHECKOUT, help="the change checkout")
    ap.add_argument("--workload", action="append", required=True, help="repeatable")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    first = first_in_pair(args.pairs)
    stamp = {
        "parent_commit": commit_of(roots["parent"]),
        "commit": commit_of(roots["change"]),
        "host": host(),
    }
    for workload in args.workload:
        records: dict[str, list[dict]] = {side: [] for side in SIDES}
        for k, lead in enumerate(first):
            for side in (lead, SIDES[1 - SIDES.index(lead)]):
                record = run(roots[side], workload, args.seed, args.seconds)
                records[side].append(record)
                wall = record["metrics"]["wall_s"]["value"]
                pair = f"{workload} pair {k + 1}/{args.pairs} {side}"
                print(f"{pair}: wall_s={wall:.6g}", file=sys.stderr)
            summary = summarize(records, first[: k + 1])
            write_summary(args.out, workload, args.seed, summary, stamp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
