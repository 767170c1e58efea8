"""Benchmark harness for mlnexact.

    python3 perfbench/run.py --workload verify_fs24 --seed 7 --seconds 40 --trace 0
    python3 perfbench/run.py --all            # every workload, one table of metrics
    python3 perfbench/run.py --record-reference

One run measures one workload for about `--seconds` seconds, closed loop and
single process: it starts perfbench/worker.py once per repetition, one at a
time, each in a fresh interpreter so that the package's caches start cold.
It checks every repetition's output, then prints a summary and, as its last
line, one JSON object with `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones (medians over the
repetitions); with `--trace 1` they are the per-layer ones, from one traced
repetition next to one untraced repetition. Details, samples and spans go
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference"

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_REPS = 2  # byte-identity between repetitions needs two of them
SETUP_PROBES = 8  # extra set-up-only interpreters per run, for a steadier setup_s median
TOL = 1e-9  # reference comparison, absolute and relative
WORKER_TIMEOUT_S = 170
BLAS_THREADS = "1"  # no more than nproc; one thread keeps timings and sums steady


class HarnessError(RuntimeError):
    pass


def run_worker(workload, seed, size, *, spans_path=None, setup_only=False) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--root", str(ROOT),
        "--workload", workload,
        "--seed", str(seed),
        "--size", size,
    ]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)],
            capture_output=True,
            text=True,
            env=env,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{workload} repetition exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise HarnessError(
            f"{workload} repetition exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def operations(kind: str, text: str) -> list:
    """One repetition's output split into operations: check records or CSV rows."""
    if kind == "verify":
        return json.loads(text)
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _close(a, b) -> bool:
    """Numeric cells agree within TOL; other cells must be equal."""
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return (math.isnan(x) and math.isnan(y)) or math.isclose(x, y, rel_tol=TOL, abs_tol=TOL)


def _op_ok(kind: str, op, ref) -> bool:
    if kind == "verify":
        ok = op[5] is True
        if ref is not None:
            ok = ok and op[:3] == ref[:3] and op[5] == ref[5]
            ok = ok and all(_close(a, b) for a, b in zip(op[3:5], ref[3:5]))
        return ok
    ok = op.get("status") == "ok"
    if ref is not None:
        ok = ok and op.keys() == ref.keys() and all(_close(op[k], ref[k]) for k in ref)
    return ok


def check_outputs(kind: str, outputs: list[str], reference: str | None) -> tuple[int, int]:
    """(attempted, failed) over every operation of every repetition.

    An operation fails if its status is not ok, if it differs from the
    reference (when one applies) by more than TOL, or if its bytes differ from
    the same operation in the first repetition.
    """
    ref_ops = operations(kind, reference) if reference is not None else None
    first = operations(kind, outputs[0])
    attempted = failed = 0
    for text in outputs:
        ops = operations(kind, text)
        n = max(len(ops), len(first), len(ref_ops) if ref_ops is not None else 0)
        attempted += n
        for j in range(n):
            op = ops[j] if j < len(ops) else None
            ref = ref_ops[j] if ref_ops is not None and j < len(ref_ops) else None
            if (
                op is None
                or (ref_ops is not None and ref is None)
                or j >= len(first)
                or json.dumps(op) != json.dumps(first[j])
                or not _op_ok(kind, op, ref)
            ):
                failed += 1
    return attempted, failed


def reference_path(workload: str) -> Path:
    kind = workloads.WORKLOADS[workload]["kind"]
    return REFERENCE / (f"{workload}.json" if kind == "verify" else f"{workload}.csv")


def default_reference(workload: str, seed: int, size: str) -> str | None:
    if size != "full" or seed != workloads.DEFAULT_SEED:
        return None
    return reference_path(workload).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def measure(workload, seed, seconds, trace, *, size="full", reference=None) -> dict:
    """Run one workload for about `seconds` and return its result record."""
    spec = workloads.spec_for(workload, size)
    if reference is None:
        reference = default_reference(workload, seed, size)
    OUT.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    reps = []
    if trace:
        reps.append(run_worker(workload, seed, size))
        spans_path = OUT / f"spans-{workload}-{size}-seed{seed}.json"
        reps.append(run_worker(workload, seed, size, spans_path=spans_path))
        setups = [r["setup_s"] for r in reps]
    else:
        longest = 0.0
        probe = 0.0
        while True:
            t = time.monotonic()
            reps.append(run_worker(workload, seed, size))
            longest = max(longest, time.monotonic() - t)
            probe = max(probe, reps[-1]["setup_s"])
            elapsed = time.monotonic() - start
            if len(reps) >= MIN_REPS and elapsed + longest + SETUP_PROBES * probe > seconds:
                break
        setups = [r["setup_s"] for r in reps]
        setups += [run_worker(workload, seed, size, setup_only=True)["setup_s"]
                   for _ in range(SETUP_PROBES)]

    attempted, failed = check_outputs(spec["kind"], [r["output"] for r in reps], reference)
    walls = [r["wall_s"] for r in reps]
    work = reps[0]["work"]
    record = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": int(trace),
        "reference_checked": reference is not None,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "stamp": {**reps[0]["stamp"], "repetitions": len(reps), **work},
        "samples": {
            "wall_s": walls,
            "setup_s": setups,
            "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        },
        "run_s": time.monotonic() - start,
    }
    if trace:
        traced, untraced = reps[1], reps[0]
        layers = dict(traced["layers"])
        layers["trace.wall_s"] = traced["wall_s"]
        layers["trace.untraced_wall_s"] = untraced["wall_s"]
        layers["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"] - 1.0
        layers["trace.spans"] = traced["spans"]
        record["metrics"] = {k: {"value": layers[k], "unit": u} for k, u in spans.METRICS.items()}
        record["missing_hooks"] = traced["missing_hooks"]
    else:
        med = {k: statistics.median(v) for k, v in record["samples"].items()}
        record["metrics"] = {k: {"value": med[k], "unit": u} for k, u in E2E_UNITS.items()}
    wall = statistics.median(walls)
    record["derived"] = {"fail_ratio": {"value": failed / attempted, "unit": "ratio"}}
    if "worlds" in work:
        record["derived"]["worlds_per_s"] = {"value": work["worlds"] / wall, "unit": "1/s"}
    if "fits" in work:
        record["derived"]["fits_per_s"] = {"value": work["fits"] / wall, "unit": "1/s"}
    return record


def summary_lines(record: dict) -> list[str]:
    stamp = " ".join(f"{k}={v}" for k, v in record["stamp"].items())
    lines = [f"# {record['workload']} seed={record['seed']} trace={record['trace']} {stamp}"]
    for name, m in {**record["metrics"], **record["derived"]}.items():
        lines.append(f"{name}: {m['value']:.6g} {m['unit']}")
    lines.append(
        f"correct: {record['correct']} ({record['failed']} of {record['attempted']} operations "
        f"failed; reference {'checked' if record['reference_checked'] else 'not recorded for this seed'})"
    )
    return lines


def result_line(record: dict) -> str:
    return json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")})


def record_reference() -> None:
    """Write the reference outputs at the default seed from the current code."""
    REFERENCE.mkdir(parents=True, exist_ok=True)
    for workload, spec in workloads.WORKLOADS.items():
        text = run_worker(workload, workloads.DEFAULT_SEED, "full")["output"]
        attempted, failed = check_outputs(spec["kind"], [text], None)
        if failed:
            raise HarnessError(f"{workload}: {failed} of {attempted} operations not ok")
        reference_path(workload).write_text(text, encoding="utf-8")
        print(f"recorded {reference_path(workload).relative_to(ROOT)} ({attempted} operations)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run every workload untraced")
    ap.add_argument("--record-reference", action="store_true")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mlnexact" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'mlnexact'}", file=sys.stderr)
        return 2
    try:
        if args.record_reference:
            record_reference()
            return 0
        if args.all:
            records = [measure(w, args.seed, args.seconds, False) for w in workloads.WORKLOADS]
            for record in records:
                print("\n".join(summary_lines(record)))
            return 0 if all(r["correct"] for r in records) else 1
        if args.workload is None:
            ap.error("give --workload, --all or --record-reference")
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(exc, file=sys.stderr)
        return 1
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print("\n".join(summary_lines(record)))
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
