"""Harness self-test: the benchmark's own code paths at reduced size.

    python3 perfbench/selftest.py

Each workload runs at its reduced size (workloads.SMALL: verify_all at 1|1,
one training set). The test checks that every metric BENCHMARK.json names is
emitted with its unit, that spans nest so no self time is negative, that the
exact counts repeat between two traced runs, that a non-default seed passes,
that a deliberately wrong reference value raises fail_ratio, and that the
harness refuses to run where the package source is missing. Exits 1 on any
failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import spans
import workloads

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)
        print(f"FAIL {what}")


def units(record: dict) -> dict:
    return {k: m["unit"] for k, m in record["metrics"].items()}


def check_spans(path, workload: str) -> None:
    dump = json.loads(path.read_text(encoding="utf-8"))
    rows = dump["spans"]
    for i, (name, parent, start, end, own) in enumerate(rows):
        check(end >= start, f"{workload}: span {i} {name} ends before it starts")
        check(own >= 0, f"{workload}: span {i} {name} has negative self time {own}")
        if parent >= 0:
            _, _, p_start, p_end, _ = rows[parent]
            check(
                parent < i and p_start <= start and end <= p_end,
                f"{workload}: span {i} {name} lies outside its parent {parent}",
            )
    check(not dump["missing_hooks"], f"{workload}: hooks not found {dump['missing_hooks']}")


def wrong_reference(kind: str, text: str) -> str:
    """The same output with one numeric value moved by far more than the tolerance."""
    if kind == "verify":
        records = json.loads(text)
        records[0][4] += 1e-6
        return json.dumps(records)
    lines = text.splitlines()
    header = lines[2].split(",")
    cells = lines[3].split(",")
    col = header.index("target_ll")
    cells[col] = repr(float(cells[col]) + 1e-6)
    lines[3] = ",".join(cells)
    return "\n".join(lines) + "\n"


def check_bare_directory() -> None:
    """With only BENCHMARK.json and the benchmark's files, the run must fail."""
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / run.BENCH.name, ignore=shutil.ignore_patterns("out"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "verify_fs24",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    check(proc.returncode != 0, "a directory without the package source exits 0")
    check('"correct"' not in proc.stdout, "a directory without the package source prints a result")
    shutil.rmtree(bare)


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check({w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS), "workload names")
    check(layer == spans.METRICS, "per_layer metrics differ from spans.METRICS")
    check(e2e == run.E2E_UNITS, "end_to_end metrics differ from run.E2E_UNITS")
    seed = workloads.DEFAULT_SEED

    for workload, spec in workloads.SMALL.items():
        plain = run.measure(workload, seed, 0, False, size="small")
        check(units(plain) == e2e, f"{workload}: end-to-end metrics {sorted(units(plain))}")
        check(plain["correct"], f"{workload}: untraced run not correct")

        held_out = run.measure(workload, workloads.HELD_OUT_SEED, 0, False, size="small")
        check(held_out["correct"], f"{workload}: held-out seed not correct")

        traced = [run.measure(workload, seed, 0, True, size="small") for _ in range(2)]
        check(units(traced[0]) == layer, f"{workload}: per-layer metrics {sorted(units(traced[0]))}")
        for name in spans.EXACT_COUNTS:
            a, b = (t["metrics"][name]["value"] for t in traced)
            check(a == b, f"{workload}: count {name} differs between runs ({a} != {b})")
        check_spans(run.OUT / f"spans-{workload}-small-seed{seed}.json", workload)

        text = run.run_worker(workload, seed, "small")["output"]
        good = run.measure(workload, seed, 0, False, size="small", reference=text)
        check(good["failed"] == 0, f"{workload}: a matching reference fails")
        bad = run.measure(
            workload, seed, 0, False, size="small", reference=wrong_reference(spec["kind"], text)
        )
        check(
            bad["derived"]["fail_ratio"]["value"] > 0 and not bad["correct"],
            f"{workload}: a wrong reference value leaves fail_ratio at 0",
        )
        print(f"checked {workload}")

    check_bare_directory()
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
