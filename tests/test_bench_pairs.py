"""tools/bench_pairs.py: the pair order and the summary of synthetic run records."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def record(wall: float, *, setup: float = 0.25, rss: float = 60.0, failed: int = 0) -> dict:
    metrics = {"wall_s": wall, "setup_s": setup, "peak_rss_mb": rss}
    return {
        "correct": failed == 0,
        "attempted": 100,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()},
    }


def test_sides_alternate_parent_first():
    assert bench_pairs.first_in_pair(5) == ["parent", "change", "parent", "change", "parent"]


def test_summary_of_synthetic_records():
    parent = [record(w) for w in (1.0, 2.0, 3.0, 4.0, 5.0)]
    change = [record(w, rss=59.0) for w in (0.5, 1.0, 3.5, 2.0, 1.5)]
    change[2] = record(3.5, rss=61.0, failed=2)
    first = bench_pairs.first_in_pair(5)
    out = bench_pairs.summarize({"parent": parent, "change": change}, first)
    assert out["pairs"] == 5 and out["first_in_pair"] == first
    assert out["runs"]["parent"]["wall_s"] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert out["runs"]["change"]["peak_rss_mb"] == [59.0, 59.0, 61.0, 59.0, 59.0]
    # Inclusive quartiles: numpy's linear percentiles.
    assert out["parent"]["wall_s"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert out["change"]["wall_s"] == {"median": 1.5, "q1": 1.0, "q3": 2.0}
    assert out["parent"]["setup_s"] == {"median": 0.25, "q1": 0.25, "q3": 0.25}
    assert (out["parent"]["failed"], out["parent"]["attempted"], out["parent"]["correct"]) == (
        0,
        500,
        True,
    )
    assert (out["change"]["failed"], out["change"]["attempted"], out["change"]["correct"]) == (
        2,
        500,
        False,
    )
    assert out["change_lower_wall_s"] == "4/5"  # only pair 3 is higher
    assert out["median_ratio_wall_s"] == -0.5
    assert out["change_lower_setup_s"] == "0/5"
    assert out["median_ratio_setup_s"] == 0.0
    assert out["change_lower_peak_rss_mb"] == "4/5"
    assert out["median_ratio_peak_rss_mb"] == round(59.0 / 60.0 - 1, 4)
    one = bench_pairs.summarize({"parent": parent[:1], "change": change[:1]}, first[:1])
    assert one["parent"]["wall_s"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}


def test_claim_needs_nine_in_ten_pairs_and_a_gap_past_the_parents_iqr():
    parent_walls = (3.0, 3.2, 2.8, 3.1, 2.9) * 2  # median 3.0, quartiles 2.9 and 3.1
    parent = [record(w, setup=0.3 + 0.01 * i) for i, w in enumerate(parent_walls)]
    first = bench_pairs.first_in_pair(10)

    def claims(change_walls):
        # setup_s: lower in 9 of 10 pairs, by 0.01 against a parent IQR of 0.045.
        change = [record(w, setup=0.3 + 0.01 * max(i - 1, 0)) for i, w in enumerate(change_walls)]
        return bench_pairs.summarize({"parent": parent, "change": change}, first)

    out = claims([2.5] * 10)
    assert out["change_lower_wall_s"] == "10/10" and out["claim_holds_wall_s"] is True
    assert out["change_lower_setup_s"] == "9/10" and out["claim_holds_setup_s"] is False
    assert out["claim_holds_peak_rss_mb"] is False  # equal runs are never lower
    assert claims([2.5] * 9 + [3.5])["claim_holds_wall_s"] is True  # 9/10 lower
    assert claims([2.5] * 8 + [3.5] * 2)["claim_holds_wall_s"] is False  # 8/10 lower
    out = claims([w - 0.15 for w in parent_walls])
    assert out["change_lower_wall_s"] == "10/10"
    assert out["claim_holds_wall_s"] is False  # a gap of 0.15 is inside the IQR of 0.2


def test_commit_of_a_checkout(tmp_path):
    assert bench_pairs.commit_of(tmp_path) is None  # not a git checkout
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git + ["init", "-q"], check=True)
    (tmp_path / "a.py").write_text("x = 1\n")
    subprocess.run(git + ["add", "a.py"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "a"], check=True)
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
    head = head.stdout.strip()
    assert bench_pairs.commit_of(tmp_path) == head
    (tmp_path / "bench.json").write_text("{}")  # an untracked output file
    assert bench_pairs.commit_of(tmp_path) == head
    (tmp_path / "a.py").write_text("x = 2\n")
    assert bench_pairs.commit_of(tmp_path) == head + "-dirty"


def test_main_alternates_runs_and_merges_into_the_file(tmp_path):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"description": "kept", "workloads": {"w": {"9": {}}}}))
    calls = []

    def fake_run(root, workload, seed, seconds):
        calls.append((root.name, workload, seed, seconds))
        return record(1.0 if root.name == "old" else 0.5)

    (tmp_path / "old").mkdir()
    (tmp_path / "new").mkdir()
    args = [str(tmp_path / "old"), "--change", str(tmp_path / "new"), "--workload", "w"]
    args += ["--seed", "7", "--pairs", "3", "--seconds", "5", "--out", str(out)]
    assert bench_pairs.main(args, run=fake_run) == 0
    assert [c[0] for c in calls] == ["old", "new", "new", "old", "old", "new"]
    assert all(c[1:] == ("w", 7, 5.0) for c in calls)
    data = json.loads(out.read_text())
    assert data["description"] == "kept" and data["workloads"]["w"]["9"] == {}
    summary = data["workloads"]["w"]["7"]
    assert summary["pairs"] == 3 and summary["change_lower_wall_s"] == "3/3"
    assert summary["claim_holds_wall_s"] is True
    assert data["parent_commit"] is None and data["commit"] is None  # not git checkouts
    assert data["host"] == bench_pairs.host() and "numpy" in data["host"]
    with pytest.raises(SystemExit):
        bench_pairs.main(args[:-4] + ["--pairs", "0", "--out", str(out)], run=fake_run)


def test_repeated_workloads_fill_one_file(tmp_path):
    out = tmp_path / "bench.json"
    calls = []

    def fake_run(root, workload, seed, seconds):
        calls.append((root.name, workload))
        return record({"a": 1.0, "b": 2.0}[workload] * (0.5 if root.name == "new" else 1.0))

    (tmp_path / "old").mkdir()
    (tmp_path / "new").mkdir()
    args = [str(tmp_path / "old"), "--change", str(tmp_path / "new"), "--workload", "a"]
    args += ["--workload", "b", "--seed", "20240", "--pairs", "2", "--out", str(out)]
    assert bench_pairs.main(args, run=fake_run) == 0
    # Each workload runs all its pairs, alternating, before the next starts.
    assert calls == [("old", "a"), ("new", "a"), ("new", "a"), ("old", "a")] + [
        ("old", "b"),
        ("new", "b"),
        ("new", "b"),
        ("old", "b"),
    ]
    data = json.loads(out.read_text())
    assert sorted(data["workloads"]) == ["a", "b"]
    for name, wall in (("a", 1.0), ("b", 2.0)):
        summary = data["workloads"][name]["20240"]
        assert summary["pairs"] == 2 and summary["change_lower_wall_s"] == "2/2"
        assert summary["runs"]["parent"]["wall_s"] == [wall, wall]
        assert summary["runs"]["change"]["wall_s"] == [wall / 2, wall / 2]


def test_tier1_runs_alternate_before_the_workloads(tmp_path):
    out = tmp_path / "bench.json"
    calls = []

    def fake_run(root, workload, seed, seconds):
        calls.append((root.name, workload))
        return record(1.0)

    def fake_tier1(root):
        calls.append((root.name, "tier1"))
        k = len(calls)
        return {"wall_s": 60.0 + k, "passed": 608 if root.name == "new" else 581}

    (tmp_path / "old").mkdir()
    (tmp_path / "new").mkdir()
    args = [str(tmp_path / "old"), "--change", str(tmp_path / "new"), "--tier1", "3"]
    assert bench_pairs.main(args + ["--out", str(out)], run=fake_run, run_tier1=fake_tier1) == 0
    order = ["old", "new", "new", "old", "old", "new"]
    assert calls == [(side, "tier1") for side in order]
    tier1 = json.loads(out.read_text())["tier1"]
    assert tier1["command"] == bench_pairs.TIER1_COMMAND and tier1["runs"] == 3
    assert tier1["order"] == ["parent", "change", "change", "parent", "parent", "change"]
    assert tier1["parent"] == {
        "passed": [581] * 3,
        "failed": [0] * 3,
        "wall_s": [61.0, 64.0, 65.0],
        "median_wall_s": 64.0,
    }
    assert tier1["change"]["wall_s"] == [62.0, 63.0, 66.0]
    assert tier1["change"]["passed"] == [608] * 3

    calls.clear()
    args += ["--workload", "w", "--pairs", "1", "--out", str(out)]
    assert bench_pairs.main(args, run=fake_run, run_tier1=fake_tier1) == 0
    assert calls[:6] == [(side, "tier1") for side in order]
    assert calls[6:] == [("old", "w"), ("new", "w")]
    assert sorted(json.loads(out.read_text())) == [
        "commit",
        "host",
        "parent_commit",
        "tier1",
        "workloads",
    ]
    with pytest.raises(SystemExit):  # neither a workload nor tier-1 runs
        bench_pairs.main([str(tmp_path / "old"), "--out", str(out)], run=fake_run)


def test_a_tier1_run_reads_the_suite_counts(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "helper.py").write_text("VALUE = 1\n")
    (tmp_path / "test_a.py").write_text(
        "import helper\n\n"
        "def test_one():\n    assert helper.VALUE == 1\n\n"
        "def test_two():\n    assert True\n\n"
        "def test_three():\n    assert helper.VALUE == 2\n"
    )
    got = bench_pairs.run_tier1_once(tmp_path)
    assert (got["passed"], got["failed"]) == (2, 1) and got["wall_s"] > 0
