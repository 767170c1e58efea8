"""The benchmark's traced run wraps named functions from outside the package.

``perfbench/spans.py`` lists them in ``HOOKS``; a target that no longer
resolves is skipped silently at run time and its per-layer metrics read 0.
This test reads that file's source (it writes nothing under ``perfbench/``)
and checks that every target resolves, apart from six known stale ones.
"""

import importlib
from pathlib import Path
from types import ModuleType

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Targets that the harness still names but the package no longer has.
STALE = {
    "model:RunningLogSumExp.update",
    "experiment:SizeEvaluator.__init__",
    "experiment:SizeEvaluator.log_partition",
    # The plain block kernel moved into the tests' oracles; every pass reads
    # the pair stream instead.
    "model:GroundingTable.log_weights",
    "model:GroundingTable.counts_matrix",
    # The factorization checks sum restriction tables per block of the pair
    # stream; the bit gather moved into the tests' oracles.
    "model:bit_codes",
}


def _hooks():
    spans = ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans.__dict__)
    return spans.HOOKS


def _resolve(target: str):
    module_name, _, attr = target.partition(":")
    holder = importlib.import_module(f"mlnexact.{module_name}")
    for part in attr.split("."):
        if holder is None:
            return None
        holder = getattr(holder, part, None)
    return holder


def test_every_hook_target_resolves():
    targets = [target for _, target, _, _ in _hooks()]
    assert {t for t in targets if _resolve(t) is None} == STALE
