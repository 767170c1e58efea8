"""Span tracing from outside the package, for the benchmark's traced run.

Every public function or method the per-layer metrics name is replaced, in
each module that looks it up, by a wrapper that records a span (name, parent,
start, end) and exact counts. `bounds`, `learning` and `experiment` import
names from `model` with `from ... import`, so a function is patched in every
module that holds a reference to it, not only where it is defined. Spans stay
in memory until the run ends.

A span's self time is its duration minus the time its child spans cover;
children of one span never overlap, because the workload runs one call at a
time in a single thread.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter

LAYERS = ("logic", "worlds", "model", "bounds", "learning", "datagen", "experiment")


def _count_worlds(c, args, kwargs, result):
    c["model.kernel_worlds"] += len(args[1])


def _count_world(c, args, kwargs, result):
    c["model.kernel_worlds"] += 1


def _count_rows(c, args, kwargs, result):
    table = args[0]
    c["model.grounding_rows"] += sum(g.cols.shape[0] for e in table.entries for g in e.groups)


def _count_fit(c, args, kwargs, result):
    c["learning.fits"] += 1
    c["learning.newton_iters"] += result.iterations
    c["learning.unconverged"] += not result.converged


def _count_evaluator_bytes(c, args, kwargs, result):
    counts = getattr(args[0], "_counts", None)
    # Computed from the array's shape and dtype: 2^G x clauses x itemsize.
    c["experiment.evaluator_bytes"] += 0 if counts is None else counts.nbytes


def _count_calls(key):
    def hook(c, args, kwargs, result):
        c[key] += 1

    return hook


# (span name, "module:attribute" of the definition, other modules that import
# it by name, count hook). Methods are patched once, on their class.
HOOKS = (
    ("model.kernel", "model:GroundingTable.log_weights", (), _count_worlds),
    ("model.kernel", "model:GroundingTable.counts_matrix", (), _count_worlds),
    ("model.kernel", "model:GroundingTable.counts_world", (), _count_world),
    ("model.bit_codes", "model:bit_codes", ("bounds",), None),
    ("model.lse", "model:RunningLogSumExp.update", (), None),
    ("model.compile", "model:GroundingTable.__init__", (), _count_rows),
    ("model.log_partition", "learning:log_partition", (), _count_calls("model.log_partition_calls")),
    ("bounds.verify_all", "bounds:verify_all", (), None),
    ("bounds.split_pass", "bounds:_split_context", (), None),
    ("bounds.extrema", "bounds:cross_weight_bounds", (), None),
    ("learning.learn", "learning:learn", ("experiment",), _count_fit),
    ("learning.counts_build", "learning:_counts_for", (), None),
    ("learning.sweep", "learning:lambda_sweep", ("experiment",), None),
    ("learning.target_ll", "learning:target_log_likelihoods", (), None),
    ("experiment.run_experiment", "experiment:run_experiment", (), None),
    ("experiment.evaluator_build", "experiment:SizeEvaluator.__init__", (), _count_evaluator_bytes),
    (
        "experiment.evaluator_logz",
        "experiment:SizeEvaluator.log_partition",
        (),
        _count_calls("experiment.evaluator_logz_calls"),
    ),
    ("experiment.train_set", "experiment:_run_one", (), None),
    ("datagen.generate", "datagen:generate_friends_smokers", ("experiment",), None),
    ("datagen.subsample", "datagen:subsample", ("experiment",), None),
    ("worlds.atom_index", "worlds:AtomIndex.__init__", (), None),
    ("logic.normalize", "logic:normalize_distinct", ("bounds", "learning", "experiment"), None),
)

# Per-layer metrics: name -> unit. Names ending in `_self_s` are self times;
# other `_s` names are inclusive durations summed over calls.
METRICS = {
    "model.kernel_s": "s",
    "model.kernel_worlds": "count",
    "model.kernel_ns_per_world": "ns",
    "model.bit_codes_s": "s",
    "model.lse_s": "s",
    "model.compile_s": "s",
    "model.grounding_rows": "count",
    "model.table_cache_hit_ratio": "ratio",
    "model.log_partition_s": "s",
    "model.log_partition_calls": "count",
    "bounds.split_pass_self_s": "s",
    "bounds.extrema_s": "s",
    "learning.learn_s": "s",
    "learning.learn_self_s": "s",
    "learning.fits": "count",
    "learning.newton_iters": "count",
    "learning.s_per_newton_iter": "s",
    "learning.unconverged_ratio": "ratio",
    "learning.counts_build_s": "s",
    "learning.counts_cache_hit_ratio": "ratio",
    "learning.sweep_s": "s",
    "learning.target_ll_s": "s",
    "experiment.evaluator_build_s": "s",
    "experiment.evaluator_logz_s": "s",
    "experiment.evaluator_logz_calls": "count",
    "experiment.evaluator_bytes": "B",
    "experiment.train_set_median_s": "s",
    "experiment.train_set_max_s": "s",
    "datagen.generate_s": "s",
    "datagen.subsample_s": "s",
    "worlds.atom_index_s": "s",
    "logic.normalize_s": "s",
    **{f"layer.{layer}_self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}

# Counts that must repeat exactly between runs of one seed.
EXACT_COUNTS = (
    "model.kernel_worlds",
    "model.grounding_rows",
    "model.log_partition_calls",
    "learning.fits",
    "learning.newton_iters",
    "experiment.evaluator_logz_calls",
    "experiment.evaluator_bytes",
    "model.table_cache_hit_ratio",
    "learning.counts_cache_hit_ratio",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent id, start ns, end ns, nested in same name]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, hook=None):
        spans, stack, active, counts = self.spans, self._stack, self._active, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0, 0, active[name] > 0]
            spans.append(span)
            stack.append(len(spans) - 1)
            active[name] += 1
            span[2] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                active[name] -= 1
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every hook; a hook whose target no longer exists is listed as missing."""
        for name, target, importers, hook in HOOKS:
            module_name, _, attr = target.partition(":")
            module = importlib.import_module(f"mlnexact.{module_name}")
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, leaf, None) if holder is not None else None
            if original is None:
                self.missing.append(target)
                continue
            wrapper = self.wrap(name, original, hook)
            self._patch(holder, leaf, wrapper)
            if not owner:
                for other in importers:
                    mod = importlib.import_module(f"mlnexact.{other}")
                    if getattr(mod, leaf, None) is original:
                        self._patch(mod, leaf, wrapper)

    def _patch(self, holder, attr, value) -> None:
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def self_times(self) -> list[int]:
        covered = [0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, _, start, end, _) in enumerate(self.spans)]

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the trace.* ones the harness adds."""
        import mlnexact.learning as learning
        import mlnexact.model as model

        total: Counter = Counter()  # inclusive ns by span name, outermost calls only
        self_ns: Counter = Counter()
        train_sets: list[float] = []
        for (name, _, start, end, nested), own in zip(self.spans, self.self_times()):
            self_ns[name] += own
            if not nested:
                total[name] += end - start
            if name == "experiment.train_set":
                train_sets.append((end - start) / 1e9)

        def s(ns):
            return ns / 1e9

        c = self.counts
        out = {
            "model.kernel_s": s(total["model.kernel"]),
            "model.kernel_worlds": c["model.kernel_worlds"],
            "model.kernel_ns_per_world": _ratio(total["model.kernel"], c["model.kernel_worlds"]),
            "model.bit_codes_s": s(total["model.bit_codes"]),
            "model.lse_s": s(total["model.lse"]),
            "model.compile_s": s(total["model.compile"]),
            "model.grounding_rows": c["model.grounding_rows"],
            "model.table_cache_hit_ratio": _hit_ratio(getattr(model, "_table", None)),
            "model.log_partition_s": s(total["model.log_partition"]),
            "model.log_partition_calls": c["model.log_partition_calls"],
            "bounds.split_pass_self_s": s(self_ns["bounds.split_pass"]),
            "bounds.extrema_s": s(total["bounds.extrema"]),
            "learning.learn_s": s(total["learning.learn"]),
            "learning.learn_self_s": s(self_ns["learning.learn"]),
            "learning.fits": c["learning.fits"],
            "learning.newton_iters": c["learning.newton_iters"],
            "learning.s_per_newton_iter": _ratio(
                s(self_ns["learning.learn"]), c["learning.newton_iters"]
            ),
            "learning.unconverged_ratio": _ratio(c["learning.unconverged"], c["learning.fits"]),
            "learning.counts_build_s": s(total["learning.counts_build"]),
            "learning.counts_cache_hit_ratio": _hit_ratio(
                getattr(learning, "_counts_cached", None)
            ),
            "learning.sweep_s": s(total["learning.sweep"]),
            "learning.target_ll_s": s(total["learning.target_ll"]),
            "experiment.evaluator_build_s": s(total["experiment.evaluator_build"]),
            "experiment.evaluator_logz_s": s(total["experiment.evaluator_logz"]),
            "experiment.evaluator_logz_calls": c["experiment.evaluator_logz_calls"],
            "experiment.evaluator_bytes": c["experiment.evaluator_bytes"],
            "experiment.train_set_median_s": statistics.median(train_sets) if train_sets else 0.0,
            "experiment.train_set_max_s": max(train_sets, default=0.0),
            "datagen.generate_s": s(total["datagen.generate"]),
            "datagen.subsample_s": s(total["datagen.subsample"]),
            "worlds.atom_index_s": s(total["worlds.atom_index"]),
            "logic.normalize_s": s(total["logic.normalize"]),
        }
        for layer in LAYERS:
            out[f"layer.{layer}_self_s"] = s(
                sum(v for k, v in self_ns.items() if k.partition(".")[0] == layer)
            )
        return out

    def dump(self) -> dict:
        return {
            "fields": ["name", "parent", "start_ns", "end_ns", "self_ns"],
            "spans": [
                [name, parent, start, end, own]
                for (name, parent, start, end, _), own in zip(self.spans, self.self_times())
            ],
            "missing_hooks": self.missing,
        }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _hit_ratio(cached) -> float:
    info = cached.cache_info() if hasattr(cached, "cache_info") else None
    if info is None:
        return 0.0
    return _ratio(info.hits, info.hits + info.misses)
