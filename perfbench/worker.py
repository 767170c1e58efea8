"""One repetition of one workload, in a fresh interpreter.

The harness (run.py) starts this script once per repetition, because the
package's module-level caches start cold for every command-line user. The
last line of standard output is one JSON object with the repetition's set-up
time, wall time, peak RSS, canonical output and run stamp, plus the per-layer
metrics when `--spans` names a file for the traced run's spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True, help="checkout root holding src/mlnexact")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() before spawn")
    ap.add_argument("--spans", help="trace the timed call and write its spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.join(os.path.abspath(args.root), "src")
    if not os.path.isfile(os.path.join(src, "mlnexact", "__init__.py")):
        print(f"no package source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import workloads

    spec = workloads.spec_for(args.workload, args.size)
    call = workloads.prepare(spec, args.seed)

    import mlnexact

    if not os.path.abspath(mlnexact.__file__).startswith(src + os.sep):
        print(f"mlnexact was imported from {mlnexact.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.spans:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    start = time.perf_counter()
    result = call()
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    out = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        out["spans"] = len(tracer.spans)
        out["missing_hooks"] = tracer.missing
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)

    import numpy

    out["output"] = workloads.canonical_output(spec, result)
    out["work"] = workloads.work_done(spec)
    out["stamp"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mlnexact": getattr(mlnexact, "__version__", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
