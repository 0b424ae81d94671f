"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED OUT [--workers N] [--trace]

Writes one JSON object to the file OUT: the workload's result (see
``workloads.py``) plus ``peak_rss_mb``.  ``--trace`` (with
``--workers 1``) installs the span recorder before any scenario exists
and adds the per-layer report under ``"layers"``.  ``run.py`` starts
this script once per repetition, so no repetition inherits another's
process state (the keypair pool, warmed caches) and no trace wrapper
reaches a timed run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def own_peak_rss_kib() -> int:
    """This process's peak resident set since it was exec'd (``VmHWM``).

    ``ru_maxrss`` is not used for it: Linux carries the high-water mark
    across exec, so it would report ``run.py`` (and its probe table)
    as it was when it forked this worker.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("out")
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    tmp_root = os.path.join(ROOT, ".perfbench")

    if args.trace and args.workers != 1:
        ap.error("--trace needs --workers 1: every span in this one process")
    recorder = None
    if args.trace:
        import spans

        recorder = spans.install()

    import workloads

    result = workloads.run(args.workload, args.seed, args.workers, tmp_root)
    kib = own_peak_rss_kib()
    if args.workers > 1:
        # Pool workers have been joined: count each at the largest
        # worker's peak (an upper bound -- they run concurrently).
        kib += args.workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = kib / 1024.0
    if recorder is not None:
        os.makedirs(tmp_root, exist_ok=True)
        result["layers"] = recorder.report(
            os.path.join(tmp_root, f"spans-{args.workload}.npz"))
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
