"""Repository benchmark: four paper workloads from one seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` repeats the workload, each
repetition in a fresh interpreter, until ``--seconds`` have passed (at
least ``MIN_REPS`` times), checks every repetition's outputs, and prints
the end-to-end metrics: host metrics are medians over the repetitions,
simulated metrics are exact for the seed.  ``--trace 1`` runs the
workload once untraced and once under the span recorder (each in its
own interpreter, the sweep inline in both) and prints the per-layer
metrics, the share of traced time the named layers cover, and the
tracing overhead.

Every repetition runs pinned to one CPU while this process times a
fixed kernel on that CPU, and host times are reported in reference
seconds: what the phase would have taken had the CPU run at its
reference speed (see ``probe.py``).  The campaign pool shares that CPU,
so the sweep's ``wall_s`` is its pool work serialized.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every check held, 1 when one failed, 2 on a usage or
environment error (no result is printed then).  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import layers
from probe import PERIOD_S, HostProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Repetition results and error logs (ignored by git).
WORK_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("formation", "secure_routing", "mobile_faults", "campaign_sweep")
MIN_REPS = 3
#: No repetition starts once it could not finish within this many
#: seconds of the run's start, and one still running then is killed
#: (a run must end well inside 180 s).
BUDGET_S = 150

#: End-to-end metrics gated in BENCHMARK.json: every workload has them.
GATED = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}

#: Simulated end-to-end metrics printed where the workload has them.
SIMULATED_UNITS = {
    "pdr": "ratio",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "time_to_address_p50_s": "s",
    "time_to_address_p90_s": "s",
    "control_bytes_per_node": "B",
}


class BenchError(Exception):
    """The benchmark could not run (bad input or environment)."""


def workers_for(workload: str) -> int:
    """Pool size: ``run_campaign``'s default of 2, capped at the CPU count
    (the pool still shares the probe's one CPU: its work is serialized)."""
    if workload != "campaign_sweep":
        return 1
    return max(1, min(2, os.cpu_count() or 1))


def repetition(probe: HostProbe, workload: str, seed: int, trace: bool,
               workers: int, deadline: float) -> dict:
    """One repetition in a fresh interpreter; returns its result dict.

    The worker inherits the probe's CPU pin, and the probe samples that
    CPU until the worker exits.  The worker gets its own process group,
    so a repetition that runs past ``deadline`` is killed together with
    any campaign pool workers.
    """
    os.makedirs(WORK_DIR, exist_ok=True)
    out_path = os.path.join(WORK_DIR, f"rep-{workload}.json")
    if os.path.exists(out_path):
        os.remove(out_path)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
           out_path, "--workers", str(workers)]
    if trace:
        cmd.append("--trace")
    with open(os.path.join(WORK_DIR, f"rep-{workload}.err"), "w+") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=err, process_group=0)
        try:
            while proc.poll() is None:
                if time.monotonic() > deadline:
                    raise BenchError(f"{workload} repetition ran past {BUDGET_S} s")
                time.sleep(PERIOD_S)
                probe.sample()
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0 or not os.path.exists(out_path):
            err.seek(0)
            raise BenchError(f"{workload} repetition failed (exit {proc.returncode}):\n"
                             f"{err.read().strip()[-2000:]}")
    with open(out_path) as fh:
        result = json.load(fh)
    t0, t1, t2 = result["phases"]
    result["setup_s"] = probe.normalised(t0, t1)
    result["wall_s"] = probe.normalised(t1, t2)
    result["wall_elapsed_s"] = t2 - t1
    result["slowdown"] = probe.slowdown(t0, t2)
    return result


def failed_checks(reps: list[dict]) -> list[str]:
    """Names of the checks that did not hold on some repetition."""
    bad = sorted({name for r in reps for name, ok in r["checks"].items() if not ok})
    if len({r["digest"] for r in reps}) != 1:
        bad.append("digest_identical_across_runs")
    if any(r["pool_hits"] for r in reps if "layers" not in r):
        bad.append("keypair_pool_cold")
    return bad


def print_row(name: str, value, unit: str) -> None:
    print(f"  {name:<34} {value:>16.6g} {unit}")


def end_to_end(args, probe: HostProbe) -> tuple[dict, dict, list[str]]:
    started = time.monotonic()
    deadline = started + BUDGET_S
    reps, last = [], 0.0
    while len(reps) < MIN_REPS or time.monotonic() - started < args.seconds:
        begun = time.monotonic()
        if reps and begun + last > deadline:
            break
        reps.append(repetition(probe, args.workload, args.seed, False,
                               workers_for(args.workload), deadline))
        last = time.monotonic() - begun
    first = reps[0]
    metrics = {name: statistics.median(r[name] for r in reps) for name in GATED}
    attempted, failed = first["ops"]["attempted"], first["ops"]["failed"]
    print(f"workload {args.workload}, seed {args.seed}: {len(reps)} repetitions "
          f"on CPU {probe.cpu}")
    for name, unit in GATED.items():
        print_row(name, metrics[name], unit)
    print_row("wall_elapsed_s", statistics.median(r["wall_elapsed_s"] for r in reps), "s")
    print_row("host_slowdown", statistics.median(r["slowdown"] for r in reps), "ratio")
    print_row("ops_failed_share", failed / attempted, "ratio")
    for name, unit in SIMULATED_UNITS.items():
        if name in first["sim"]:
            print_row(name, first["sim"][name], unit)
    for name, value in first["sim"].items():
        if name not in SIMULATED_UNITS:
            print_row(name, value, "count" if isinstance(value, int) else "ratio")
    out = {name: {"value": metrics[name], "unit": unit} for name, unit in GATED.items()}
    return out, first["ops"], failed_checks(reps)


def traced(args, probe: HostProbe) -> tuple[dict, dict, list[str]]:
    # Both inline: the traced sweep runs in one process, so the overhead
    # compares like with like.
    deadline = time.monotonic() + BUDGET_S
    plain = repetition(probe, args.workload, args.seed, False, 1, deadline)
    spanned = repetition(probe, args.workload, args.seed, True, 1, deadline)
    values = layers.per_layer(spanned, plain)
    units = layers.units()
    print(f"workload {args.workload}, seed {args.seed}: traced run on CPU {probe.cpu}")
    for name, value in values.items():
        print_row(name, value, units[name])
    out = {name: {"value": values[name], "unit": units[name]} for name in values}
    return out, plain["ops"], failed_checks([plain, spanned])


def _on_sigterm(signum, _frame):
    # Unwind through repetition()'s cleanup, which kills the worker group.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the default seed in layer_map.json)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program sources under {os.path.join(ROOT, 'src')}; "
              "run from a repository checkout", file=sys.stderr)
        return 2
    if args.seed is None:
        with open(layers.MAP_FILE) as fh:
            args.seed = json.load(fh)["seeds"]["default"]
    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        metrics, ops, bad = (traced if args.trace else end_to_end)(args, HostProbe())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name in bad:
        print(f"CHECK FAILED: {name}", file=sys.stderr)
    print(json.dumps({"correct": not bad, "attempted": ops["attempted"],
                      "failed": ops["failed"], "metrics": metrics}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
