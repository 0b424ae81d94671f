"""``python -m repro.campaign`` -- run, resume, report and compare sweeps.

Subcommands
-----------
run      Execute a campaign spec (JSON) across a worker pool, streaming
         records to ``results.jsonl`` as they complete, and write the
         aggregate reports to the output directory.  ``--batch-size``
         groups runs per worker task (default: auto-tuned);
         ``--baseline`` additionally gates on a previous results file
         and exits non-zero on regression.
resume   Finish an interrupted campaign: skip the run indices already
         checkpointed in the output directory's ``results.jsonl``
         (discarding a torn final line from a crash mid-write), execute
         the rest, and finalize output byte-identical to an
         uninterrupted ``run``.
merge    Fuse ``campaign run --shard i/N`` checkpoint directories into
         one artifact byte-identical to a single-host run.  Refuses
         fingerprint mismatches; quarantines conflicting duplicate
         records to ``merge-conflicts.jsonl`` (as ``resume`` does: both
         load through one :class:`~repro.campaign.checkpoint.Checkpoint`);
         ``--allow-partial`` turns missing shards into a resumable
         checkpoint plus a ``merge-gaps.json`` manifest instead of an
         error.
report   Re-render the aggregate table from a results file/directory.
         Works on an in-flight or interrupted campaign: partial results
         aggregate normally and a torn tail is skipped with a warning.
         ``--follow`` re-reads a live campaign's results on each poll
         until all expected runs land, then prints the final
         aggregate -- byte-identical to a post-hoc report.
compare  Diff two results files; exit 1 when regressions are found.
         Either file may be in flight: a torn tail is skipped with a
         warning and the missing runs show as removed (an error only
         under ``--strict``).
explain  Replay one run of a finished campaign directory (by run id or
         index) with the trace recorder on, check that the replayed
         record equals its ``results.jsonl`` line, and print its trace
         (``--node``/``--type`` filter it).  Exit 1 names the fields
         where the replay diverged.

Exit codes: 0 ok; 1 regression detected (explain: replay diverged);
2 bad input; 3 runs failed; 128+signum when a run/resume was
interrupted by SIGINT/SIGTERM (the checkpoint is flushed first, so
``resume`` finishes the campaign).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.campaign.aggregate import aggregate, load_results, report_text
from repro.campaign.baseline import compare, comparison_text
from repro.campaign.checkpoint import Checkpoint
from repro.campaign.merge import discover_shard_dirs, merge_shards
from repro.campaign.runner import (
    CampaignInterrupted,
    CampaignRunner,
    InlineExecutor,
    LocalExecutor,
    execute_run,
)
from repro.campaign.shard import parse_shard
from repro.campaign.spec import CampaignSpec


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1, rejected with a one-line message."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _shard_arg(text: str) -> tuple[int, int]:
    """argparse type for ``--shard i/N``; exit 2 on malformed input."""
    try:
        return parse_shard(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _report_and_gate(records: list[dict], args) -> int:
    """Shared run/resume/merge epilogue: print the aggregate, apply the gate."""
    if getattr(args, "shard", None) is not None:
        # One shard's slice aggregates to a misleading table, and a
        # baseline gate over it would flag the missing shards as matrix
        # drift; reporting happens after `campaign merge`.
        failed = sum(1 for r in records if r.get("status") != "ok")
        print(f"shard {args.shard[0]}/{args.shard[1]}: {len(records)} runs "
              f"checkpointed ({failed} failed); aggregate and gate after "
              "'campaign merge'")
        return 3 if failed else 0
    report = aggregate(records)
    print()
    print(report_text(report))

    exit_code = 0
    if report["failed"]:
        exit_code = 3
    if args.baseline:
        result = compare(
            load_results(args.baseline), records,
            pdr_tol=args.pdr_tol, latency_tol=args.latency_tol,
        )
        print()
        print(comparison_text(result))
        # failed runs (exit 3) outrank a metrics regression (exit 1):
        # a run that no longer executes is the stronger signal
        if result["regressions"] and exit_code == 0:
            exit_code = 1
    return exit_code


def _make_runner(args) -> CampaignRunner:
    spec = CampaignSpec.from_file(args.spec)
    if args.shard is not None:
        spec.shard_index, spec.shards = args.shard
    return CampaignRunner(
        spec,
        workers=args.workers,
        batch_size=args.batch_size,
        out_dir=args.out or f"campaigns/{spec.name}",
        echo=None if args.quiet else print,
        progress=args.progress,
        telemetry=args.telemetry,
        executor=args.executor,
    )


def _cmd_run(args) -> int:
    return _report_and_gate(_make_runner(args).run(), args)


def _cmd_resume(args) -> int:
    return _report_and_gate(_make_runner(args).resume(), args)


def _cmd_merge(args) -> int:
    spec = CampaignSpec.from_file(args.spec)
    out_dir = args.out or f"campaigns/{spec.name}"
    shard_dirs = args.shards or discover_shard_dirs(out_dir)
    if not shard_dirs:
        print(f"error: no shard-*-of-* directories under {out_dir} "
              "(pass them explicitly with --shards)", file=sys.stderr)
        return 2
    echo = None if args.quiet else print
    summary = merge_shards(
        spec, shard_dirs, out_dir,
        allow_partial=args.allow_partial,
        echo=echo, telemetry=args.telemetry,
    )
    if not summary["complete"]:
        # partial merge: usable checkpoint, but not the final artifact
        return 3
    return _report_and_gate(load_results(out_dir), args)


def _resolve_results(target) -> tuple[str, str | None]:
    """``(results_path, spec_path or None)`` for a file or campaign dir."""
    if os.path.isdir(target):
        spec_path = os.path.join(target, "spec.json")
        return (os.path.join(target, "results.jsonl"),
                spec_path if os.path.exists(spec_path) else None)
    sibling = os.path.join(os.path.dirname(target) or ".", "spec.json")
    return os.fspath(target), sibling if os.path.exists(sibling) else None


def _cmd_report(args) -> int:
    results_path, spec_path = _resolve_results(args.results)
    if args.follow:
        from repro.obs.follow import follow_report

        total = None
        if spec_path is not None:
            # the runs this directory's checkpoint owns: a shard
            # directory holds only its slice of the matrix
            total = len(Checkpoint(CampaignSpec.from_file(spec_path)).payloads)

        def on_update(seen):
            suffix = f"/{total}" if total is not None else ""
            print(f"follow: {seen}{suffix} runs aggregated",
                  file=sys.stderr, flush=True)

        report = follow_report(
            results_path, total=total,
            interval=args.interval, on_update=on_update,
        )
    else:
        if not os.path.exists(results_path):
            print(f"error: {results_path}: no results here -- "
                  "run the campaign first (or pass --follow to wait for it)",
                  file=sys.stderr)
            return 2
        report = aggregate(load_results(results_path))

    if args.json:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(report_text(report))
    return 0


def _cmd_compare(args) -> int:
    result = compare(
        load_results(args.baseline), load_results(args.current),
        pdr_tol=args.pdr_tol, latency_tol=args.latency_tol,
    )
    print(comparison_text(result))
    if result["regressions"]:
        return 1
    if args.strict and (
        result["removed"] or result["mismatched"] or not result["matched"]
    ):
        # Run-matrix drift means the gate compared less than it thinks:
        # a CI baseline that silently matches nothing is no gate at all.
        print(
            "strict: run matrix drifted from the baseline "
            f"(matched={result['matched']}, "
            f"removed={len(result['removed'])}, "
            f"mismatched={len(result['mismatched'])}); "
            "regenerate the baseline if the change is intentional"
        )
        return 1
    return 0


def _field_diffs(stored, replayed, path: str = "") -> list[str]:
    """One line per field where two records differ as canonical JSON
    (empty exactly when their canonical JSON is equal)."""
    if not (isinstance(stored, dict) and isinstance(replayed, dict)):
        a = json.dumps(stored, sort_keys=True)
        b = json.dumps(replayed, sort_keys=True)
        return [] if a == b else [f"{path}: stored {a}, replayed {b}"]
    lines = []
    for key in sorted(set(stored) | set(replayed)):
        field = f"{path}.{key}" if path else key
        if key not in replayed:
            lines.append(f"{field}: stored only")
        elif key not in stored:
            lines.append(f"{field}: replayed only")
        else:
            lines += _field_diffs(stored[key], replayed[key], field)
    return lines


def _cmd_explain(args) -> int:
    spec = CampaignSpec.from_file(os.path.join(args.dir, "spec.json"))
    checkpoint = Checkpoint(spec, args.dir,
                            say=lambda msg: print(msg, file=sys.stderr))
    checkpoint.load(verb="explain")
    run = next((r for r in checkpoint.payloads
                if args.run in (r["run_id"], str(r["index"]))), None)
    if run is None:
        print(f"error: {args.dir} has no run {args.run!r} (give a run id "
              f"or an index 0..{checkpoint.matrix_runs - 1})", file=sys.stderr)
        return 2
    stored = checkpoint.records.get(run["index"])
    if stored is None:
        print(f"error: {run['run_id']} has no record in {args.dir}/results.jsonl",
              file=sys.stderr)
        return 2

    traces = []

    def record_trace(scenario) -> None:
        scenario.trace.enabled = True
        traces.append(scenario.trace)

    replayed = execute_run(run, on_build=record_trace)
    diffs = _field_diffs(stored, replayed)
    if diffs:
        print(f"error: replay of {run['run_id']} diverged from results.jsonl:",
              file=sys.stderr)
        for line in diffs:
            print(f"  {line}", file=sys.stderr)
        return 1
    events = traces[0].filter(node=args.node, msg_type=args.type) if traces else []
    print(f"{run['run_id']}: replay matches results.jsonl; "
          f"{len(events)} trace events", file=sys.stderr)
    for event in events:
        print(event)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Sharded parallel scenario sweeps with aggregation "
                    "and regression baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_execution_args(p) -> None:
        p.add_argument("spec", help="path to a campaign spec JSON file")
        p.add_argument("--workers", type=_positive_int, default=2,
                       help="worker processes (1 runs inline; default 2)")
        p.add_argument("--batch-size", type=_positive_int, default=None,
                       help="runs grouped per worker task (default: the "
                            "spec's batch_size, else auto-tuned from the "
                            "matrix size and worker count; never changes "
                            "results)")
        p.add_argument("--shard", type=_shard_arg, default=None,
                       metavar="i/N",
                       help="execute only shard i of an N-way split of the "
                            "run matrix (checkpoint goes to "
                            "<out>/shard-i-of-N/; fuse with 'merge')")
        p.add_argument("--executor", default=LocalExecutor.name,
                       choices=sorted((InlineExecutor.name,
                                       LocalExecutor.name)),
                       help="execution backend (default local: a "
                            "multiprocessing pool on this host)")
        p.add_argument("--out", default=None,
                       help="output directory (default campaigns/<name>)")
        p.add_argument("--baseline", default=None,
                       help="previous results.jsonl to gate against")
        p.add_argument("--pdr-tol", type=float, default=0.02)
        p.add_argument("--latency-tol", type=float, default=0.25)
        p.add_argument("--quiet", action="store_true")
        p.add_argument("--progress", action="store_true",
                       help="print a progress ticker (with rate and ETA) "
                            "to stderr as batches complete")
        p.add_argument("--telemetry", action="store_true",
                       help="append an fsync'd telemetry.jsonl sidecar "
                            "(per-batch wall time, worker pid, runs/sec) "
                            "next to results.jsonl; never changes results")

    p_run = sub.add_parser("run", help="execute a campaign spec")
    _add_execution_args(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_resume = sub.add_parser(
        "resume",
        help="finish an interrupted campaign from its results.jsonl "
             "checkpoint (byte-identical to an uninterrupted run)")
    _add_execution_args(p_resume)
    p_resume.set_defaults(func=_cmd_resume)

    p_merge = sub.add_parser(
        "merge",
        help="fuse shard checkpoint directories into one campaign "
             "artifact (byte-identical to a single-host run)")
    p_merge.add_argument("spec", help="path to the campaign spec JSON file")
    p_merge.add_argument("--out", default=None,
                         help="merged output directory, also the default "
                              "place shards are discovered "
                              "(default campaigns/<name>)")
    p_merge.add_argument("--shards", nargs="+", default=None,
                         metavar="DIR",
                         help="shard checkpoint directories to merge "
                              "(default: shard-*-of-* under --out)")
    p_merge.add_argument("--allow-partial", action="store_true",
                         help="accept missing shards/runs: write the merged "
                              "records as a resumable checkpoint plus a "
                              "merge-gaps.json manifest and exit 3")
    p_merge.add_argument("--baseline", default=None,
                         help="previous results.jsonl to gate against")
    p_merge.add_argument("--pdr-tol", type=float, default=0.02)
    p_merge.add_argument("--latency-tol", type=float, default=0.25)
    p_merge.add_argument("--quiet", action="store_true")
    p_merge.add_argument("--telemetry", action="store_true",
                         help="append a v3 'merge' summary record to the "
                              "merged directory's telemetry.jsonl")
    p_merge.set_defaults(func=_cmd_merge)

    p_report = sub.add_parser("report", help="render the aggregate table")
    p_report.add_argument("results", help="results.jsonl or campaign directory")
    p_report.add_argument("--json", action="store_true",
                          help="emit the full report as JSON")
    p_report.add_argument("--follow", action="store_true",
                          help="re-read a live campaign on each poll until "
                               "all expected runs land (waits for the "
                               "results file to appear)")
    p_report.add_argument("--interval", type=float, default=0.5,
                          help="poll interval for --follow (seconds, "
                               "default 0.5)")
    p_report.set_defaults(func=_cmd_report)

    p_cmp = sub.add_parser("compare", help="diff two results files")
    p_cmp.add_argument("baseline")
    p_cmp.add_argument("current")
    p_cmp.add_argument("--pdr-tol", type=float, default=0.02)
    p_cmp.add_argument("--latency-tol", type=float, default=0.25)
    p_cmp.add_argument("--strict", action="store_true",
                       help="also fail when the run matrix drifted "
                            "(removed/mismatched/zero matched runs)")
    p_cmp.set_defaults(func=_cmd_compare)

    p_explain = sub.add_parser(
        "explain",
        help="replay one run with the trace recorder on, check it against "
             "results.jsonl, and print its trace")
    p_explain.add_argument("dir", help="campaign output directory "
                                       "(spec.json + results.jsonl)")
    p_explain.add_argument("run", help="run id (e.g. reference-0004) or index")
    p_explain.add_argument("--node", default=None, metavar="NAME",
                           help="only this node's events (e.g. n2, dns, medium)")
    p_explain.add_argument("--type", default=None, metavar="MSG",
                           help="only this message type (e.g. RREQ, DATA, FAULT)")
    p_explain.set_defaults(func=_cmd_explain)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout was closed early (e.g. piped into head); not an error
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except CampaignInterrupted as exc:
        # Graceful SIGINT/SIGTERM shutdown: the checkpoint is flushed;
        # exit with the conventional 128+signum so wrappers see the kill.
        print(f"interrupted: {exc}", file=sys.stderr)
        return 128 + exc.signum
    except FileNotFoundError as exc:
        print(f"error: {exc.filename or exc}: no such file", file=sys.stderr)
        return 2
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
