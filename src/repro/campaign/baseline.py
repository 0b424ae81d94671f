"""Baseline snapshots: detect PDR/latency regressions between campaigns.

A baseline is simply a saved ``results.jsonl`` from a previous run of
the same campaign spec (same name, seed, axes).  Because records are
deterministic and sorted, comparison is a run_id-aligned walk flagging:

* runs that were ``ok`` and now fail (or time out),
* PDR drops beyond an absolute tolerance,
* latency-p95 growth beyond a relative tolerance,
* runs added to / removed from the matrix (spec drift -- reported, not
  treated as a regression).

Because the runner streams and resumes campaigns, a ``current`` record
list may come from an in-flight sweep (the CLI reads every results file
through :func:`~repro.campaign.aggregate.read_jsonl_partial`, which
drops a torn tail with a warning); its missing runs then show up as
``removed`` -- visible in the comparison text, and fatal under the
CLI's ``--strict`` gate -- rather than crashing the walk.  Finalized outputs are byte-identical regardless of worker count,
batch size, or resume history, so comparisons never need to care how a
results file was produced.
"""

from __future__ import annotations

#: Ignore latency regressions below this many seconds of absolute growth
#: (keeps micro-jitter on near-zero latencies from tripping the gate).
_LATENCY_ABS_FLOOR = 1e-3


def compare(
    baseline: list[dict],
    current: list[dict],
    pdr_tol: float = 0.02,
    latency_tol: float = 0.25,
) -> dict:
    """Compare two record lists; see module docstring for the checks."""
    base_by_id = {r["run_id"]: r for r in baseline}
    cur_by_id = {r["run_id"]: r for r in current}

    regressions: list[str] = []
    improvements: list[str] = []
    mismatched: list[str] = []
    matched = 0

    for run_id in sorted(base_by_id.keys() & cur_by_id.keys()):
        base, cur = base_by_id[run_id], cur_by_id[run_id]
        if base.get("params") != cur.get("params"):
            # same run_id but a different grid point: the spec drifted
            # (an axis value changed without changing cardinality);
            # comparing metrics would diff unrelated scenarios
            mismatched.append(
                f"{run_id}: params changed "
                f"{base.get('params')} -> {cur.get('params')}"
            )
            continue
        matched += 1
        if base["status"] == "ok" and cur["status"] != "ok":
            regressions.append(
                f"{run_id}: was ok, now {cur['status']} "
                f"({cur.get('error', '')})"
            )
            continue
        if base["status"] != "ok" and cur["status"] == "ok":
            improvements.append(f"{run_id}: was {base['status']}, now ok")
            continue
        if base["status"] != "ok" or cur["status"] != "ok":
            continue

        base_sum, cur_sum = base["summary"], cur["summary"]
        base_pdr = base_sum.get("pdr", 0.0)
        cur_pdr = cur_sum.get("pdr", 0.0)
        pdr_delta = cur_pdr - base_pdr
        if pdr_delta < -pdr_tol:
            regressions.append(
                f"{run_id}: pdr {base_pdr:.3f} -> {cur_pdr:.3f} "
                f"(drop {-pdr_delta:.3f} > tol {pdr_tol})"
            )
        elif pdr_delta > pdr_tol:
            improvements.append(f"{run_id}: pdr {base_pdr:.3f} -> {cur_pdr:.3f}")

        base_lat = base_sum.get("latency_p95", 0.0)
        cur_lat = cur_sum.get("latency_p95", 0.0)
        grew = cur_lat - base_lat
        # base_lat == 0 means the baseline delivered nothing; any growth
        # is then new delivery (an improvement), not a latency regression
        if (base_lat > 0.0 and grew > _LATENCY_ABS_FLOOR
                and cur_lat > base_lat * (1.0 + latency_tol)):
            regressions.append(
                f"{run_id}: latency_p95 {base_lat:.4f}s -> {cur_lat:.4f}s "
                f"(> {latency_tol:.0%} growth)"
            )

    return {
        "matched": matched,
        "added": sorted(cur_by_id.keys() - base_by_id.keys()),
        "removed": sorted(base_by_id.keys() - cur_by_id.keys()),
        "mismatched": mismatched,
        "regressions": regressions,
        "improvements": improvements,
    }


def comparison_text(result: dict) -> str:
    lines = [
        f"Baseline comparison: {result['matched']} matched run(s), "
        f"{len(result['regressions'])} regression(s), "
        f"{len(result['improvements'])} improvement(s)"
    ]
    for reg in result["regressions"]:
        lines.append(f"  REGRESSION {reg}")
    for imp in result["improvements"]:
        lines.append(f"  improved   {imp}")
    for drift in result.get("mismatched", []):
        lines.append(f"  SPEC DRIFT {drift}")
    if result["added"]:
        lines.append(f"  added runs: {', '.join(result['added'])}")
    if result["removed"]:
        lines.append(f"  removed runs: {', '.join(result['removed'])}")
    return "\n".join(lines)
