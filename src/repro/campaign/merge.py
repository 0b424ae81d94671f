"""``campaign merge``: fuse shard checkpoints into one campaign artifact.

A merge is an unsharded :class:`~repro.campaign.checkpoint.Checkpoint`
loaded from the union of shard checkpoints, so it refuses, discards and
deduplicates exactly as ``campaign resume`` does
(:mod:`repro.campaign.checkpoint` has the rules):
mismatched provenance refuses the whole merge, drifted records are
dropped, identical copies of a run index are kept once, and differing
copies are all quarantined to ``merge-conflicts.jsonl`` (each copy
once, however often the same shards are merged) while the index becomes
a gap.  Missing runs (a lost host, a conflict) refuse the merge unless
``allow_partial=True``, which instead writes the merged records as a
*resumable checkpoint* plus a ``merge-gaps.json`` manifest; ``campaign
resume`` then executes exactly the holes and finalizes byte-identical
artifacts.  A lost host costs its unfinished runs, never the campaign.

The contract is byte-identity: merging any shard split of a campaign
produces ``results.jsonl`` / ``report.json`` / ``report.txt`` identical
to a single-host run of the same spec, because the merged checkpoint
finalizes exactly like the single-host runner's.  Merging is idempotent
and order-independent: any shard order, repeated merges, and re-merging
an already-merged directory (a plain campaign directory is accepted as
a degenerate "shard") all yield the same bytes.
"""

from __future__ import annotations

import dataclasses
import os

from repro.campaign.aggregate import write_json_artifact
from repro.campaign.checkpoint import (  # noqa: F401 - re-exported
    MERGE_CONFLICTS,
    MERGE_GAPS,
    Checkpoint,
    CheckpointError,
    validate_merge_conflicts_file,
)
from repro.campaign.shard import parse_shard_dir_name
from repro.campaign.spec import CampaignSpec

#: Bumped when the gap-manifest layout changes incompatibly.
MERGE_GAPS_SCHEMA_VERSION = 1

#: A merge that must not proceed (mismatched or incomplete shards); the
#: same error ``campaign resume`` raises for the same directory.
MergeError = CheckpointError


def discover_shard_dirs(parent) -> list[str]:
    """The ``shard-i-of-N`` checkpoint directories under ``parent``, sorted.

    Sorting is by (shard_count, shard_index) so e.g. ``shard-2-of-12``
    never lands between ``shard-0-of-3`` and ``shard-1-of-3``; mixed
    shard counts are then caught by the manifest check with a clear
    error instead of an arbitrary ordering.
    """
    parent = os.fspath(parent)
    if not os.path.isdir(parent):
        return []
    found = []
    for name in os.listdir(parent):
        parsed = parse_shard_dir_name(name)
        if parsed is not None and os.path.isdir(os.path.join(parent, name)):
            found.append((parsed[1], parsed[0], os.path.join(parent, name)))
    return [path for _count, _index, path in sorted(found)]


def merge_shards(
    spec: CampaignSpec,
    shard_dirs,
    out_dir,
    allow_partial: bool = False,
    echo=None,
    telemetry: bool = False,
) -> dict:
    """Fuse shard checkpoints into ``out_dir``; returns a merge summary.

    See the module docstring for the validation layers.  On a complete
    merge the output directory holds the full single-host artifact set
    (``results.jsonl``, ``report.json``, ``report.txt``, ``spec.json``)
    byte-identical to an unsharded run.  On a partial merge (only with
    ``allow_partial``) it holds the merged records as a resumable
    checkpoint plus ``merge-gaps.json``; finish with ``campaign
    resume``.  Raises :class:`MergeError` when the merge must not
    proceed.

    The summary dict: ``shards``, ``per_shard_runs`` (kept records per
    shard, in the order the dirs were processed after sorting),
    ``runs`` (merged), ``total`` (expected), ``conflicts`` (conflicted
    indices), ``gaps`` (missing indices, conflicts included),
    ``complete``.
    """
    say = echo or (lambda _msg: None)
    shard_dirs = [os.fspath(d) for d in shard_dirs]
    if not shard_dirs:
        raise MergeError("no shard directories to merge")
    out_dir = os.fspath(out_dir)
    # The merged provenance is the *unsharded* spec: the merge output is
    # a plain campaign directory, resumable and re-mergeable.
    merged = Checkpoint(dataclasses.replace(spec, shards=None, shard_index=None),
                        out_dir, say=say)
    merged.load(shard_dirs, verb="merge")

    conflict_indices = sorted({c["index"] for c in merged.conflicts})
    missing = [p["index"] for p in merged.gaps()]
    total = len(merged.payloads)
    complete = not missing
    if not complete and not allow_partial:
        preview = ", ".join(str(i) for i in missing[:8])
        if len(missing) > 8:
            preview += ", ..."
        raise MergeError(
            f"merge incomplete: {len(missing)} of {total} runs "
            f"missing (indices {preview})"
            + (f"; {len(conflict_indices)} conflicted"
               if conflict_indices else "")
            + " -- re-run the missing shards, or pass --allow-partial to "
            "write a resumable checkpoint plus a gap manifest"
        )

    merged.begin()
    runs = len(merged.records)
    if complete:
        merged.finalize()
        say(f"merged {len(shard_dirs)} shard(s): {runs}/{total} runs -> "
            f"{os.path.join(out_dir, 'results.jsonl')}")
    else:
        # Partial: the merged records are a valid resume checkpoint
        # (begin() dropped any stale report); resume finalizes it.
        merged.close()
        gaps_path = os.path.join(out_dir, MERGE_GAPS)
        write_json_artifact(gaps_path, {
            "v": MERGE_GAPS_SCHEMA_VERSION,
            "campaign": spec.name,
            "total_runs": total,
            "merged_runs": runs,
            "missing_indices": missing,
            "conflict_indices": conflict_indices,
            "resume": "python -m repro.campaign resume <spec.json> "
                      f"--out {out_dir}",
        })
        say(f"partial merge: {runs}/{total} runs, {len(missing)} gap(s) -> "
            f"{gaps_path}; finish with 'campaign resume'")

    summary = {
        "campaign": spec.name,
        "shards": len(shard_dirs),
        "per_shard_runs": [merged.kept_per_source[os.path.basename(
            os.path.normpath(d))] for d in shard_dirs],
        "conflicts": len(conflict_indices),
        "gaps": len(missing),
        "runs": runs,
        "total": total,
        "complete": complete,
    }
    if telemetry:
        from repro.obs.telemetry import TelemetryTracker

        tracker = TelemetryTracker(os.path.join(out_dir, "telemetry.jsonl"))
        try:
            tracker.merge(**summary)
        finally:
            tracker.close()
    return summary
