"""Sharded campaign execution and ``campaign merge``.

The headline contract: a campaign split across shards and fused with
``campaign merge`` produces artifacts *byte-identical* to a single-host
run of the same spec -- and the merge is idempotent, order-independent,
refuses mismatched provenance, quarantines conflicting duplicates, and
degrades gracefully (resumable checkpoint + gap manifest) when shards
are missing.
"""

from __future__ import annotations

import json
import os

import pytest

from conftest import campaign_artifacts, streaming_campaign_dict, truncate_jsonl
from repro.campaign import CampaignRunner, CampaignSpec, MergeError
from repro.campaign.merge import (
    MERGE_CONFLICTS,
    MERGE_GAPS,
    discover_shard_dirs,
    merge_shards,
    validate_merge_conflicts_file,
)
from repro.campaign.runner import InlineExecutor, LocalExecutor
from repro.campaign.checkpoint import (
    load_shard_manifest,
    spec_fingerprint,
    validate_shard_manifest,
)
from repro.campaign.shard import parse_shard, shard_payloads


def _spec(**overrides) -> CampaignSpec:
    return CampaignSpec.from_dict(streaming_campaign_dict(**overrides))


def _run_single_host(out_dir) -> None:
    CampaignRunner(_spec(), workers=1, out_dir=out_dir).run()


def _run_shards(parent, count: int = 3, **spec_overrides) -> list[str]:
    """Execute every shard of an N-way split into ``parent``; returns dirs."""
    for index in range(count):
        spec = _spec(**spec_overrides)
        spec.shards, spec.shard_index = count, index
        CampaignRunner(spec, workers=1, out_dir=parent).run()
    return discover_shard_dirs(parent)


@pytest.fixture(scope="module")
def anchor(tmp_path_factory):
    """A single-host run of the reference spec: the byte-identity anchor."""
    out = tmp_path_factory.mktemp("anchor") / "campaign"
    _run_single_host(out)
    return campaign_artifacts(out)


# -- shard arithmetic --------------------------------------------------------

def test_parse_shard_accepts_and_rejects():
    assert parse_shard("0/3") == (0, 3)
    assert parse_shard(" 2/3 ") == (2, 3)
    assert parse_shard("0/1") == (0, 1)
    for bad in ("3/2", "3/3", "0/0", "x/y", "1", "1/", "/3", "-1/3", "1/3/5"):
        with pytest.raises(ValueError):
            parse_shard(bad)


def test_shard_partition_is_disjoint_and_covering():
    payloads = [r.to_dict() for r in _spec().expand()]
    slices = [shard_payloads(payloads, i, 3) for i in range(3)]
    seen = [p["index"] for s in slices for p in s]
    assert sorted(seen) == [p["index"] for p in payloads]
    assert len(seen) == len(set(seen))
    # seeds/run_ids come from the full expansion, never the split
    by_index = {p["index"]: p for p in payloads}
    for shard in slices:
        for p in shard:
            assert p["seed"] == by_index[p["index"]]["seed"]
            assert p["run_id"] == by_index[p["index"]]["run_id"]


def test_spec_validates_shard_assignment():
    with pytest.raises(ValueError, match="set together"):
        _spec(shards=3)
    with pytest.raises(ValueError, match="set together"):
        _spec(shard_index=0)
    with pytest.raises(ValueError, match=r"shard_index must be in"):
        _spec(shards=3, shard_index=3)
    with pytest.raises(ValueError, match="shards must be >= 1"):
        _spec(shards=0, shard_index=0)
    spec = _spec(shards=3, shard_index=2)
    assert (spec.shards, spec.shard_index) == (3, 2)
    # execution-only: folded out of the resume/merge fingerprint
    assert "shards" not in spec_fingerprint(spec.to_dict())
    assert spec_fingerprint(spec.to_dict()) == spec_fingerprint(
        _spec().to_dict()
    )


# -- the tentpole: split, merge, byte-compare --------------------------------

def test_three_shard_merge_is_byte_identical_to_single_host(tmp_path, anchor):
    parent = tmp_path / "campaign"
    shard_dirs = _run_shards(parent, 3)
    assert len(shard_dirs) == 3

    # each shard left a complete, validated provenance manifest
    total = 0
    for i, shard_dir in enumerate(shard_dirs):
        manifest = load_shard_manifest(shard_dir)
        assert manifest["status"] == "complete"
        assert (manifest["shard_index"], manifest["shard_count"]) == (i, 3)
        assert manifest["total_runs"] == 12
        total += manifest["assigned_runs"]
        # a shard publishes no reports: one slice would mislead
        assert not os.path.exists(os.path.join(shard_dir, "report.json"))
    assert total == 12

    summary = merge_shards(_spec(), shard_dirs, parent)
    assert summary["complete"] is True
    assert summary["runs"] == summary["total"] == 12
    assert summary["conflicts"] == summary["gaps"] == 0
    assert sum(summary["per_shard_runs"]) == 12
    assert campaign_artifacts(parent) == anchor


def test_merge_is_idempotent_and_order_independent(tmp_path, anchor):
    parent = tmp_path / "campaign"
    shard_dirs = _run_shards(parent, 3)

    out_a = tmp_path / "merge-forward"
    out_b = tmp_path / "merge-reversed"
    merge_shards(_spec(), shard_dirs, out_a)
    merge_shards(_spec(), list(reversed(shard_dirs)), out_b)
    assert campaign_artifacts(out_a) == campaign_artifacts(out_b) == anchor

    # merging again into the same directory changes nothing
    merge_shards(_spec(), shard_dirs, out_a)
    assert campaign_artifacts(out_a) == anchor

    # a merged directory is a plain campaign directory: re-merging it as
    # the sole input reproduces itself (closure under merge)
    out_c = tmp_path / "re-merge"
    merge_shards(_spec(), [out_a], out_c)
    assert campaign_artifacts(out_c) == anchor


def test_merged_directory_is_resumable(tmp_path, anchor):
    parent = tmp_path / "campaign"
    merge_shards(_spec(), _run_shards(parent, 3), parent)
    # the normalized spec.json + full results.jsonl resume as a no-op
    records = CampaignRunner(_spec(), workers=1, out_dir=parent).resume()
    assert len(records) == 12
    assert campaign_artifacts(parent) == anchor


def test_merge_refuses_foreign_spec(tmp_path):
    parent = tmp_path / "campaign"
    shard_dirs = _run_shards(parent, 2)
    with pytest.raises(MergeError, match="different campaign spec"):
        merge_shards(_spec(seed=999), shard_dirs, parent)
    # nothing was written
    assert not os.path.exists(parent / "results.jsonl")


def test_merge_refuses_mixed_shard_counts(tmp_path):
    parent_a = tmp_path / "a"
    parent_b = tmp_path / "b"
    dirs_a = _run_shards(parent_a, 2)
    dirs_b = _run_shards(parent_b, 3)
    with pytest.raises(MergeError, match="disagree on the shard count"):
        merge_shards(_spec(), dirs_a + dirs_b[1:], tmp_path / "out")


def test_merge_refuses_missing_shard_without_allow_partial(tmp_path):
    parent = tmp_path / "campaign"
    shard_dirs = _run_shards(parent, 3)
    with pytest.raises(MergeError, match="merge incomplete"):
        merge_shards(_spec(), shard_dirs[:2], tmp_path / "out")


def test_partial_merge_plus_resume_converges(tmp_path, anchor):
    parent = tmp_path / "campaign"
    shard_dirs = _run_shards(parent, 3)

    out = tmp_path / "merged"
    summary = merge_shards(_spec(), shard_dirs[:2], out, allow_partial=True)
    assert summary["complete"] is False
    assert summary["runs"] == 8 and summary["gaps"] == 4

    with open(out / MERGE_GAPS, encoding="utf-8") as fh:
        gaps = json.load(fh)
    assert gaps["missing_indices"] == [2, 5, 8, 11]  # shard 2's slice
    assert gaps["merged_runs"] == 8 and gaps["total_runs"] == 12
    # no misleading reports on a partial artifact
    assert not os.path.exists(out / "report.json")

    # the gap manifest's promise: resume executes exactly the holes
    records = CampaignRunner(_spec(), workers=1, out_dir=out).resume()
    assert len(records) == 12
    assert campaign_artifacts(out) == anchor
    # ...and a re-merge over the healed directory removes the manifest
    merge_shards(_spec(), [out], out)
    assert not os.path.exists(out / MERGE_GAPS)
    assert campaign_artifacts(out) == anchor


def test_conflicting_duplicates_are_quarantined_never_merged(tmp_path, anchor):
    parent = tmp_path / "campaign"
    shard_dirs = _run_shards(parent, 2)

    # forge an overlap: shard 1 also claims shard 0's run index 0, with
    # identical identity fields but a drifted summary -- a corrupted
    # checkpoint that per-record validation alone cannot catch
    with open(os.path.join(shard_dirs[0], "results.jsonl"),
              encoding="utf-8") as fh:
        victim = json.loads(fh.readline())
    forged = json.loads(json.dumps(victim))
    forged["summary"]["pdr"] = -1.0
    with open(os.path.join(shard_dirs[1], "results.jsonl"), "a",
              encoding="utf-8") as fh:
        fh.write(json.dumps(forged, sort_keys=True) + "\n")

    out = tmp_path / "merged"
    # neither copy can be trusted: without --allow-partial the merge refuses
    with pytest.raises(MergeError, match="merge incomplete"):
        merge_shards(_spec(), shard_dirs, out)

    summary = merge_shards(_spec(), shard_dirs, out, allow_partial=True)
    assert summary["conflicts"] == 1
    assert summary["gaps"] == 1 and summary["runs"] == 11
    assert validate_merge_conflicts_file(out / MERGE_CONFLICTS) == 2
    with open(out / MERGE_CONFLICTS, encoding="utf-8") as fh:
        entries = [json.loads(line) for line in fh]
    assert {e["index"] for e in entries} == {victim["index"]}
    assert len(entries) == 2  # BOTH copies kept as evidence
    # the conflicted run never reached the merged results
    merged = [json.loads(line) for line in
              open(out / "results.jsonl", encoding="utf-8")]
    assert victim["index"] not in {r["index"] for r in merged}

    # resume re-executes the conflicted run from the spec; the healed
    # campaign is byte-identical to a single-host run
    CampaignRunner(_spec(), workers=1, out_dir=out).resume()
    assert campaign_artifacts(out) == anchor


def test_remerging_keeps_each_conflict_copy_once(tmp_path):
    """Regression: re-merging the same shards appended every quarantined
    copy again (2, then 4, then 6 lines); merges are idempotent."""
    parent = tmp_path / "campaign"
    shard_dirs = _run_shards(parent, 2)
    with open(os.path.join(shard_dirs[0], "results.jsonl"),
              encoding="utf-8") as fh:
        forged = json.loads(fh.readline())
    forged["summary"]["pdr"] = -1.0
    with open(os.path.join(shard_dirs[1], "results.jsonl"), "a",
              encoding="utf-8") as fh:
        fh.write(json.dumps(forged, sort_keys=True) + "\n")

    out = tmp_path / "merged"
    snapshots = []
    for _ in range(3):
        merge_shards(_spec(), shard_dirs, out, allow_partial=True,
                     telemetry=True)
        snapshots.append({name: (out / name).read_bytes()
                          for name in sorted(os.listdir(out))
                          if name != "telemetry.jsonl"})
    assert snapshots[0] == snapshots[1] == snapshots[2]
    assert MERGE_CONFLICTS in snapshots[0]
    assert validate_merge_conflicts_file(out / MERGE_CONFLICTS) == 2


def test_identical_duplicates_dedup_silently(tmp_path, anchor):
    parent = tmp_path / "campaign"
    shard_dirs = _run_shards(parent, 2)
    # byte-identical overlap (a retried shard upload): not a conflict
    with open(os.path.join(shard_dirs[0], "results.jsonl"),
              encoding="utf-8") as fh:
        first = fh.readline()
    with open(os.path.join(shard_dirs[1], "results.jsonl"), "a",
              encoding="utf-8") as fh:
        fh.write(first)
    out = tmp_path / "merged"
    summary = merge_shards(_spec(), shard_dirs, out)
    assert summary["complete"] is True and summary["conflicts"] == 0
    assert not os.path.exists(out / MERGE_CONFLICTS)
    assert campaign_artifacts(out) == anchor


def test_interrupted_shard_resumes_then_merges_identically(tmp_path, anchor):
    parent = tmp_path / "campaign"
    shard_dirs = _run_shards(parent, 3)

    # crash shard 1 mid-write: drop all but 2 records, tear the third
    truncate_jsonl(os.path.join(shard_dirs[1], "results.jsonl"),
                   keep_lines=2, torn_bytes=17)
    spec = _spec()
    spec.shards, spec.shard_index = 3, 1
    CampaignRunner(spec, workers=1, out_dir=parent).resume()

    merge_shards(_spec(), shard_dirs, parent)
    assert campaign_artifacts(parent) == anchor


def test_resume_refuses_shard_assignment_mismatch(tmp_path):
    parent = tmp_path / "campaign"
    shard_dirs = _run_shards(parent, 2)
    # resuming a shard checkpoint as a different shard -- or unsharded --
    # would re-execute the wrong slice into the wrong place
    wrong = _spec()
    wrong.shards, wrong.shard_index = 2, 1
    runner = CampaignRunner(wrong, workers=1, out_dir=parent)
    runner.out_dir = shard_dirs[0]  # point shard 1 at shard 0's checkpoint
    with pytest.raises(ValueError, match="refusing to resume"):
        runner.resume()
    with pytest.raises(ValueError, match="refusing to resume"):
        CampaignRunner(_spec(), workers=1, out_dir=shard_dirs[0]).resume()


def test_shard_manifest_validation():
    good = {"v": 1, "campaign": "t", "fingerprint": "ab", "shard_index": 0,
            "shard_count": 2, "total_runs": 12, "assigned_runs": 6,
            "status": "running"}
    validate_shard_manifest(good)
    with pytest.raises(ValueError, match="schema version"):
        validate_shard_manifest({**good, "v": 99})
    with pytest.raises(ValueError, match="missing field"):
        validate_shard_manifest({k: v for k, v in good.items()
                                 if k != "fingerprint"})
    with pytest.raises(ValueError, match="out of range"):
        validate_shard_manifest({**good, "shard_index": 2})
    with pytest.raises(ValueError, match="status"):
        validate_shard_manifest({**good, "status": "done"})


# -- executors ---------------------------------------------------------------

def test_executor_backends_are_interchangeable(tmp_path):
    inline_out = tmp_path / "inline"
    local_out = tmp_path / "local"
    CampaignRunner(_spec(), workers=2, out_dir=inline_out,
                   executor="inline").run()
    CampaignRunner(_spec(), workers=2, out_dir=local_out,
                   executor="local").run()
    assert campaign_artifacts(inline_out) == campaign_artifacts(local_out)


def test_create_executor():
    def executor(name, workers):
        return CampaignRunner(_spec(), workers=workers, executor=name).executor

    assert isinstance(executor("inline", 4), InlineExecutor)
    assert isinstance(executor("local", 4), LocalExecutor)
    assert executor("local", 4).workers == 4
    # the local backend degrades to inline at one worker
    assert isinstance(executor("local", 1), InlineExecutor)
    with pytest.raises(ValueError, match="unknown executor 'cloud'"):
        CampaignRunner(_spec(), executor="cloud")


# -- CLI ---------------------------------------------------------------------

def _write_spec(tmp_path) -> str:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(streaming_campaign_dict()))
    return str(path)


def test_cli_rejects_malformed_inputs(tmp_path, capsys):
    from repro.campaign.cli import build_parser

    spec = _write_spec(tmp_path)
    for argv in (
        ["run", spec, "--workers", "0"],
        ["run", spec, "--workers", "-3"],
        ["run", spec, "--workers", "two"],
        ["run", spec, "--batch-size", "0"],
        ["run", spec, "--shard", "3/2"],
        ["run", spec, "--shard", "0/0"],
        ["run", spec, "--shard", "x/y"],
        ["run", spec, "--executor", "cloud"],
        ["resume", spec, "--shard", "2/2"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        # a one-line diagnostic after the usage block, never a traceback
        assert "Traceback" not in err
        assert err.rstrip().rsplit("\n", 1)[-1].startswith(
            "python -m repro.campaign"
        )
        assert "error:" in err


def test_cli_shard_run_and_merge_end_to_end(tmp_path, capsys, anchor):
    from repro.campaign.cli import main

    spec = _write_spec(tmp_path)
    out = tmp_path / "campaign"
    for i in range(3):
        assert main(["run", spec, "--workers", "1", "--quiet",
                     "--out", str(out), "--shard", f"{i}/3"]) == 0
    capsys.readouterr()
    assert main(["merge", spec, "--out", str(out), "--telemetry"]) == 0
    stdout = capsys.readouterr().out
    assert "Campaign aggregate" in stdout
    assert campaign_artifacts(out) == anchor

    from repro.obs.telemetry import validate_telemetry_file
    assert validate_telemetry_file(out / "telemetry.jsonl") == 1


def test_cli_merge_without_shards_exits_2(tmp_path, capsys):
    from repro.campaign.cli import main

    spec = _write_spec(tmp_path)
    assert main(["merge", spec, "--out", str(tmp_path / "empty")]) == 2
    assert "no shard" in capsys.readouterr().err


def test_cli_partial_merge_exits_3(tmp_path, capsys):
    from repro.campaign.cli import main

    spec = _write_spec(tmp_path)
    out = tmp_path / "campaign"
    assert main(["run", spec, "--workers", "1", "--quiet",
                 "--out", str(out), "--shard", "0/3"]) == 0
    capsys.readouterr()
    # refusal without --allow-partial...
    assert main(["merge", spec, "--out", str(out), "--quiet"]) == 2
    assert "merge incomplete" in capsys.readouterr().err
    # ...checkpoint + gap manifest with it
    assert main(["merge", spec, "--out", str(out), "--quiet",
                 "--allow-partial"]) == 3
    assert os.path.exists(out / MERGE_GAPS)
