"""Runner telemetry: schema-valid sidecar, zero effect on results.

The two contracts: ``telemetry.jsonl`` always validates against the
schema (envelope invariants included), and enabling telemetry leaves
every deterministic artifact byte-identical -- it is a wall-clock
narration, not part of the result.
"""

from __future__ import annotations

import json
import os

import pytest

from conftest import campaign_artifacts, streaming_campaign_dict
from repro.campaign import CampaignRunner, CampaignSpec
from repro.obs.telemetry import (
    TELEMETRY_SCHEMA_VERSION,
    TelemetryTracker,
    validate_telemetry_file,
    validate_telemetry_record,
)


def _spec() -> CampaignSpec:
    return CampaignSpec.from_dict(streaming_campaign_dict())


def _telemetry_records(out_dir) -> list[dict]:
    with open(os.path.join(out_dir, "telemetry.jsonl"),
              encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


# -- end to end --------------------------------------------------------------

def test_telemetry_sidecar_is_schema_valid_and_results_unchanged(tmp_path):
    plain_out = tmp_path / "plain"
    telem_out = tmp_path / "telem"
    CampaignRunner(_spec(), workers=2, out_dir=plain_out).run()
    CampaignRunner(_spec(), workers=2, out_dir=telem_out,
                   telemetry=True).run()

    # telemetry never changes the deterministic artifacts
    assert campaign_artifacts(telem_out) == campaign_artifacts(plain_out)
    # and the disabled run writes no sidecar at all
    assert not os.path.exists(plain_out / "telemetry.jsonl")

    count = validate_telemetry_file(telem_out / "telemetry.jsonl")
    records = _telemetry_records(telem_out)
    assert count == len(records)

    start, batches, finish = records[0], records[1:-1], records[-1]
    assert start["kind"] == "start"
    assert start["total_runs"] == 12
    assert start["resumed"] is False
    # unsharded executions carry the degenerate shard assignment
    assert start["shard_index"] == 0 and start["shard_count"] == 1
    assert finish["kind"] == "finish"
    assert finish["runs"] == 12 and finish["ok"] == 12
    assert finish["timeouts"] == 0 and finish["retries"] == 0
    assert finish["wall_s"] > 0 and finish["runs_per_sec"] > 0
    assert batches and all(b["kind"] == "batch" for b in batches)
    assert sum(b["runs"] for b in batches) == 12
    assert batches[-1]["done"] == 12
    # worker pids are real pool workers, not the coordinator
    assert all(b["worker_pid"] != os.getpid() for b in batches)
    seqs = [b["seq"] for b in batches]
    assert seqs == list(range(1, len(batches) + 1))


def test_telemetry_inline_runner_reports_own_pid(tmp_path):
    out = tmp_path / "inline"
    CampaignRunner(_spec(), workers=1, out_dir=out, telemetry=True).run()
    validate_telemetry_file(out / "telemetry.jsonl")
    batches = [r for r in _telemetry_records(out) if r["kind"] == "batch"]
    assert all(b["worker_pid"] == os.getpid() for b in batches)


def test_telemetry_on_resume_marks_resumed(tmp_path):
    out = tmp_path / "resume"
    CampaignRunner(_spec(), workers=1, out_dir=out).run()
    # resume with nothing left: still a valid telemetry story
    CampaignRunner(_spec(), workers=1, out_dir=out, telemetry=True).resume()
    validate_telemetry_file(out / "telemetry.jsonl")
    records = _telemetry_records(out)
    assert records[0]["resumed"] is True
    assert records[0]["pending_runs"] == 0
    assert records[-1]["kind"] == "finish"
    assert records[-1]["runs"] == 12


def test_telemetry_requires_out_dir():
    with pytest.raises(ValueError, match="output directory"):
        CampaignRunner(_spec(), workers=1, telemetry=True)


def test_cli_telemetry_flag(tmp_path, capsys):
    from repro.campaign.cli import main

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(streaming_campaign_dict()))
    out = tmp_path / "out"
    assert main(["run", str(spec_path), "--workers", "1", "--quiet",
                 "--out", str(out), "--telemetry"]) == 0
    capsys.readouterr()
    assert validate_telemetry_file(out / "telemetry.jsonl") >= 3


# -- schema validation -------------------------------------------------------

def test_validate_record_rejects_bad_input():
    good = {"v": TELEMETRY_SCHEMA_VERSION, "kind": "finish", "runs": 1,
            "ok": 1, "failed": 0, "timeouts": 0, "retries": 0,
            "wall_s": 0.5, "runs_per_sec": 2.0}
    validate_telemetry_record(good)

    with pytest.raises(ValueError, match="schema version"):
        validate_telemetry_record({**good, "v": 99})
    with pytest.raises(ValueError, match="unknown telemetry record kind"):
        validate_telemetry_record({**good, "kind": "bogus"})
    with pytest.raises(ValueError, match="missing field"):
        bad = dict(good)
        del bad["runs"]
        validate_telemetry_record(bad)
    with pytest.raises(ValueError, match="must be int"):
        validate_telemetry_record({**good, "runs": "many"})
    with pytest.raises(ValueError, match="must be int"):
        validate_telemetry_record({**good, "runs": True})  # bool is not int
    with pytest.raises(ValueError, match="must be an object"):
        validate_telemetry_record([good])


def test_validate_file_enforces_envelope(tmp_path):
    path = tmp_path / "telemetry.jsonl"

    def write(records):
        with open(path, "w", encoding="utf-8") as fh:
            for r in records:
                fh.write(json.dumps(r) + "\n")

    finish = {"v": TELEMETRY_SCHEMA_VERSION, "kind": "finish", "runs": 0,
              "ok": 0, "failed": 0, "timeouts": 0, "retries": 0,
              "wall_s": 0.1, "runs_per_sec": 0.0}
    start = {"v": TELEMETRY_SCHEMA_VERSION, "kind": "start", "campaign": "t",
             "total_runs": 0, "pending_runs": 0, "workers": 1,
             "batch_size": 1, "resumed": False,
             "shard_index": 0, "shard_count": 1}

    write([start, finish])
    assert validate_telemetry_file(path) == 2

    write([finish])
    with pytest.raises(ValueError, match="first record must be 'start'"):
        validate_telemetry_file(path)

    write([start, start, finish])
    with pytest.raises(ValueError, match="duplicate 'start'"):
        validate_telemetry_file(path)

    write([start, finish, finish])
    with pytest.raises(ValueError, match="record after 'finish'"):
        validate_telemetry_file(path)

    write([])
    with pytest.raises(ValueError, match="empty telemetry"):
        validate_telemetry_file(path)


def test_validator_refuses_v2_files(tmp_path):
    # Only v3 is read: a v2 sidecar (start records without the shard
    # fields, no merge kind) is refused with a one-line error naming
    # its version.
    path = tmp_path / "telemetry.jsonl"
    start_v2 = {"v": 2, "kind": "start", "campaign": "old",
                "total_runs": 1, "pending_runs": 1, "workers": 1,
                "batch_size": 1, "resumed": False}
    finish_v2 = {"v": 2, "kind": "finish", "runs": 1, "ok": 1, "failed": 0,
                 "timeouts": 0, "retries": 0, "wall_s": 0.1,
                 "runs_per_sec": 10.0}
    with open(path, "w", encoding="utf-8") as fh:
        for record in (start_v2, finish_v2):
            fh.write(json.dumps(record) + "\n")
    with pytest.raises(ValueError, match="line 1: telemetry schema version 2 ") as excinfo:
        validate_telemetry_file(path)
    assert "\n" not in str(excinfo.value)

    with pytest.raises(ValueError, match="schema version 2 "):
        validate_telemetry_record(start_v2)
    # ...and a v3 start without the shard fields is incomplete
    with pytest.raises(ValueError, match="shard_index"):
        validate_telemetry_record({**start_v2, "v": 3})


def test_merge_record_is_v3_only(tmp_path):
    merge = {"v": 3, "kind": "merge", "campaign": "t", "shards": 3,
             "per_shard_runs": [4, 4, 4], "conflicts": 0, "gaps": 0,
             "runs": 12, "total": 12, "complete": True}
    validate_telemetry_record(merge)
    with pytest.raises(ValueError, match="schema version 2 "):
        validate_telemetry_record({**merge, "v": 2})
    with pytest.raises(ValueError, match="per_shard_runs"):
        validate_telemetry_record({**merge, "per_shard_runs": ["4"]})

    # a merge record is a valid file opener (it narrates a merge, which
    # has no 'start')
    path = tmp_path / "telemetry.jsonl"
    path.write_text(json.dumps(merge) + "\n")
    assert validate_telemetry_file(path) == 1


def test_tracker_merge_event(tmp_path):
    path = tmp_path / "telemetry.jsonl"
    tracker = TelemetryTracker(path)
    tracker.merge(campaign="t", shards=2, per_shard_runs=[6, 6],
                  conflicts=0, gaps=0, runs=12, total=12, complete=True)
    tracker.close()
    assert validate_telemetry_file(path) == 1
    record = _telemetry_records(tmp_path)[0]
    assert record["kind"] == "merge"
    assert record["v"] == TELEMETRY_SCHEMA_VERSION
    assert record["per_shard_runs"] == [6, 6]


def test_tracker_writes_are_immediately_durable(tmp_path):
    path = tmp_path / "telemetry.jsonl"
    tracker = TelemetryTracker(path)
    tracker.start(campaign="t", total_runs=2, pending_runs=2,
                  workers=1, batch_size=1, resumed=False)
    # before close: the start record is already on disk (fsync'd)
    with open(path, encoding="utf-8") as fh:
        assert json.loads(fh.readline())["kind"] == "start"
    tracker.batch(runs=1, ok=1, failed=0, wall_s=0.01, worker_pid=1,
                  done=1, total=2)
    tracker.finish(runs=2, ok=2, failed=0, timeouts=0, retries=0,
                   wall_s=0.02)
    tracker.close()
    tracker.close()  # idempotent
    assert validate_telemetry_file(path) == 3
