"""Live follow: re-read per poll, replace tolerance, follow == post-hoc.

The acceptance contract: ``report --follow`` over an in-flight campaign
counts each run index once however often it re-reads the file, holds
a record still mid-write back until it lands whole, survives the
runner's finalize ``os.replace``, and its final report is
byte-identical to a post-hoc report over the finalized file.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from conftest import streaming_campaign_dict
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    aggregate,
    read_jsonl_partial,
)
from repro.campaign.cli import main
from repro.obs.follow import follow_report


def _write(path, text, mode="a"):
    with open(path, mode, encoding="utf-8") as fh:
        fh.write(text)


def _rec(i, **extra):
    record = {"run_id": f"r-{i:04d}", "index": i, "status": "ok",
              "params": {}, "summary": {"pdr": 1.0}}
    record.update(extra)
    return json.dumps(record, sort_keys=True)


# -- the torn-tail cases a follower meets, through the one reader -------------

def test_tail_jsonl_holds_back_torn_fragment_until_complete(tmp_path):
    path = tmp_path / "results.jsonl"
    done, torn = _rec(0), _rec(1)
    _write(path, done + "\n" + torn[:17], mode="w")  # torn mid-write
    records, warnings = read_jsonl_partial(path)
    assert [r["index"] for r in records] == [0]
    assert len(warnings) == 1 and "torn final line 2" in warnings[0]

    # blank lines after the fragment do not make it a mid-file line
    _write(path, done + "\n" + torn[:17] + "\n\n", mode="w")
    records, warnings = read_jsonl_partial(path)
    assert [r["index"] for r in records] == [0]
    assert len(warnings) == 1 and "torn final line 2" in warnings[0]

    # the writer finishes the line: the next read takes it whole
    _write(path, done + "\n" + torn[:17], mode="w")
    _write(path, torn[17:] + "\n")
    records, warnings = read_jsonl_partial(path)
    assert [r["index"] for r in records] == [0, 1]
    assert warnings == []


def test_tail_jsonl_consumes_newline_less_complete_record(tmp_path):
    path = tmp_path / "results.jsonl"
    _write(path, _rec(0), mode="w")  # complete JSON, newline not landed yet
    records, warnings = read_jsonl_partial(path)
    assert [r["index"] for r in records] == [0]
    assert warnings == []
    # the late newline lands, then the next record
    _write(path, "\n" + _rec(1) + "\n")
    records, warnings = read_jsonl_partial(path)
    assert [r["index"] for r in records] == [0, 1]
    assert warnings == []


def test_tail_jsonl_raises_on_corruption_before_final_line(tmp_path):
    path = tmp_path / "results.jsonl"
    _write(path, _rec(0) + "\n{bogus}\n" + _rec(1) + "\n", mode="w")
    with pytest.raises(ValueError, match="corrupt line 2"):
        read_jsonl_partial(path)
    # ...even when the final line is torn too
    _write(path, _rec(0) + "\n{bogus}\n" + _rec(1)[:17], mode="w")
    with pytest.raises(ValueError, match="corrupt line 2"):
        read_jsonl_partial(path)


def test_results_tail_missing_file_is_empty_not_error(tmp_path):
    # a follower may start before the runner creates results.jsonl
    sleeps = []
    report = follow_report(tmp_path / "not-yet.jsonl", total=1,
                           interval=0.0, max_polls=1, sleep=sleeps.append)
    assert report == aggregate([])
    assert sleeps == []


# -- follow_report: re-read per poll ----------------------------------------

def test_follow_report_counts_each_index_once_across_finalize_replace(tmp_path):
    path = tmp_path / "results.jsonl"
    recs = {i: _rec(i, summary={"pdr": i / 4}) for i in range(4)}
    # completion-order stream: 1, 0
    _write(path, recs[1] + "\n" + recs[0] + "\n", mode="w")

    def finalize_replace():
        # the atomic replace with the index-sorted rewrite of 0..2
        tmp = str(path) + ".tmp"
        _write(tmp, "".join(recs[i] + "\n" for i in range(3)), mode="w")
        os.replace(tmp, path)

    steps = [
        lambda: _write(path, recs[2] + "\n"),
        finalize_replace,
        lambda: _write(path, recs[3][:17]),  # run 3 mid-write: held back
        lambda: _write(path, recs[3][17:] + "\n"),
    ]
    updates = []
    report = follow_report(path, total=4, interval=0.0,
                           on_update=updates.append,
                           sleep=lambda _seconds: steps.pop(0)())
    assert steps == []
    # the replace and the torn line added no run; each index counted once
    assert updates == [2, 3, 4]
    expected = aggregate([json.loads(recs[i]) for i in range(4)])
    assert json.dumps(report, sort_keys=True) == \
           json.dumps(expected, sort_keys=True)
    assert report["runs"] == 4
    assert report["groups"][0]["metrics"]["pdr"]["mean"] == 0.375


# -- follow_report: live == post-hoc -----------------------------------------

@pytest.fixture(scope="module")
def followed_campaign(tmp_path_factory):
    """A campaign executed concurrently with a live follow of its stream."""
    out = tmp_path_factory.mktemp("follow") / "out"
    spec = CampaignSpec.from_dict(streaming_campaign_dict())
    total = len(spec.expand())
    # the runner thread starts *after* the follower: the follower must
    # wait for results.jsonl to appear, then tail it to completion
    # (deadline() is a no-op off the main thread, so runs are unaffected)
    runner = CampaignRunner(spec, workers=1, out_dir=out)
    thread = threading.Thread(target=runner.run)
    report = {}

    def follow():
        report.update(follow_report(
            os.path.join(out, "results.jsonl"),
            total=total, interval=0.01,
        ))

    follower = threading.Thread(target=follow)
    follower.start()
    thread.start()
    thread.join(timeout=120)
    follower.join(timeout=120)
    assert not thread.is_alive() and not follower.is_alive()
    return {"out": out, "report": report, "total": total}


def test_follow_report_matches_posthoc_bytes(followed_campaign):
    out = followed_campaign["out"]
    with open(os.path.join(out, "results.jsonl"), "r", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    posthoc = aggregate(records)
    live = followed_campaign["report"]
    assert json.dumps(live, sort_keys=True) == \
           json.dumps(posthoc, sort_keys=True)
    assert live["runs"] == followed_campaign["total"]


def test_follow_report_matches_finalized_report_json(followed_campaign):
    with open(os.path.join(followed_campaign["out"], "report.json"),
              encoding="utf-8") as fh:
        finalized = json.load(fh)
    finalized.pop("campaign")
    assert json.dumps(followed_campaign["report"], sort_keys=True) == \
           json.dumps(finalized, sort_keys=True)


def test_follow_report_bounded_by_max_polls(tmp_path):
    # nothing ever appears: the poll budget ends the loop
    sleeps = []
    report = follow_report(tmp_path / "never.jsonl", total=5,
                           interval=0.0, max_polls=3, sleep=sleeps.append)
    assert report == aggregate([])
    assert len(sleeps) == 2  # the final poll ends the loop without sleeping


# -- CLI ---------------------------------------------------------------------

def test_cli_report_missing_results_is_one_line_error(tmp_path, capsys):
    out = tmp_path / "campaign-dir"
    out.mkdir()
    assert main(["report", str(out)]) == 2
    captured = capsys.readouterr()
    err_lines = [l for l in captured.err.splitlines() if l.strip()]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error:")
    assert "results" in err_lines[0]


def test_cli_report_follow_on_finished_campaign(followed_campaign, capsys):
    out = followed_campaign["out"]
    assert main(["report", str(out), "--json"]) == 0
    plain = capsys.readouterr().out
    assert main(["report", str(out), "--follow", "--interval", "0.01",
                 "--json"]) == 0
    followed = capsys.readouterr().out
    assert followed == plain


def test_cli_report_follow_on_a_shard_directory_ends_at_its_slice(
    tmp_path, monkeypatch, capsys
):
    """Regression: ``report --follow`` on a finished shard directory
    waited for the whole matrix (4/12) instead of the shard's slice."""
    import repro.obs.follow as follow_mod

    spec = CampaignSpec.from_dict(streaming_campaign_dict(shards=3,
                                                          shard_index=0))
    CampaignRunner(spec, workers=1, out_dir=tmp_path).run()
    real_follow_report = follow_mod.follow_report

    def bounded_follow_report(*args, **kwargs):
        sleeps = []

        def sleep(_seconds):
            sleeps.append(_seconds)
            if len(sleeps) >= 3:
                raise AssertionError("report --follow kept polling a "
                                     "finished shard directory")

        return real_follow_report(*args, sleep=sleep, **kwargs)

    monkeypatch.setattr(follow_mod, "follow_report", bounded_follow_report)
    assert main(["report", str(tmp_path / "shard-0-of-3"), "--follow",
                 "--interval", "0", "--json"]) == 0
    captured = capsys.readouterr()
    assert "follow: 4/4 runs aggregated" in captured.err
    assert json.loads(captured.out)["runs"] == 4


def test_cli_report_summary_mode_sketch(followed_campaign, tmp_path, capsys):
    # the sketch mode is gone: the flag is an argparse error (exit 2)...
    with pytest.raises(SystemExit) as excinfo:
        main(["report", str(followed_campaign["out"]),
              "--summary-mode", "sketch", "--json"])
    assert excinfo.value.code == 2
    assert "--summary-mode" in capsys.readouterr().err

    # ...and a spec that asks for it is refused, naming the removal
    out = tmp_path / "sketch-spec"
    out.mkdir()
    (out / "results.jsonl").write_bytes(
        (followed_campaign["out"] / "results.jsonl").read_bytes())
    (out / "spec.json").write_text(
        json.dumps(streaming_campaign_dict(summary_mode="sketch")))
    assert main(["report", str(out), "--follow", "--interval", "0.01"]) == 2
    err = capsys.readouterr().err
    assert "summary_mode 'sketch'" in err and "removed" in err
