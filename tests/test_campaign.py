"""Campaign engine: expansion, execution, aggregation, baselines, CLI."""

import json
import re
import shutil
import time
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignSpec,
    aggregate,
    compare,
    comparison_text,
    execute_run,
    load_results,
    report_text,
    run_campaign,
    write_jsonl,
)
from repro.campaign.runner import RunTimeout, deadline
from repro.campaign.spec import set_by_path
from repro.sim.rng import spawn_seed


def tiny_spec(**overrides) -> CampaignSpec:
    data = {
        "name": "t",
        "seed": 5,
        "replicates": 1,
        "base": {
            "topology": {"kind": "chain", "n": 3, "spacing": 200.0},
            "radio": {"range": 250.0},
            "dns": {"position": None},
        },
        "axes": {"router": ["secure", "plain"]},
        "workload": {"kind": "cbr", "flows": 1, "interval": 1.0, "count": 3},
        "duration": 10.0,
        "timeout": 60.0,
    }
    data.update(overrides)
    return CampaignSpec.from_dict(data)


# -- spec expansion ---------------------------------------------------------

def test_set_by_path_creates_nested_dicts():
    target = {}
    set_by_path(target, "config.hostile_mode", True)
    set_by_path(target, "router", "plain")
    assert target == {"config": {"hostile_mode": True}, "router": "plain"}
    with pytest.raises(ValueError):
        set_by_path({"config": 3}, "config.x", 1)


def test_grid_expansion_is_cartesian_times_replicates():
    spec = tiny_spec(
        axes={"router": ["secure", "plain"], "topology.n": [3, 4, 5]},
        replicates=2,
    )
    runs = spec.expand()
    assert len(runs) == 2 * 3 * 2
    # indices and ids are sequential and unique
    assert [r.index for r in runs] == list(range(12))
    assert len({r.run_id for r in runs}) == 12
    # every run's scenario reflects its params
    for run in runs:
        assert run.scenario["router"] == run.params["router"]
        assert run.scenario["topology"]["n"] == run.params["topology.n"]
        assert run.seed == spawn_seed(spec.seed, run.index)


def test_run_level_axes_override_workload_and_adversaries():
    adversary = {"kind": "blackhole", "position": [200.0, 0.0]}
    spec = tiny_spec(axes={
        "workload.count": [2, 4],
        "adversaries": [[], [adversary]],
    })
    runs = spec.expand()
    assert len(runs) == 4
    counts = {(r.workload["count"], len(r.adversaries)) for r in runs}
    assert counts == {(2, 0), (2, 1), (4, 0), (4, 1)}
    # base spec objects are not shared between runs
    runs[0].workload["count"] = 999
    assert runs[1].workload["count"] != 999


def test_expansion_is_deterministic_and_seeds_distinct():
    a = tiny_spec(replicates=3).expand()
    b = tiny_spec(replicates=3).expand()
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]
    assert len({r.seed for r in a}) == len(a)


def test_random_sampling_is_deterministic():
    sampled = dict(
        axes={},
        samples={"count": 4, "space": {
            "radio.loss_rate": [0.0, 0.2],
            "topology.n": [3, 6],
            "router": {"choices": ["secure", "plain"]},
        }},
    )
    a = tiny_spec(**sampled).expand()
    b = tiny_spec(**sampled).expand()
    assert len(a) == 4
    assert [r.params for r in a] == [r.params for r in b]
    for run in a:
        assert 0.0 <= run.params["radio.loss_rate"] <= 0.2
        assert run.params["topology.n"] in (3, 4, 5, 6)  # int range inclusive
        assert run.params["router"] in ("secure", "plain")


def test_spec_validation():
    with pytest.raises(ValueError):
        CampaignSpec.from_dict({"name": "x"})  # no base
    with pytest.raises(ValueError):
        CampaignSpec.from_dict({"base": {}, "bogus": 1})
    with pytest.raises(ValueError):
        CampaignSpec.from_dict({"base": {}, "axes": {"router": []}})
    with pytest.raises(ValueError):
        CampaignSpec.from_dict({"base": {}, "replicates": 0})
    for key in ("workload", "bootstrap", "adversaries"):
        with pytest.raises(ValueError, match=key):
            CampaignSpec.from_dict({"base": {}, key: 5})
    bad_space = tiny_spec(samples={"count": 1, "space": {"radio.loss_rate": "nope"}})
    with pytest.raises(ValueError):
        bad_space.expand()


def test_spec_round_trips_through_dict_and_file(tmp_path):
    spec = tiny_spec(replicates=2)
    clone = CampaignSpec.from_dict(spec.to_dict())
    assert clone.to_dict() == spec.to_dict()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    assert CampaignSpec.from_file(path).to_dict() == spec.to_dict()


# -- run execution ----------------------------------------------------------

def test_execute_run_produces_ok_record_with_flat_summary():
    run = tiny_spec().expand()[0]
    record = execute_run(run.to_dict())
    assert record["status"] == "ok", record.get("error")
    assert record["run_id"] == run.run_id
    summary = record["summary"]
    assert summary["data_sent"] > 0
    assert summary["pdr"] == 1.0
    assert summary["configured_hosts"] == 3
    assert json.loads(json.dumps(record)) == record


def test_execute_run_isolates_failures():
    run = tiny_spec().expand()[0].to_dict()
    run["scenario"]["topology"] = {"kind": "moebius", "n": 3}
    record = execute_run(run)
    assert record["status"] == "error"
    assert "moebius" in record["error"]
    assert "summary" not in record


def test_execute_run_with_adversary_and_poisson_workload():
    spec = tiny_spec(
        base={
            "topology": {"kind": "positions",
                         "points": [[0.0, 0.0], [400.0, 0.0],
                                    [100.0, 150.0], [300.0, 150.0]]},
            "radio": {"range": 250.0},
            "dns": {"position": [200.0, -400.0]},
        },
        axes={},
        adversaries=[{"kind": "blackhole", "position": [200.0, 0.0],
                      "forge_rreps": True}],
        workload={"kind": "poisson", "flows": 1, "rate": 2.0, "count": 4,
                  "pairs": [[0, 1]]},
        duration=20.0,
    )
    record = execute_run(spec.expand()[0].to_dict())
    assert record["status"] == "ok", record.get("error")
    assert record["summary"]["hosts"] == 4          # honest hosts only
    assert record["summary"]["data_sent"] >= 4


def test_typoed_workload_or_bootstrap_key_fails_the_run():
    # refused when the spec loads ...
    with pytest.raises(ValueError, match="intervall"):
        tiny_spec(workload={"kind": "cbr", "intervall": 0.5})
    with pytest.raises(ValueError, match="stager"):
        tiny_spec(bootstrap={"stager": 1.0})
    # ... and a hand-built run with the same typo still fails alone
    run = tiny_spec().expand()[0].to_dict()
    record = execute_run({**run, "workload": {"kind": "cbr", "intervall": 0.5}})
    assert record["status"] == "error"
    assert "intervall" in record["error"]
    record = execute_run({**run, "bootstrap": {"stager": 1.0}})
    assert record["status"] == "error"
    assert "stager" in record["error"]


_BAD_BLACKHOLE = {"kind": "blackhole", "position": [200.0, 0.0],
                  "forge_rrep": True}

#: A mistake in a run-level entry: the spec overrides that carry it, the
#: run field and value a hand-built run carries it in, and the name the
#: error must give.
MISTYPED_RUN_ENTRIES = {
    "workload kind": ({"workload": {"kind": "cbrr"}},
                      "workload", {"kind": "cbrr"}, "cbrr"),
    "workload key": ({"workload": {"intervall": 0.5}},
                     "workload", {"intervall": 0.5}, "intervall"),
    "workload axis": ({"axes": {"workload.intervall": [0.5, 2.0]}},
                      "workload", {"kind": "cbr", "intervall": 0.5},
                      "intervall"),
    "adversary kind": ({"adversaries": [{"kind": "wormhole",
                                         "position": [200.0, 0.0]}]},
                       "adversaries",
                       [{"kind": "wormhole", "position": [200.0, 0.0]}],
                       "wormhole"),
    "adversary kwarg": ({"adversaries": [_BAD_BLACKHOLE]},
                        "adversaries", [_BAD_BLACKHOLE], "forge_rrep"),
    "adversary position": ({"adversaries": [{"kind": "blackhole"}]},
                           "adversaries", [{"kind": "blackhole"}], "position"),
    "adversaries axis": ({"axes": {"adversaries": [[], [_BAD_BLACKHOLE]]}},
                         "adversaries", [_BAD_BLACKHOLE], "forge_rrep"),
    "bootstrap key": ({"bootstrap": {"stager": 1.0}},
                      "bootstrap", {"stager": 1.0}, "stager"),
}


@pytest.mark.parametrize("case", sorted(MISTYPED_RUN_ENTRIES))
def test_mistyped_run_entry_is_refused_at_load(case, tmp_path, capsys):
    from repro.campaign.cli import main

    overrides, field, value, name = MISTYPED_RUN_ENTRIES[case]
    with pytest.raises(ValueError, match=name):
        tiny_spec(**overrides)

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**tiny_spec().to_dict(), **overrides}))
    out = tmp_path / "out"
    assert main(["run", str(spec_path), "--workers", "1",
                 "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and name in err[0]
    assert not out.exists()  # refused before any run

    # execute_run still checks what it runs
    record = execute_run({**tiny_spec().expand()[0].to_dict(), field: value})
    assert record["status"] == "error"
    assert name in record["error"]


def test_run_level_checks_leave_good_entries_alone():
    spec = tiny_spec(
        workload={"kind": "request_response"},
        adversaries=[{"kind": "dns_impersonator", "position": [200.0, 0.0],
                      "fake_answer": "fec0::bad"}],
        axes={"workload.kind": ["cbr", "poisson"],
              "adversaries": [[], [{"kind": "blackhole",
                                    "position": [200.0, 0.0]}]],
              "bootstrap.stagger": [0.1, 0.5]},
        samples={"count": 2, "space": {"workload.count": [2, 4]}},
    )
    # spec.json's merged workload keeps the spec's defaults, not the
    # request/response class's own (5, 2.0 and 128)
    assert spec.workload == {"kind": "request_response", "flows": 1,
                             "interval": 1.0, "count": 10, "payload_size": 64}
    assert spec.bootstrap == {"stagger": 0.25}
    assert len(spec.expand()) == 8 + 2
    with pytest.raises(ValueError, match="'workload.kind'.*'cbrr'"):
        tiny_spec(samples={"count": 1, "space": {
            "workload.kind": {"choices": ["cbr", "cbrr"]}}})


def test_compare_tolerates_records_missing_metrics():
    base = [{"run_id": "r", "params": {}, "status": "ok", "summary": {}}]
    cur = [{"run_id": "r", "params": {}, "status": "ok",
            "summary": {"pdr": 0.5, "latency_p95": 0.1}}]
    result = compare(base, cur)  # must not raise on the improvement message
    assert len(result["improvements"]) == 1


def test_deadline_guard_times_out():
    with pytest.raises(RunTimeout):
        with deadline(0.05):
            time.sleep(2.0)
    # and is a no-op when disarmed
    with deadline(None):
        pass
    with deadline(0):
        pass


def test_run_timeout_yields_timeout_record(monkeypatch):
    import repro.campaign.runner as runner_mod

    def slow_body(run):
        time.sleep(5.0)

    monkeypatch.setattr(runner_mod, "_run_body", slow_body)
    run = tiny_spec(timeout=0.1).expand()[0].to_dict()
    record = runner_mod.execute_run(run)
    assert record["status"] == "timeout"
    assert "wall-clock" in record["error"]


# -- campaign orchestration --------------------------------------------------

def test_parallel_matches_inline_byte_for_byte(tmp_path):
    spec = tiny_spec(replicates=2)
    inline = run_campaign(spec, workers=1, out_dir=tmp_path / "inline")
    parallel = run_campaign(tiny_spec(replicates=2), workers=2,
                            out_dir=tmp_path / "parallel")
    assert [json.dumps(r, sort_keys=True) for r in inline] == \
           [json.dumps(r, sort_keys=True) for r in parallel]
    assert (tmp_path / "inline" / "results.jsonl").read_bytes() == \
           (tmp_path / "parallel" / "results.jsonl").read_bytes()
    for name in ("results.jsonl", "report.json", "report.txt", "spec.json"):
        assert (tmp_path / "parallel" / name).exists()


def test_failed_runs_do_not_sink_the_campaign():
    spec = tiny_spec(axes={"router": ["secure", "no-such-router"]})
    records = run_campaign(spec, workers=1)
    statuses = {r["params"]["router"]: r["status"] for r in records}
    assert statuses == {"secure": "ok", "no-such-router": "error"}


# -- aggregation and baselines ----------------------------------------------

def test_aggregate_groups_replicates_and_reports_failures():
    spec = tiny_spec(replicates=2, axes={"router": ["secure", "plain"]})
    records = run_campaign(spec, workers=1)
    records[-1] = {**records[-1], "status": "error", "error": "X"}
    report = aggregate(records)
    assert report["runs"] == 4 and report["ok"] == 3
    assert len(report["failed"]) == 1
    by_params = {json.dumps(g["params"], sort_keys=True): g
                 for g in report["groups"]}
    secure = by_params[json.dumps({"router": "secure"}, sort_keys=True)]
    assert secure["runs"] == 2
    stats = secure["metrics"]["pdr"]
    assert stats["min"] <= stats["mean"] <= stats["max"]
    text = report_text(report)
    assert "router=secure" in text and "Failed runs:" in text


def test_quarantined_records_count_as_failures_never_pollute_metrics():
    spec = tiny_spec(replicates=2, axes={"router": ["secure", "plain"]})
    records = run_campaign(spec, workers=1)
    clean = aggregate(records)
    # quarantine one run of each group: no summary (the run never
    # completed), identity fields intact -- exactly what the runner's
    # retry-exhaustion path writes
    poisoned = json.loads(json.dumps(records))
    for victim in (poisoned[0], poisoned[-1]):
        victim.pop("summary", None)
        victim["status"] = "quarantined"
        victim["error"] = "worker died: poison"
        victim["attempts"] = 3
    report = aggregate(poisoned)
    assert report["runs"] == 4 and report["ok"] == 2
    assert report["quarantined"] == 2
    # quarantined runs land in the failed column...
    assert {f["status"] for f in report["failed"]} == {"quarantined"}
    # ...and the surviving groups' sketches reduce over the ok runs
    # only: each group's run count dropped by its quarantined member and
    # every stat still lies inside the clean campaign's envelope
    clean_groups = {json.dumps(g["params"], sort_keys=True): g
                    for g in clean["groups"]}
    for group in report["groups"]:
        key = json.dumps(group["params"], sort_keys=True)
        assert group["runs"] == clean_groups[key]["runs"] - 1
        for name, stat in group["metrics"].items():
            envelope = clean_groups[key]["metrics"][name]
            assert envelope["min"] <= stat["mean"] <= envelope["max"]
    # the headline makes the quarantine visible
    text = report_text(report)
    assert "2 quarantined" in text
    # a clean campaign reports the key at zero and stays silent in text
    assert clean["quarantined"] == 0
    assert "quarantined" not in report_text(clean)


def test_compare_flags_pdr_and_status_regressions():
    spec = tiny_spec()
    records = run_campaign(spec, workers=1)
    degraded = json.loads(json.dumps(records))  # deep copy
    degraded[0]["summary"]["pdr"] -= 0.5
    degraded[1]["status"] = "error"
    degraded[1]["error"] = "kaput"
    del degraded[1]["summary"]
    result = compare(records, degraded)
    assert len(result["regressions"]) == 2
    assert result["matched"] == len(records)
    assert "REGRESSION" in comparison_text(result)
    # identical results compare clean
    assert compare(records, records)["regressions"] == []


def test_compare_flags_param_drift_instead_of_false_diffing():
    # same run_ids, but an axis value changed: must not compare metrics
    records = run_campaign(tiny_spec(), workers=1)
    drifted = json.loads(json.dumps(records))
    for record in drifted:
        record["params"]["radio.loss_rate"] = 0.2
        record["summary"]["pdr"] = 0.0  # would be a huge "regression"
    result = compare(records, drifted)
    assert result["regressions"] == []
    assert result["matched"] == 0
    assert len(result["mismatched"]) == len(records)
    assert "SPEC DRIFT" in comparison_text(result)


def test_cli_compare_strict_fails_on_matrix_drift(tmp_path, capsys):
    from repro.campaign.aggregate import write_jsonl
    from repro.campaign.cli import main

    base = [{"run_id": "c-0000", "params": {"x": 1}, "status": "ok",
             "summary": {"pdr": 1.0, "latency_p95": 0.1}}]
    renamed = [{"run_id": "c-0001", "params": {"x": 1}, "status": "ok",
                "summary": {"pdr": 1.0, "latency_p95": 0.1}}]
    base_path, cur_path = tmp_path / "base.jsonl", tmp_path / "cur.jsonl"
    write_jsonl(base_path, base)
    write_jsonl(cur_path, renamed)
    # default: drift is reported but not fatal (spec evolution is normal)
    assert main(["compare", str(base_path), str(cur_path)]) == 0
    # strict (the CI gate): a baseline that matches nothing is no gate
    assert main(["compare", "--strict", str(base_path), str(cur_path)]) == 1
    assert "drifted" in capsys.readouterr().out
    # strict with an identical matrix still passes
    assert main(["compare", "--strict", str(base_path), str(base_path)]) == 0


def test_compare_zero_latency_baseline_is_not_a_regression():
    base = [{"run_id": "r", "params": {}, "status": "ok",
             "summary": {"pdr": 0.0, "latency_p95": 0.0}}]
    cur = [{"run_id": "r", "params": {}, "status": "ok",
            "summary": {"pdr": 0.5, "latency_p95": 0.3}}]
    result = compare(base, cur)
    assert result["regressions"] == []
    assert len(result["improvements"]) == 1


def _lethal_execute_run(run):
    """Module-level so the pool can pickle it; run 0 dies like an OOM-kill."""
    if run["index"] == 0:
        import os

        os._exit(1)  # uncatchable in-process, breaks the shared pool
    return execute_run(run)  # the real one, bound at module import


def test_worker_death_yields_quarantine_record_not_campaign_abort(tmp_path):
    import repro.campaign.runner as runner_mod

    spec = tiny_spec(retry_max_attempts=2, retry_backoff=0.0)
    payload_ids = [r.run_id for r in spec.expand()]
    real_execute = runner_mod.execute_run
    runner_mod.execute_run = _lethal_execute_run
    try:
        records = run_campaign(spec, workers=2, out_dir=tmp_path / "out")
    finally:
        runner_mod.execute_run = real_execute
    statuses = {r["run_id"]: r["status"] for r in records}
    # the killer run exhausts its retry budget and is quarantined; the
    # innocent bystander is retried and completes
    assert statuses[payload_ids[0]] == "quarantined"
    assert statuses[payload_ids[1]] == "ok"
    killer = [r for r in records if r["run_id"] == payload_ids[0]][0]
    assert "worker died" in killer["error"]
    assert killer["attempts"] == 2
    # results still landed on disk, plus the quarantine diagnostic
    assert (tmp_path / "out" / "results.jsonl").exists()
    assert runner_mod.validate_quarantine_file(
        tmp_path / "out" / "quarantine.jsonl") == 1


def test_cli_failed_runs_outrank_regression_exit_code(tmp_path):
    from repro.campaign.cli import main

    spec = tiny_spec(axes={"router": ["secure", "no-such-router"]})
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec.to_dict()))
    out = tmp_path / "out"
    assert main(["run", str(spec_path), "--workers", "1",
                 "--out", str(out), "--quiet"]) == 3

    # baseline where everything was better AND ok -> regressions exist,
    # but the failed-run signal (3) must win
    records = load_results(out)
    for record in records:
        record["status"] = "ok"
        record["summary"] = {"pdr": 2.0, "latency_p95": 0.0}
    write_jsonl(tmp_path / "baseline.jsonl", records)
    assert main(["run", str(spec_path), "--workers", "1",
                 "--out", str(tmp_path / "out2"), "--quiet",
                 "--baseline", str(tmp_path / "baseline.jsonl")]) == 3


def test_compare_reports_added_and_removed_runs():
    records = run_campaign(tiny_spec(), workers=1)
    result = compare(records[:-1], records[1:])
    assert result["removed"] == [records[0]["run_id"]]
    assert result["added"] == [records[-1]["run_id"]]


def test_jsonl_round_trip(tmp_path):
    records = [{"run_id": "a", "index": 0, "status": "ok",
                "params": {}, "summary": {"pdr": 1.0}}]
    path = tmp_path / "r.jsonl"
    write_jsonl(path, records)
    assert load_results(path) == records
    # directory form resolves results.jsonl
    write_jsonl(tmp_path / "results.jsonl", records)
    assert load_results(tmp_path) == records


# -- CLI --------------------------------------------------------------------

def test_cli_run_report_compare(tmp_path, capsys):
    from repro.campaign.cli import main

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(tiny_spec().to_dict()))
    out = tmp_path / "out"

    assert main(["run", str(spec_path), "--workers", "1",
                 "--out", str(out), "--quiet"]) == 0
    assert (out / "results.jsonl").exists()
    assert "Campaign aggregate" in capsys.readouterr().out

    assert main(["report", str(out)]) == 0
    assert "Campaign aggregate" in capsys.readouterr().out

    # self-compare is clean; gating against self via run --baseline too
    assert main(["compare", str(out / "results.jsonl"),
                 str(out / "results.jsonl")]) == 0
    assert main(["run", str(spec_path), "--workers", "1",
                 "--out", str(tmp_path / "out2"), "--quiet",
                 "--baseline", str(out / "results.jsonl")]) == 0

    # a doctored baseline with better pdr makes the gate fail
    records = load_results(out)
    for record in records:
        record["summary"]["pdr"] = 2.0
    write_jsonl(tmp_path / "better.jsonl", records)
    assert main(["compare", str(tmp_path / "better.jsonl"),
                 str(out / "results.jsonl")]) == 1


# -- explain: replay one run with the trace on -------------------------------

REFERENCE_FAULTS = Path(__file__).resolve().parent.parent / "campaigns" / "reference-faults"


@pytest.fixture
def faults_campaign(tmp_path):
    return shutil.copytree(REFERENCE_FAULTS, tmp_path / "reference-faults")


def _trace_node(line: str) -> str:
    """The node column of a ``TraceEvent`` line."""
    return re.match(r"\[\s*[\d.]+\] +(\S+) ", line).group(1)


def test_cli_explain_replays_a_run_and_prints_its_trace(faults_campaign, capsys):
    from repro.campaign.cli import main

    assert main(["explain", str(faults_campaign), "reference-faults-0004"]) == 0
    faults = [line for line in capsys.readouterr().out.splitlines()
              if " FAULT " in line]
    assert any("crash" in line for line in faults)
    assert any("partition" in line for line in faults)

    # by index, filtered to one node
    assert main(["explain", str(faults_campaign), "4", "--node", "n2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(_trace_node(line) == "n2" for line in lines)
    assert any(" FAULT crash" in line for line in lines)


def test_cli_explain_names_the_field_a_replay_diverges_on(faults_campaign, capsys):
    from repro.campaign.cli import main

    results = faults_campaign / "results.jsonl"
    records = load_results(results)
    records[4]["summary"]["data_delivered"] += 1
    write_jsonl(results, records)

    assert main(["explain", str(faults_campaign), "reference-faults-0004"]) == 1
    captured = capsys.readouterr()
    assert "summary.data_delivered" in captured.err
    assert captured.out == ""  # no trace for a run that did not replay
    # the untouched runs still replay
    assert main(["explain", str(faults_campaign), "reference-faults-0005"]) == 0


def test_cli_explain_rejects_an_unknown_run(faults_campaign, tmp_path, capsys):
    from repro.campaign.cli import main

    assert main(["explain", str(faults_campaign), "reference-faults-0099"]) == 2
    assert "reference-faults-0099" in capsys.readouterr().err
    assert main(["explain", str(tmp_path / "missing"), "0"]) == 2
