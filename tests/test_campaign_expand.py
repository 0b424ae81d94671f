"""Campaign expansion: cheap per-run copies, same payloads, no sharing.

``CampaignSpec.expand()`` copies the spec's JSON-shaped data for every
run without ``copy.deepcopy``, and ``RunSpec.to_dict()`` no longer
copies it again.  The oracle below is the expansion as it was written
with ``copy.deepcopy`` and ``dataclasses.asdict``; the payloads (and
the checkpoint built from them) must equal it value for value, key
order and scalar types included, and no run may share nested data with
another run or with the spec.
"""

import copy
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro.campaign import CampaignSpec
from repro.campaign.checkpoint import Checkpoint, fingerprint_digest
from repro.campaign.cli import main
from repro.campaign.spec import RunSpec, set_by_path
from repro.sim.rng import spawn_seed

ROOT = Path(__file__).resolve().parents[1]
ANCHORS = ["reference", "reference-faults"]
RUN_LEVEL = {"workload", "adversaries", "bootstrap", "duration"}
BLACKHOLE = {"kind": "blackhole", "position": [200.0, 75.0]}


def deepcopy_payloads(spec: CampaignSpec) -> list[dict]:
    """The expansion as it was: ``copy.deepcopy`` per run, ``asdict`` per payload."""
    sampled = spec._sampled_points()
    grid = spec._grid_points() if (spec.axes or not sampled) else []
    payloads = []
    index = 0
    for params in grid + sampled:
        for replicate in range(spec.replicates):
            seed = spawn_seed(spec.seed, index)
            scenario = copy.deepcopy(spec.base)
            run_level = {
                "workload": copy.deepcopy(spec.workload),
                "adversaries": copy.deepcopy(spec.adversaries),
                "bootstrap": copy.deepcopy(spec.bootstrap),
                "duration": spec.duration,
            }
            for path, value in params.items():
                head = path.split(".", 1)[0]
                if head in RUN_LEVEL:
                    if path == head:
                        run_level[head] = copy.deepcopy(value)
                    else:
                        set_by_path(run_level, path, copy.deepcopy(value))
                else:
                    set_by_path(scenario, path, copy.deepcopy(value))
            scenario["seed"] = seed
            payloads.append(asdict(RunSpec(
                run_id=f"{spec.name}-{index:04d}",
                index=index,
                replicate=replicate,
                seed=seed,
                params=copy.deepcopy(params),
                scenario=scenario,
                workload=run_level["workload"],
                adversaries=run_level["adversaries"],
                bootstrap=run_level["bootstrap"],
                duration=float(run_level["duration"]),
                timeout=spec.timeout,
            )))
            index += 1
    return payloads


def run_level_spec() -> dict:
    return {
        "name": "levels",
        "seed": 31,
        "replicates": 2,
        "base": {
            "topology": {"kind": "positions", "points": [
                [0.0, 0.0], [150.0, 0.0], [300.0, 0.0], [150.0, 150.0]]},
            "radio": {"range": 250.0},
            "dns": {"position": [0.0, 150.0]},
        },
        "axes": {
            "workload.interval": [0.5, 2],
            "adversaries": [[], [BLACKHOLE]],
            "topology.points": [[[0.0, 0.0], [200.0, 0.0]]],
        },
        "adversaries": [{"kind": "blackhole", "position": [75.0, 75.0]}],
        "workload": {"kind": "cbr", "flows": 1, "count": 3, "pairs": [[0, 1]]},
        "bootstrap": {"stagger": 0.5},
        "duration": 8,
    }


def sampled_spec() -> dict:
    return {
        "name": "sampled",
        "seed": 77,
        "replicates": 2,
        "base": {"topology": {"kind": "chain", "n": 3, "spacing": 200.0}},
        "samples": {"count": 5, "space": {
            "radio.loss_rate": [0.0, 0.2],
            "topology.n": [3, 6],
            "workload": {"choices": [
                {"kind": "cbr", "count": 2, "pairs": [[0, 1]]},
                {"kind": "poisson", "rate": 2.0, "count": 3},
            ]},
        }},
    }


def spec_dicts() -> dict:
    specs = {name: json.loads((ROOT / "campaigns" / name / "spec.json").read_text())
             for name in ANCHORS}
    specs["sampled"] = sampled_spec()
    specs["run-level"] = run_level_spec()
    return specs


@pytest.mark.parametrize("name", sorted(spec_dicts()))
def test_payloads_equal_the_deepcopy_expansion(name):
    spec = CampaignSpec.from_dict(spec_dicts()[name])
    expected = deepcopy_payloads(spec)
    payloads = [run.to_dict() for run in spec.expand()]
    assert payloads == expected
    # json.dumps keeps key order and tells 2 from 2.0 where == does not
    assert json.dumps(payloads) == json.dumps(expected)
    assert json.dumps(Checkpoint(spec).payloads) == json.dumps(expected)
    assert [RunSpec.from_dict(p) for p in payloads] == spec.expand()


@pytest.mark.parametrize("name", ANCHORS)
def test_anchor_spec_keeps_its_fingerprint(name):
    """Committed campaign directories still resume, merge and replay."""
    data = json.loads((ROOT / "campaigns" / name / "spec.json").read_text())
    spec = CampaignSpec.from_dict(data)
    assert fingerprint_digest(spec.to_dict()) == fingerprint_digest(data)


@pytest.mark.parametrize("name", sorted(spec_dicts()))
def test_mutating_one_run_changes_no_other_run_nor_the_spec(name):
    spec = CampaignSpec.from_dict(spec_dicts()[name])
    before = json.dumps(spec.to_dict())
    runs = spec.expand()
    expected = json.dumps(deepcopy_payloads(spec))
    victim = runs[0]
    victim.params["extra"] = 1
    for value in victim.params.values():
        if isinstance(value, dict):
            value["mutated"] = True
        elif isinstance(value, list):
            value.append("mutated")
    victim.scenario["radio"] = {"mutated": True}
    victim.scenario["topology"]["mutated"] = True
    if "points" in victim.scenario["topology"]:
        victim.scenario["topology"]["points"][0][0] = -1.0
    victim.workload["count"] = 999
    victim.adversaries.append({"kind": "mutated"})
    for adversary in victim.adversaries:
        adversary["mutated"] = True
    victim.bootstrap["stagger"] = 99.0
    # the dict handed to the checkpoint is that run's own data too
    payload = runs[1].to_dict()
    payload["scenario"]["mutated"] = True
    payload["params"]["mutated"] = True

    assert json.dumps(spec.to_dict()) == before
    fresh = json.loads(expected)
    assert [run.to_dict() for run in runs[2:]] == fresh[2:]
    assert json.dumps([run.to_dict() for run in spec.expand()]) == expected


def test_replicates_and_repeated_sample_choices_do_not_share_params():
    spec = CampaignSpec.from_dict(sampled_spec())
    runs = spec.expand()
    first, twin = runs[0], runs[1]  # two replicates of one sampled point
    assert first.params == twin.params
    first.params["workload"]["count"] = 999
    first.workload["count"] = 998
    assert twin.params["workload"]["count"] != 999
    assert twin.workload["count"] != 998
    assert spec.samples["space"]["workload"]["choices"][0]["count"] == 2


def test_non_json_values_are_still_copied():
    """A numpy value or a tuple in a programmatic spec keeps its type and is copied."""
    data = run_level_spec()
    data["axes"]["radio.loss_rate"] = [np.float64(0.1), np.array([0.2])]
    data["base"]["dns"]["position"] = (0.0, 150.0)
    spec = CampaignSpec.from_dict(data)
    runs = spec.expand()
    for run, expected in zip(runs, deepcopy_payloads(spec)):
        value, want = run.params["radio.loss_rate"], expected["params"]["radio.loss_rate"]
        assert type(value) is type(want) and np.array_equal(value, want)
    assert type(runs[0].scenario["radio"]["loss_rate"]) is np.float64
    assert all(run.scenario["dns"]["position"] == (0.0, 150.0) for run in runs)
    arrays = [run.scenario["radio"]["loss_rate"] for run in runs
              if isinstance(run.params["radio.loss_rate"], np.ndarray)]
    assert len(arrays) == len(runs) // 2
    arrays[0][0] = 9.0
    assert spec.axes["radio.loss_rate"][1][0] == 0.2
    assert all(array[0] == 0.2 for array in arrays[1:])


# -- the campaign seed range --------------------------------------------------

@pytest.mark.parametrize("seed", [-1, 2 ** 128])
def test_from_dict_refuses_a_seed_outside_the_derivable_range(seed):
    with pytest.raises(ValueError, match="seed"):
        CampaignSpec.from_dict({"base": {}, "seed": seed})


def test_largest_campaign_seed_expands():
    spec = CampaignSpec.from_dict({"base": {}, "seed": 2 ** 128 - 1})
    assert spec.expand()[0].seed == spawn_seed(2 ** 128 - 1, 0)


def test_cli_run_exits_2_on_an_out_of_range_seed(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"name": "bad", "seed": -1, "base": {}}))
    out = tmp_path / "out"
    assert main(["run", str(spec_path), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "seed" in err
    assert not out.exists()


@pytest.mark.parametrize("data, key", [
    ({"base": {"medium_index": "grid"}}, "medium_index"),
    ({"base": {}, "axes": {"medium_indx": ["grid"]}}, "medium_indx"),
    ({"base": {}, "axes": {"radios.loss_rate": [0.0]}}, "radios"),
    ({"base": {}, "samples": {"count": 2, "space": {"topo.n": [3, 5]}}}, "topo"),
], ids=["base", "axis", "nested-axis", "sample"])
def test_from_dict_refuses_a_path_that_names_no_scenario_key(data, key):
    with pytest.raises(ValueError, match=repr(key)):
        CampaignSpec.from_dict(data)


@pytest.mark.parametrize("data", [
    {"base": []},
    {"base": {}, "axes": [["router", ["secure"]]]},
    {"base": {}, "samples": []},
    {"base": {}, "samples": {"count": 1, "space": [["topology.n", [3, 5]]]}},
], ids=["base", "axes", "samples", "space"])
def test_from_dict_refuses_a_section_that_is_not_an_object(data):
    with pytest.raises(ValueError, match="must be an object"):
        CampaignSpec.from_dict(data)


def test_run_level_and_scenario_paths_are_accepted():
    spec = CampaignSpec.from_dict({
        "base": {"topology": {"kind": "chain", "n": 3}, "radio": {}},
        "axes": {"workload.kind": ["cbr", "poisson"], "radio.loss_rate": [0.0],
                 "duration": [5.0], "faults": [{"events": []}]},
        "samples": {"count": 1, "space": {"topology.n": [3, 5]}},
    })
    assert len(spec.expand()) == 3


def test_cli_run_exits_2_naming_an_unknown_axis_key(tmp_path, capsys):
    data = json.loads((ROOT / "campaigns/reference/spec.json").read_text())
    data["axes"]["medium_indx"] = ["grid", "naive"]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["run", str(spec_path), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'medium_indx'" in err
    assert not out.exists()
