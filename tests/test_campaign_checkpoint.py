"""One checkpoint behind ``resume`` and ``merge``: damaged directories.

Both verbs read a campaign directory through the same
:class:`~repro.campaign.checkpoint.Checkpoint`, so a damaged shard
checkpoint must come out the same way whichever verb reads it: either
the campaign ends byte-identical to a clean run (after a ``resume``
where the damage left gaps) or both verbs refuse it with the same
error.
"""

from __future__ import annotations

import json
import shutil

import pytest

from conftest import campaign_artifacts, streaming_campaign_dict, truncate_jsonl
from repro.campaign import CampaignRunner, CampaignSpec
from repro.campaign.checkpoint import CheckpointError
from repro.campaign.merge import discover_shard_dirs, merge_shards


def _spec(**overrides) -> CampaignSpec:
    return CampaignSpec.from_dict(streaming_campaign_dict(**overrides))


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """A single-host anchor plus a clean 2-shard split of the same spec."""
    root = tmp_path_factory.mktemp("clean")
    CampaignRunner(_spec(), workers=1, out_dir=root / "anchor").run()
    for index in range(2):
        CampaignRunner(_spec(shards=2, shard_index=index), workers=1,
                       out_dir=root / "shards").run()
    return {"anchor": campaign_artifacts(root / "anchor"),
            "shards": root / "shards"}


def _lines(shard_dir) -> list[str]:
    return (shard_dir / "results.jsonl").read_text().splitlines()


def _write_lines(shard_dir, lines) -> None:
    (shard_dir / "results.jsonl").write_text("".join(l + "\n" for l in lines))


def _torn_final_line(shard_dir):
    truncate_jsonl(shard_dir / "results.jsonl", keep_lines=3, torn_bytes=20)


def _index_outside_the_matrix(shard_dir):
    stray = json.loads(_lines(shard_dir)[0])
    stray["index"] = 99
    _write_lines(shard_dir, _lines(shard_dir) + [json.dumps(stray, sort_keys=True)])


def _drifted_seed(shard_dir):
    lines = _lines(shard_dir)
    drifted = json.loads(lines[1])
    drifted["seed"] += 1
    lines[1] = json.dumps(drifted, sort_keys=True)
    _write_lines(shard_dir, lines)


def _identical_duplicate(shard_dir):
    lines = _lines(shard_dir)
    _write_lines(shard_dir, lines + [lines[0]])


def _differing_duplicate(shard_dir):
    # a tampered copy of run 0 lands *before* the genuine one: keeping
    # the first copy would finalize the tampered record
    lines = _lines(shard_dir)
    tampered = json.loads(lines[0])
    tampered["summary"]["pdr"] = -1.0
    _write_lines(shard_dir, [json.dumps(tampered, sort_keys=True)] + lines)


def _foreign_spec_json(shard_dir):
    (shard_dir / "spec.json").write_text(
        json.dumps(_spec(seed=999, shards=2, shard_index=0).to_dict()))


def _other_shard_assignment(shard_dir):
    manifest = json.loads((shard_dir / "shard.json").read_text())
    manifest["shard_index"] = 1
    (shard_dir / "shard.json").write_text(json.dumps(manifest))


CASES = {
    "torn final line": (_torn_final_line, "identical"),
    "index outside the matrix": (_index_outside_the_matrix, "identical"),
    "drifted seed": (_drifted_seed, "identical"),
    "identical duplicate": (_identical_duplicate, "identical"),
    "differing duplicate": (_differing_duplicate, "identical"),
    "spec.json from another spec": (_foreign_spec_json, "refused"),
    "shard.json for another assignment": (_other_shard_assignment, "refused"),
}


def _damaged_copy(clean, tmp_path, damage):
    root = tmp_path / "campaign"
    shutil.copytree(clean["shards"], root)
    damage(root / "shard-0-of-2")
    return root


def _through_resume(clean, tmp_path, damage):
    """Resume the damaged shard, then merge: the anchor's bytes, or an error."""
    root = _damaged_copy(clean, tmp_path, damage)
    try:
        CampaignRunner(_spec(shards=2, shard_index=0), workers=1,
                       out_dir=root).resume()
    except ValueError as exc:
        return str(exc).replace(str(root), "<campaign>")
    merge_shards(_spec(), discover_shard_dirs(root), root / "merged")
    return campaign_artifacts(root / "merged")


def _through_merge(clean, tmp_path, damage):
    """Merge the damaged shards, then resume the gaps: bytes, or an error."""
    root = _damaged_copy(clean, tmp_path, damage)
    out = root / "merged"
    try:
        summary = merge_shards(_spec(), discover_shard_dirs(root), out,
                               allow_partial=True)
    except ValueError as exc:
        return str(exc).replace(str(root), "<campaign>")
    if not summary["complete"]:
        CampaignRunner(_spec(), workers=1, out_dir=out).resume()
    return campaign_artifacts(out)


@pytest.mark.parametrize("case", list(CASES))
def test_damaged_checkpoint_ends_the_same_through_resume_and_merge(
    clean, tmp_path, case
):
    damage, expected = CASES[case]
    resumed = _through_resume(clean, tmp_path / "resume", damage)
    merged = _through_merge(clean, tmp_path / "merge", damage)
    if expected == "identical":
        assert resumed == clean["anchor"], "resume"
        assert merged == clean["anchor"], "merge"
        return
    # refused by both verbs with the same error, bar the verb itself
    assert isinstance(resumed, str) and isinstance(merged, str)
    assert resumed.startswith("refusing to resume: ")
    assert merged.startswith("refusing to merge: ")
    assert resumed.split(": ", 1)[1] == merged.split(": ", 1)[1]


def test_differing_duplicates_are_quarantined_by_resume(clean, tmp_path):
    root = _damaged_copy(clean, tmp_path, _differing_duplicate)
    messages = []
    CampaignRunner(_spec(shards=2, shard_index=0), workers=1, out_dir=root,
                   echo=messages.append).resume()
    conflicts = [json.loads(line) for line in
                 (root / "shard-0-of-2" / "merge-conflicts.jsonl")
                 .read_text().splitlines()]
    # both copies are kept as evidence, neither reached results.jsonl
    assert [c["index"] for c in conflicts] == [0, 0]
    assert sorted(c["record"]["summary"]["pdr"] for c in conflicts)[0] == -1.0
    assert any("differing copies" in m for m in messages)
    assert any("5 of 6 runs checkpointed, 1 left" in m for m in messages)


def test_refusal_raises_checkpoint_error_before_writing(clean, tmp_path):
    root = _damaged_copy(clean, tmp_path, _foreign_spec_json)
    before = (root / "shard-0-of-2" / "results.jsonl").read_bytes()
    with pytest.raises(CheckpointError, match="different campaign spec"):
        CampaignRunner(_spec(shards=2, shard_index=0), workers=1,
                       out_dir=root).resume()
    assert (root / "shard-0-of-2" / "results.jsonl").read_bytes() == before
