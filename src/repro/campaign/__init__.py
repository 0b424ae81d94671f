"""Campaign engine: sharded parallel scenario sweeps.

The paper's evaluation is a *grid* of scenarios (topology x mobility x
attacker mix x traffic load); this subsystem makes that grid a
first-class artifact:

* :class:`~repro.campaign.spec.CampaignSpec` declares sweeps (cartesian
  axes + random samples over :class:`~repro.scenarios.ScenarioBuilder`
  knobs, replicate counts, workloads, adversary mixes, batch size);
* :class:`~repro.campaign.runner.CampaignRunner` (and the
  :func:`~repro.campaign.runner.run_campaign` wrapper) executes the
  expanded run matrix on an executor (the default ``"local"``
  multiprocessing pool, or ``"inline"``) -- batching runs
  per worker task to amortise dispatch overhead, streaming completed
  records to ``results.jsonl`` as they arrive, and resuming an
  interrupted campaign from that checkpoint -- with per-run
  deterministic seeds (:func:`repro.sim.rng.spawn_seed`) and
  timeout/failure isolation.  Worker count, batch size, executor
  backend, resume interruption points, and shard splits never change
  results;
* :class:`~repro.campaign.checkpoint.Checkpoint` is the one place that
  decides which records a campaign directory holds: ``run`` is an empty
  checkpoint plus its gaps, ``resume`` a loaded one plus its gaps, a
  shard a checkpoint owning one slice of the matrix, and ``merge`` a
  union of shard checkpoints -- all under one conflict rule (identical
  copies kept once, differing copies quarantined and re-run);
* :mod:`~repro.campaign.shard` partitions the matrix deterministically
  across hosts (``campaign run --shard i/N``), and
  :mod:`~repro.campaign.merge` fuses the shard checkpoints back into
  one artifact byte-identical to a single-host run (gaps resumable);
* :mod:`~repro.campaign.aggregate` persists per-run summaries as JSONL,
  reads them back through one reader that also takes in-flight and
  crashed files (a torn final line is dropped with a warning), and
  reduces them to a grouped report in one order-independent pass;
* :mod:`~repro.campaign.baseline` diffs two result sets to catch
  PDR/latency regressions across PRs;
* ``python -m repro.campaign run|resume|merge|report|compare`` drives
  it all from the shell.
"""

from repro.campaign.aggregate import (
    aggregate,
    load_results,
    read_jsonl_partial,
    report_text,
    write_json_artifact,
    write_jsonl,
    write_report_artifacts,
)
from repro.campaign.baseline import compare, comparison_text
from repro.campaign.checkpoint import (
    Checkpoint,
    CheckpointError,
    fingerprint_digest,
    load_shard_manifest,
    spec_fingerprint,
)
from repro.campaign.merge import (
    MergeError,
    discover_shard_dirs,
    merge_shards,
    validate_merge_conflicts_file,
)
from repro.campaign.runner import (
    CampaignRunner,
    InlineExecutor,
    LocalExecutor,
    auto_batch_size,
    execute_batch,
    execute_run,
    run_campaign,
)
from repro.campaign.shard import parse_shard, shard_payloads
from repro.campaign.spec import CampaignSpec, RunSpec

__all__ = [
    "CampaignRunner",
    "CampaignSpec",
    "Checkpoint",
    "CheckpointError",
    "InlineExecutor",
    "LocalExecutor",
    "MergeError",
    "RunSpec",
    "aggregate",
    "auto_batch_size",
    "compare",
    "comparison_text",
    "discover_shard_dirs",
    "execute_batch",
    "execute_run",
    "fingerprint_digest",
    "load_results",
    "load_shard_manifest",
    "merge_shards",
    "parse_shard",
    "read_jsonl_partial",
    "report_text",
    "run_campaign",
    "shard_payloads",
    "spec_fingerprint",
    "validate_merge_conflicts_file",
    "write_json_artifact",
    "write_jsonl",
    "write_report_artifacts",
]
