"""Campaign execution: batched, streaming, resumable run-matrix sweeps.

Each run is executed by :func:`execute_run`, a module-level function so
it pickles cleanly into worker processes.  A run builds its scenario
from the serialized spec, wires adversaries, bootstraps, drives the
workload, and returns the run's :meth:`MetricsCollector.summary` as a
flat record.  :func:`execute_batch` groups several runs into one worker
task so sweeps of many *small* runs amortise pool/pickle overhead; the
batch size is auto-tuned by :func:`auto_batch_size` and overridable via
``CampaignSpec.batch_size`` / ``--batch-size``.

:class:`CampaignRunner` orchestrates the sweep: it streams completed
records to ``results.jsonl`` as they arrive (append + fsync, one JSON
object per line), so a long campaign can be ``report``-ed mid-flight
and a crash loses at most the line being written.  ``resume()`` (and
the ``campaign resume`` CLI verb) reads that checkpoint back, discards
a torn tail, re-runs only the missing indices, and finalizes output
byte-identical to an uninterrupted campaign.  Which records the
directory holds -- validated, written and finalized -- is decided by
its :class:`~repro.campaign.checkpoint.Checkpoint`.

Batches execute in a multiprocessing pool (the ``"local"`` executor)
or in the coordinating process (``"inline"``).  With a shard
assignment (``campaign run --shard i/N``) the runner executes only its
slice of the matrix into a crash-safe ``shard-i-of-N/`` checkpoint that
``campaign merge`` (:mod:`repro.campaign.merge`) later fuses -- so a
campaign survives not just a dead worker but a dead host.

Isolation guarantees:

* **Determinism** -- a run's record depends only on its :class:`RunSpec`
  (which embeds a :func:`~repro.sim.rng.spawn_seed`-derived seed), so
  worker count, batch size, scheduling order, and resume interruption
  points never change results; the runner additionally sorts records by
  run index before finalizing.
* **Failure isolation** -- an exception inside one run produces an
  ``"error"`` record; the rest of the matrix (including the failing
  run's batchmates) still completes.  A run that *kills its worker*
  (OOM, segfault) is re-executed alone with bounded exponential
  backoff; one that keeps killing workers is recorded as
  ``"quarantined"`` and diagnosed in ``quarantine.jsonl`` instead of
  failing the campaign.
* **Interrupt isolation** -- SIGINT/SIGTERM stop dispatch gracefully:
  in-flight batches are abandoned (noted in telemetry), the streaming
  checkpoint is flushed, and :class:`CampaignInterrupted` propagates so
  ``campaign resume`` can finish the matrix byte-identically.
* **Timeout isolation** -- each run arms its *own* wall-clock deadline
  (``SIGALRM``), re-armed per run inside a batch, so a runaway run
  yields a ``"timeout"`` record without eating its batchmates' budget.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import multiprocessing
import os
import signal
import sys
import threading
import time
from contextlib import contextmanager

from repro.campaign.checkpoint import Checkpoint
from repro.campaign.shard import shard_dir_name
from repro.campaign.spec import CampaignSpec
from repro.obs.telemetry import TelemetryTracker, check_fields, validate_jsonl
from repro.scenarios import (
    ScenarioBuilder,
    add_adversary,
    bootstrap_keywords,
    start_flows,
)


class RunTimeout(Exception):
    """A run exceeded its wall-clock budget."""


class CampaignInterrupted(Exception):
    """The campaign was stopped by a signal after a graceful checkpoint.

    Raised out of :meth:`CampaignRunner.run`/``resume`` once the
    streaming ``results.jsonl`` checkpoint is flushed and closed, so the
    caller can exit with the conventional ``128 + signum`` status and a
    later ``campaign resume`` picks up exactly where dispatch stopped.
    """

    def __init__(self, signum: int):
        self.signum = int(signum)
        name = signal.Signals(self.signum).name
        super().__init__(
            f"campaign interrupted by {name}; checkpoint flushed -- "
            "finish it with 'campaign resume'"
        )


@contextmanager
def deadline(seconds: float | None):
    """Arm a SIGALRM-based wall-clock deadline around a block.

    No-op when ``seconds`` is falsy, on platforms without ``SIGALRM``,
    or off the main thread (``signal`` only works there); the
    simulation itself is still bounded by virtual time in those cases.

    Batch-safe: each entry arms a *fresh* timer and, on exit, restores
    the previous handler and whatever remained of an enclosing deadline
    (minus the time this block consumed).  Consecutive runs in a batch
    therefore each get their full budget, and a pending alarm can never
    leak out of the block that armed it.
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _raise(signum, frame):
        raise RunTimeout(f"run exceeded {seconds:g}s wall-clock budget")

    previous = signal.signal(signal.SIGALRM, _raise)
    started = time.monotonic()
    outer_delay, outer_interval = signal.setitimer(
        signal.ITIMER_REAL, float(seconds)
    )
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        if outer_delay:
            # Re-arm the enclosing deadline with its remaining budget;
            # if this block already overran it, fire ~immediately so
            # the outer scope still observes its timeout.
            elapsed = time.monotonic() - started
            signal.setitimer(
                signal.ITIMER_REAL,
                max(outer_delay - elapsed, 1e-6),
                outer_interval,
            )


def _run_body(run: dict, on_build=None) -> dict:
    scenario = ScenarioBuilder.from_spec(run["scenario"]).build()
    if on_build is not None:
        on_build(scenario)
    # flows run among the hosts that existed before adversaries joined
    honest = list(scenario.hosts)
    for adversary in run.get("adversaries", []):
        add_adversary(scenario, adversary)
    scenario.bootstrap_all(**bootstrap_keywords(run.get("bootstrap", {})))
    start_flows(honest, run.get("workload", {}), run["seed"])
    scenario.run(duration=float(run.get("duration", 30.0)))

    summary = scenario.metrics.summary()
    summary["hosts"] = len(honest)
    summary["configured_hosts"] = sum(1 for h in honest if h.configured)
    return summary


def execute_run(run: dict, on_build=None) -> dict:
    """Execute one serialized :class:`RunSpec`; never raises.

    Returns a flat record: identification fields plus either the run
    summary (``status == "ok"``) or an error string.  Records contain
    no wall-clock values, so reruns of the same spec+seed are
    byte-identical.

    ``on_build(scenario)``, when given, is called with the freshly built
    scenario before anything runs; ``campaign explain`` uses it to turn
    the trace recorder on for a replay.  Observation never changes the
    record.
    """
    record = {
        "run_id": run["run_id"],
        "index": run["index"],
        "replicate": run["replicate"],
        "seed": run["seed"],
        "params": run["params"],
        "status": "ok",
    }
    try:
        with deadline(run.get("timeout")):
            # A plain run calls _run_body(run): stubs and wrappers of
            # _run_body (tests, perfbench) are written for that call.
            record["summary"] = (_run_body(run) if on_build is None
                                 else _run_body(run, on_build))
    except RunTimeout as exc:
        record["status"] = "timeout"
        record["error"] = str(exc)
    except Exception as exc:  # noqa: BLE001 - isolation is the point
        record["status"] = "error"
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def execute_batch(runs: list[dict]) -> list[dict]:
    """Execute a batch of serialized :class:`RunSpec`\\ s; never raises.

    Batching amortises pool/pickle dispatch overhead for sweeps of many
    small runs.  Isolation stays *per run*: each run re-arms its own
    wall-clock deadline inside :func:`execute_run` (a slow run cannot
    eat its batchmates' budget) and failures are recorded per run, so a
    batch always returns one record per input run.
    """
    return [execute_run(run) for run in runs]


def _timed_execute_batch(runs: list[dict]) -> dict:
    """The worker task: :func:`execute_batch` plus wall time and pid.

    Every batch returns the executing worker's pid and in-worker wall
    time with its records, for the telemetry sidecar when it is on.
    The run records themselves are untouched -- telemetry never changes
    ``results.jsonl``.
    """
    started = time.perf_counter()
    records = execute_batch(runs)
    return {
        "records": records,
        "wall_s": time.perf_counter() - started,
        "worker_pid": os.getpid(),
    }


#: Auto-tuned batches never exceed this many runs, so even enormous
#: matrices keep streaming records out at a reasonable cadence.
MAX_AUTO_BATCH = 32

#: Target batches-per-worker for the auto-tuner; oversubscription lets
#: fast workers absorb slow batches instead of idling at the tail.
_OVERSUBSCRIPTION = 4


def auto_batch_size(n_runs: int, workers: int) -> int:
    """Default batch size for ``n_runs`` across ``workers`` processes.

    Aims for ~``_OVERSUBSCRIPTION`` batches per worker (load balance)
    while capping at :data:`MAX_AUTO_BATCH` (streaming cadence).  Small
    matrices get batch size 1 -- batching only pays when per-task
    dispatch overhead rivals the runs themselves.  Execution-only:
    batch composition never affects results.
    """
    workers = max(1, int(workers))
    if n_runs <= 0:
        return 1
    return max(1, min(MAX_AUTO_BATCH,
                      math.ceil(n_runs / (workers * _OVERSUBSCRIPTION))))


# Executors call ``task``/``execute_run`` late-bound through this
# module's globals: the robustness tests monkeypatch them.

class InlineExecutor:
    """Serial in-process backend: batches run in the coordinating process.

    The ``workers <= 1`` path: no pools, no pickling, identical results
    -- easiest to debug and the only mode where a run can be stepped
    through in the coordinating process.
    """

    name = "inline"

    def run_batches(self, chunks, task, on_outcome, should_stop):
        """Run ``task(chunk)`` for each chunk, landing each through
        ``on_outcome(chunk, value, None)``, until ``should_stop()``.

        Returns the chunks dispatched but never landed -- none here,
        as a chunk never started is not in flight (the resume
        checkpoint recomputes it as pending).
        """
        for chunk in chunks:
            if should_stop():
                # nothing is in flight: the current batch completed and
                # landed before the stop check, the rest never started
                break
            on_outcome(chunk, task(chunk), None)
        return []

    def run_single(self, payload: dict) -> dict:
        return execute_run(payload)


class LocalExecutor:
    """Multiprocessing-pool backend: batches fan out across local cores.

    Worker death (OOM-kill, segfault) breaks the whole pool -- every
    pending future fails with it -- so affected chunks are reported
    through ``on_outcome`` with the death as ``error``; the runner
    retries those runs via :meth:`run_single` (a fresh single-worker
    pool, so only a genuinely poisonous run keeps failing).
    """

    name = "local"

    def __init__(self, workers: int, context=None):
        self.workers = max(1, int(workers))
        self.context = context or multiprocessing.get_context()

    def run_batches(self, chunks, task, on_outcome, should_stop):
        """Like :meth:`InlineExecutor.run_batches`, in completion order;
        a lost chunk lands as ``on_outcome(chunk, None, death)``.  The
        chunks still running when ``should_stop()`` turns true are
        returned, so a graceful shutdown can name its abandoned work."""
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=min(self.workers, len(chunks)),
            mp_context=self.context,
        )
        futures = {}
        not_done: set = set()
        try:
            futures = {pool.submit(task, c): c for c in chunks}
            not_done = set(futures)
            while not_done and not should_stop():
                # Short-timeout wait instead of as_completed so a stop
                # signal is noticed promptly even while batches run.
                done, not_done = concurrent.futures.wait(
                    not_done, timeout=0.2,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                for future in done:
                    try:
                        value = future.result()
                    except Exception as exc:  # worker died: the pool is
                        # broken and every pending future fails with it;
                        # execute_batch can't catch process death inside
                        on_outcome(futures[future], None, exc)
                    else:
                        on_outcome(futures[future], value, None)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        return [futures[future] for future in not_done]

    def run_single(self, payload: dict) -> dict:
        """Execute one run alone in a fresh one-worker pool (the
        orphan-retry path); raises if that worker dies too."""
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=1, mp_context=self.context
        ) as retry_pool:
            return retry_pool.submit(execute_run, payload).result()


def _quarantine_record(payload: dict, exc: Exception, attempts: int) -> dict:
    """Results record for a run that exhausted its worker-death retries."""
    record = {key: payload[key]
              for key in ("run_id", "index", "replicate", "seed", "params")}
    record.update(status="quarantined", attempts=int(attempts),
                  error=f"worker died: {type(exc).__name__}: {exc}")
    return record


#: Required fields of one ``quarantine.jsonl`` diagnostic line.
_QUARANTINE_FIELDS = {
    "run_id": str,
    "index": int,
    "seed": int,
    "params": dict,
    "attempts": int,
    "error": str,
}


def validate_quarantine_file(path) -> int:
    """Validate every line of a ``quarantine.jsonl``; returns the count.

    Each line is one quarantined run's diagnostic: identification
    fields, the total attempt budget it exhausted, and the final
    worker-death error.  Raises ``ValueError`` on the first malformed
    line.  The CI chaos gate uses this to schema-check quarantine
    sidecars the same way telemetry files are checked.
    """
    def check(entry, where):
        check_fields(entry, _QUARANTINE_FIELDS, f"{where} quarantine entry")
        if entry["attempts"] < 1:
            raise ValueError(f"{where} attempts must be >= 1")

    return validate_jsonl(path, check)


class CampaignRunner:
    """Batched, streaming, resumable executor for a :class:`CampaignSpec`.

    ``run()`` executes the full matrix; ``resume()`` picks up an
    interrupted campaign from its ``results.jsonl`` checkpoint.  Both
    stream records to disk as they arrive and finalize identical
    artifacts, so the determinism contract is: *worker count, batch
    size, and resume interruption points never change results* --
    ``results.jsonl``, ``report.json`` and ``report.txt`` are
    byte-identical however the campaign was executed.  Which records a
    directory holds is decided by its
    :class:`~repro.campaign.checkpoint.Checkpoint`.

    ``workers <= 1`` runs inline (easier debugging, identical results).
    ``batch_size=None`` defers to ``spec.batch_size``, and ``None``
    there auto-tunes via :func:`auto_batch_size`.  ``progress=True``
    prints a ticker line to stderr as batches land (rate and ETA once
    the first batch has completed).  ``telemetry=True`` appends an
    fsync'd ``telemetry.jsonl`` sidecar (per-batch wall time, worker
    pid, runs/sec, retry/timeout counts -- see
    :mod:`repro.obs.telemetry`) next to ``results.jsonl``; telemetry is
    wall-clock data and never changes the deterministic artifacts.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        workers: int = 2,
        batch_size: int | None = None,
        out_dir=None,
        echo=None,
        progress: bool = False,
        telemetry: bool = False,
        executor: str = "local",
    ):
        self.spec = spec
        self.workers = max(1, int(workers))
        if batch_size is None:
            batch_size = spec.batch_size
        if batch_size is not None and int(batch_size) < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = None if batch_size is None else int(batch_size)
        names = sorted((InlineExecutor.name, LocalExecutor.name))
        if executor not in names:
            raise ValueError(
                f"unknown executor {executor!r} (expected one of {names})"
            )
        #: Where batches execute.  ``"local"`` runs inline at one worker:
        #: the determinism contract makes the two interchangeable.
        self.executor = (LocalExecutor(self.workers)
                         if executor == LocalExecutor.name and self.workers > 1
                         else InlineExecutor())
        self.out_dir = None if out_dir is None else os.fspath(out_dir)
        #: ``(shard_index, shard_count)`` when the spec declares a shard
        #: assignment.  The shard's checkpoint lives in its own
        #: ``shard-<i>-of-<N>/`` subdirectory of ``out_dir``, so every
        #: shard of a campaign can point at the same parent directory
        #: (shared filesystem, collected CI artifacts) and ``campaign
        #: merge`` fuses them from there.
        self.shard = None
        if spec.shards is not None:
            self.shard = (spec.shard_index, spec.shards)
            if self.out_dir is not None:
                self.out_dir = os.path.join(
                    self.out_dir, shard_dir_name(*self.shard)
                )
        self.progress = bool(progress)
        self.telemetry = bool(telemetry)
        if self.telemetry and self.out_dir is None:
            raise ValueError("telemetry requires an output directory")
        self._say = echo or (lambda _msg: None)
        self._counts = {"ok": 0, "failed": 0}
        self._total = 0
        self._telemetry = None
        self._started = None
        self._done_at_start = 0
        self._retries = 0
        self._stop_signal = None
        self._abandoned: list[int] = []

    # -- public entry points --------------------------------------------
    def run(self) -> list[dict]:
        """Execute every run of this executor's slice; returns sorted records.

        An empty checkpoint plus its gaps.  Unsharded, the slice is the
        whole matrix.  With a shard assignment, the full matrix is
        expanded first (run_ids/seeds never depend on the split) and
        only the indices assigned to this shard execute, streaming to
        the shard's own checkpoint.
        """
        return self._execute(self._checkpoint(), resumed=False)

    def resume(self) -> list[dict]:
        """Finish an interrupted campaign from its on-disk checkpoint.

        A loaded checkpoint plus its gaps
        (:meth:`~repro.campaign.checkpoint.Checkpoint.load`): a torn
        final line from a crash mid-write is discarded with a warning
        and its run re-executed, records whose run_id/seed/params
        drifted from the expanded spec are discarded and re-run, and
        differing copies of one run index are all quarantined to
        ``merge-conflicts.jsonl`` and re-run; then only the missing
        indices execute.  The finalized output is byte-identical to an
        uninterrupted campaign -- including when there is nothing left
        to run.
        """
        if self.out_dir is None:
            raise ValueError("resume() requires an output directory")
        return self._execute(self._checkpoint().load(verb="resume"),
                             resumed=True)

    def _checkpoint(self) -> Checkpoint:
        return Checkpoint(self.spec, self.out_dir, say=self._say)

    def _shard_label(self) -> str:
        if self.shard is None:
            return ""
        return f" shard {self.shard[0]}/{self.shard[1]} --"

    # -- execution core -------------------------------------------------
    def _execute(self, checkpoint: Checkpoint, resumed: bool) -> list[dict]:
        pending = checkpoint.gaps()
        existing = checkpoint.records.values()
        self._total = len(checkpoint.payloads)
        batch = self.batch_size or auto_batch_size(len(pending), self.workers)
        progress = (f"resuming -- {len(existing)} of {self._total} runs "
                    f"checkpointed, {len(pending)} left" if resumed
                    else f"{self._total} runs")
        self._say(
            f"campaign {self.spec.name!r}:{self._shard_label()} {progress} "
            f"on {self.workers} worker(s), batch size {batch}"
        )
        self._counts = {
            "ok": sum(1 for r in existing if r["status"] == "ok"),
            "failed": sum(1 for r in existing if r["status"] != "ok"),
        }
        self._started = time.perf_counter()
        self._done_at_start = len(existing)
        self._retries = 0
        self._stop_signal = None
        self._abandoned = []
        checkpoint.begin()
        # Graceful shutdown: SIGINT/SIGTERM set a flag checked between
        # batches instead of tearing the process down mid-write, so the
        # streaming checkpoint always closes cleanly and `campaign
        # resume` picks up from it.  Main thread only (signal() rule);
        # previous handlers are restored on the way out.
        previous_handlers = {}
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    previous_handlers[signum] = signal.signal(
                        signum, self._request_stop
                    )
                except (OSError, ValueError):
                    pass
        if self.telemetry:
            self._telemetry = TelemetryTracker(
                os.path.join(self.out_dir, "telemetry.jsonl")
            )
            shard_index, shard_count = self.shard or (0, 1)
            self._telemetry.start(
                campaign=self.spec.name,
                total_runs=self._total,
                pending_runs=len(pending),
                workers=self.workers,
                batch_size=batch,
                resumed=resumed,
                shard_index=shard_index,
                shard_count=shard_count,
            )
        try:
            if pending:
                chunks = [pending[i:i + batch]
                          for i in range(0, len(pending), batch)]
                self._dispatch(chunks, checkpoint, self.executor)
            if self._stop_signal is not None:
                if self._telemetry is not None:
                    self._telemetry.abandoned(
                        signal.Signals(self._stop_signal).name,
                        in_flight=self._abandoned,
                        done=self._counts["ok"] + self._counts["failed"],
                        total=self._total,
                    )
                # Raised inside the try so the finally below closes the
                # stream/telemetry; finalize is skipped -- the streamed
                # checkpoint is the resumable artifact.
                raise CampaignInterrupted(self._stop_signal)
            if self._telemetry is not None:
                self._telemetry.finish(
                    runs=len(checkpoint.records),
                    ok=self._counts["ok"],
                    failed=self._counts["failed"],
                    timeouts=sum(1 for r in checkpoint.records.values()
                                 if r.get("status") == "timeout"),
                    retries=self._retries,
                    wall_s=time.perf_counter() - self._started,
                )
        finally:
            for signum, handler in previous_handlers.items():
                signal.signal(signum, handler)
            checkpoint.close()
            if self._telemetry is not None:
                self._telemetry.close()
                self._telemetry = None
        return checkpoint.finalize()

    def _request_stop(self, signum, frame) -> None:
        """Signal handler: note the stop request, let dispatch unwind."""
        if self._stop_signal is None:
            self._say(
                f"received {signal.Signals(signum).name}: finishing "
                "in-flight work, then flushing the checkpoint"
            )
        self._stop_signal = signum

    def _land(self, outcome: dict, checkpoint: Checkpoint, suffix: str = "",
              retried: bool = False) -> None:
        """Ingest a completed outcome and emit its ``batch`` telemetry.

        ``outcome`` is what :func:`_timed_execute_batch` returns: the
        batch's records, its wall time and the pid that ran it.
        """
        batch_records = outcome["records"]
        self._ingest(batch_records, checkpoint, suffix)
        if self._telemetry is None:
            return
        ok = sum(1 for r in batch_records if r["status"] == "ok")
        # Crypto and fault-injection load of the batch, from the ok
        # runs' frozen summaries (deterministic per-run data, surfaced
        # here so operators can watch sign/verify/cache pressure and
        # chaos churn batch by batch).
        summaries = [r["summary"] for r in batch_records if r["status"] == "ok"]
        self._telemetry.batch(
            runs=len(batch_records),
            ok=ok,
            failed=len(batch_records) - ok,
            wall_s=outcome["wall_s"],
            worker_pid=outcome["worker_pid"],
            done=self._counts["ok"] + self._counts["failed"],
            total=self._total,
            retried=retried,
            crypto_sign_ops=sum(s.get("crypto_sign_ops", 0) for s in summaries),
            crypto_verify_ops=sum(s.get("crypto_verify_ops", 0) for s in summaries),
            crypto_verify_cache_hits=sum(
                s.get("crypto_verify_cache_hits", 0) for s in summaries
            ),
            faults_injected=sum(
                s.get("faults_injected", 0) for s in summaries
            ),
            re_dad_count=sum(s.get("re_dad_count", 0) for s in summaries),
        )

    def _dispatch(self, chunks: list[list[dict]], checkpoint: Checkpoint,
                  executor) -> None:
        """Run batches on the executor; stream results as they complete.

        A chunk the executor *lost* (worker death: OOM-kill, segfault)
        comes back with an error; its runs are collected and re-executed
        afterwards by :meth:`_retry_orphan`, each alone in the
        executor's strongest isolation with bounded exponential backoff.
        A stop signal ends dispatch between completions: batches still
        running in workers finish there but are *not* ingested; their
        runs are reported as the ``abandoned`` telemetry record's
        ``in_flight`` list and re-executed by ``campaign resume``.
        """
        orphaned = []  # (payload, exc) whose worker died mid-batch

        def on_outcome(chunk, outcome, error):
            if error is not None:
                orphaned.extend((p, error) for p in chunk)
                return
            self._land(outcome, checkpoint)

        unfinished = executor.run_batches(
            chunks, _timed_execute_batch, on_outcome,
            should_stop=lambda: self._stop_signal is not None,
        )
        if self._stop_signal is not None:
            self._abandoned.extend(
                p["index"] for chunk in unfinished for p in chunk
            )
            self._abandoned.extend(p["index"] for p, _exc in orphaned)
            return
        for payload, exc in sorted(orphaned, key=lambda pair: pair[0]["index"]):
            self._retry_orphan(payload, exc, executor, checkpoint)

    def _retry_orphan(self, payload: dict, death: Exception, executor,
                      checkpoint: Checkpoint) -> None:
        """Re-execute a worker-death orphan with bounded backoff.

        Innocent batchmates die with a poison run's worker, so each
        orphan is retried alone via ``executor.run_single`` (for the
        local backend: a fresh single-worker pool) -- only the run that
        actually kills workers keeps failing.  Attempts are bounded by
        ``spec.retry_max_attempts`` (*total*, counting the original
        dispatch) with ``retry_backoff * 2**(n-1)`` sleeps between
        them.  A run that exhausts the budget gets a ``"quarantined"``
        record (campaign still completes) and an fsync'd diagnostic
        line in ``quarantine.jsonl``.
        """
        last_exc = death
        retry_started = time.perf_counter()
        for retry in range(1, self.spec.retry_max_attempts):
            if self._stop_signal is not None:
                self._abandoned.append(payload["index"])
                return
            delay = self.spec.retry_backoff * (2 ** (retry - 1))
            if delay > 0:
                time.sleep(delay)
            self._retries += 1
            try:
                record = executor.run_single(payload)
            except Exception as exc:
                last_exc = exc
                continue
            suffix = f" (retry {retry})"
            break
        else:
            record = _quarantine_record(payload, last_exc,
                                        self.spec.retry_max_attempts)
            self._quarantine(record)
            suffix = " (quarantined)"
        # the retry pool's worker pid is gone with the pool; report the
        # coordinating process instead
        self._land({"records": [record],
                    "wall_s": time.perf_counter() - retry_started,
                    "worker_pid": os.getpid()},
                   checkpoint, suffix, retried=True)

    def _quarantine(self, record: dict) -> None:
        """Append an fsync'd diagnostic line to ``quarantine.jsonl``."""
        if self.out_dir is None:
            return
        path = os.path.join(self.out_dir, "quarantine.jsonl")
        entry = {key: record[key] for key in _QUARANTINE_FIELDS}
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        self._say(f"quarantined {record['run_id']} -> {path}")

    def _ingest(self, batch_records: list[dict], checkpoint: Checkpoint,
                suffix: str = "") -> None:
        """Add a completed batch to the checkpoint (append + fsync each)."""
        for record in batch_records:
            checkpoint.add(record)
            self._counts["ok" if record["status"] == "ok" else "failed"] += 1
            self._say(f"  [{len(checkpoint.records)}/{self._total}] "
                      f"{record['run_id']} {record['status']}{suffix}")
        if self.progress:
            done = self._counts["ok"] + self._counts["failed"]
            print(
                f"progress: {done}/{self._total} done "
                f"({self._counts['ok']} ok, {self._counts['failed']} failed)"
                + self._progress_rate(done),
                file=sys.stderr, flush=True,
            )

    def _progress_rate(self, done: int) -> str:
        """Rate + ETA ticker suffix from this execution's own wall clock.

        Empty until the first run of *this* execution lands (a resume's
        checkpointed records say nothing about current throughput).
        """
        if self._started is None:
            return ""
        elapsed = time.perf_counter() - self._started
        completed = done - self._done_at_start
        if completed <= 0 or elapsed <= 0:
            return ""
        rate = completed / elapsed
        eta = (self._total - done) / rate
        return f" | {rate:.1f} runs/s | eta {eta:.0f}s"


def run_campaign(
    spec: CampaignSpec,
    workers: int = 2,
    out_dir=None,
    echo=None,
    batch_size: int | None = None,
    progress: bool = False,
    telemetry: bool = False,
    executor: str = "local",
) -> list[dict]:
    """Execute every run of ``spec`` and return sorted records.

    Convenience wrapper over :meth:`CampaignRunner.run`; see that class
    for the streaming/batching/resume semantics.  When ``out_dir`` is
    given, writes ``results.jsonl`` (one sorted, deterministic record
    per run, streamed during execution), ``report.json``/``report.txt``
    (aggregates), and ``spec.json`` (the expanded campaign spec, for
    provenance and resume validation).
    """
    return CampaignRunner(
        spec,
        workers=workers,
        batch_size=batch_size,
        out_dir=out_dir,
        echo=echo,
        progress=progress,
        telemetry=telemetry,
        executor=executor,
    ).run()
