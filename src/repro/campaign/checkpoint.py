"""The checkpoint: the validated records of one campaign directory.

:class:`Checkpoint` is the one place that decides which records a
campaign directory holds, keyed by run index under a ``spec.json``
fingerprint, and every verb is a thin client of it: ``run`` is an empty
checkpoint plus its gaps, ``resume`` a loaded one plus its gaps, a
shard (``run --shard i/N``) a checkpoint that owns only the indices
``index % N == i`` of the full matrix (in ``shard-i-of-N/``, with a
``shard.json`` manifest whose mtime is its heartbeat), and ``merge`` an
unsharded checkpoint loaded from the union of shard checkpoints.

Loading refuses a directory whose ``spec.json`` or ``shard.json``
belongs to another spec or shard assignment, then discards (with a
warning, so the run executes again) a torn final line, an index the
checkpoint does not own, and a record whose run_id/seed/params drifted
from the spec.  One conflict rule covers every verb: identical copies
of a run index are kept once, with a warning; differing copies cannot
all be right, so every copy is quarantined to ``merge-conflicts.jsonl``
and the index is re-run.  Finalized bytes depend only on the set of
records -- never on worker count, batch size, resume history or shard
split.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.campaign.aggregate import (
    aggregate,
    read_jsonl_partial,
    write_json_artifact,
    write_report_artifacts,
)
from repro.campaign.shard import parse_shard_dir_name, shard_payloads
from repro.obs.telemetry import check_fields, validate_jsonl

RESULTS = "results.jsonl"
SHARD_MANIFEST = "shard.json"
#: Bumped when the manifest layout changes incompatibly.
SHARD_SCHEMA_VERSION = 1
#: Quarantine sidecar holding every copy of a conflicted run index.
MERGE_CONFLICTS = "merge-conflicts.jsonl"
#: Gap manifest of a partial merge; finalizing removes it.
MERGE_GAPS = "merge-gaps.json"

#: Spec keys that never change what a run computes (execution strategy,
#: and the report reduction old spec files still carry); fingerprints
#: leave them out, so they never block a resume or a merge.
EXECUTION_ONLY_KEYS = ("batch_size", "summary_mode", "retry_max_attempts",
                       "retry_backoff", "shards", "shard_index")

_MANIFEST_FIELDS = {"v": int, "campaign": str, "fingerprint": str,
                    "shard_index": int, "shard_count": int,
                    "total_runs": int, "assigned_runs": int, "status": str}
_CONFLICT_FIELDS = {"index": int, "run_id": str, "shard": str,
                    "reason": str, "record": dict}


class CheckpointError(ValueError):
    """A campaign directory that must not be loaded, resumed or merged."""


def spec_fingerprint(data: dict) -> dict:
    """Spec dict minus the keys in :data:`EXECUTION_ONLY_KEYS`."""
    return {k: v for k, v in data.items() if k not in EXECUTION_ONLY_KEYS}


def fingerprint_digest(data: dict) -> str:
    """SHA-256 of :func:`spec_fingerprint` as canonical JSON."""
    canonical = json.dumps(spec_fingerprint(data), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def validate_shard_manifest(manifest: dict, source: str = "shard manifest") -> None:
    """Raise ``ValueError`` unless ``manifest`` matches the schema."""
    if isinstance(manifest, dict) and manifest.get("v") != SHARD_SCHEMA_VERSION:
        raise ValueError(f"{source}: schema version {manifest.get('v')!r} "
                         f"(expected {SHARD_SCHEMA_VERSION})")
    check_fields(manifest, _MANIFEST_FIELDS, f"{source}:")
    if not 0 <= manifest["shard_index"] < manifest["shard_count"]:
        raise ValueError(f"{source}: shard_index {manifest['shard_index']} out "
                         f"of range for shard_count {manifest['shard_count']}")
    if manifest["status"] not in ("running", "complete"):
        raise ValueError(f"{source}: status must be 'running' or 'complete', "
                         f"got {manifest['status']!r}")


def load_shard_manifest(out_dir) -> dict | None:
    """The validated ``shard.json`` of a directory, or ``None`` if absent."""
    path = os.path.join(os.fspath(out_dir), SHARD_MANIFEST)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    validate_shard_manifest(manifest, source=path)
    return manifest


def _check_conflict(entry, where: str) -> None:
    check_fields(entry, _CONFLICT_FIELDS, f"{where} conflict entry")


def validate_merge_conflicts_file(path) -> int:
    """Validate every line of a ``merge-conflicts.jsonl``; returns the count.

    Each line quarantines one *copy* of a conflicted run index (all
    copies are kept -- the evidence for diagnosing which host computed
    garbage).  Raises ``ValueError`` on the first malformed line.
    """
    return validate_jsonl(path, _check_conflict)


def _atomic_write(path: str, text: str) -> None:
    """Temp file, fsync, ``os.replace``: readers see old or new bytes."""
    with open(path + ".tmp", "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(path + ".tmp", path)


def _describe(shard) -> str:
    return "unsharded" if shard is None else f"shard {shard[0]}/{shard[1]}"


class Checkpoint:
    """The validated records of one campaign directory, keyed by run index.

    ``spec`` fixes the run matrix and, through ``spec.shards`` and
    ``spec.shard_index``, the slice of it this checkpoint owns
    (:attr:`payloads`).  ``out_dir=None`` keeps everything in memory.
    ``say`` receives warnings and progress lines.
    """

    def __init__(self, spec, out_dir=None, say=None):
        self.spec = spec
        self.out_dir = None if out_dir is None else os.fspath(out_dir)
        self.shard = (None if spec.shards is None
                      else (spec.shard_index, spec.shards))
        self._say = say or (lambda _msg: None)
        payloads = [run.to_dict() for run in spec.expand()]
        self.matrix_runs = len(payloads)
        if self.shard is not None:
            payloads = shard_payloads(payloads, *self.shard)
        self.payloads = payloads
        self._owned = {p["index"]: p for p in payloads}
        self.records: dict[int, dict] = {}
        self._lines: dict[int, str] = {}  # canonical JSON of each record
        #: ``merge-conflicts.jsonl`` entries: copies of conflicted indices.
        self.conflicts: list[dict] = []
        #: Records that passed validation, per loaded directory name.
        self.kept_per_source: dict[str, int] = {}
        self._stream = None

    def _path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def load(self, sources=None, verb: str = "resume") -> "Checkpoint":
        """Read and validate the records of ``sources``; returns ``self``.

        ``sources`` defaults to this checkpoint's own directory, which
        must hold this checkpoint's shard assignment (or none); ``merge``
        passes shard directories, and one named ``shard-i-of-N`` must
        hold that shard.  A foreign directory raises
        :class:`CheckpointError` (``"refusing to <verb>: ..."``) before
        anything is written; a missing ``results.jsonl`` raises
        ``FileNotFoundError``.
        """
        own = sources is None
        refuse = f"refusing to {verb}"
        digest = fingerprint_digest(self.spec.to_dict())
        copies: dict[int, list] = {}
        shard_counts: dict[str, int] = {}
        for source in ([self.out_dir] if own else map(os.fspath, sources)):
            name = os.path.basename(os.path.normpath(source))
            if name in self.kept_per_source:
                raise CheckpointError(f"{refuse}: directory {name!r} given twice")
            spec_path = os.path.join(source, "spec.json")
            if os.path.exists(spec_path):
                with open(spec_path, "r", encoding="utf-8") as fh:
                    if fingerprint_digest(json.load(fh)) != digest:
                        raise CheckpointError(
                            f"{refuse}: {spec_path} was written by a different "
                            "campaign spec; that would mix matrices")
            manifest = load_shard_manifest(source)
            saved = None
            if manifest is not None:
                if manifest["fingerprint"] != digest:
                    raise CheckpointError(
                        f"{refuse}: {source}: shard.json fingerprint does not "
                        "match this campaign spec")
                saved = (manifest["shard_index"], manifest["shard_count"])
                shard_counts[name] = manifest["shard_count"]
                if not own and manifest["status"] != "complete":
                    self._say(f"warning: {source}: shard is marked "
                              f"{manifest['status']!r} -- merging its partial "
                              "checkpoint")
            expected = self.shard if own else parse_shard_dir_name(name)
            if (own or expected is not None) and saved != expected:
                raise CheckpointError(
                    f"{refuse}: {source} was written by a {_describe(saved)} "
                    f"execution, not {_describe(expected)}; point --out (and "
                    "--shard) at the matching checkpoint")

            records, warnings = read_jsonl_partial(os.path.join(source, RESULTS))
            kept = 0
            for position, record in enumerate(records, 1):
                index = record.get("index")
                payload = self._owned.get(index) if type(index) is int else None
                if payload is None:
                    warnings.append(f"{name}: discarding record {position}: index "
                                    f"{index!r} is not in this checkpoint's run matrix")
                elif any(record.get(key) != payload[key]
                         for key in ("run_id", "seed", "params")):
                    warnings.append(f"{name}: discarding record for index {index}: "
                                    "run_id/seed/params do not match the spec "
                                    "(drifted?)")
                else:
                    kept += 1
                    copies.setdefault(index, []).append(
                        (name, json.dumps(record, sort_keys=True), record))
            self.kept_per_source[name] = kept
            for warning in warnings:
                self._say(f"warning: {warning}")
        if len(set(shard_counts.values())) > 1:
            raise CheckpointError(
                f"{refuse}: shard manifests disagree on the shard count: "
                + ", ".join(f"{n}={c}" for n, c in sorted(shard_counts.items())))

        for index in sorted(copies):
            found = sorted(copies[index], key=lambda copy: copy[:2])
            if len({line for _, line, _ in found}) == 1:
                if len(found) > 1:
                    self._say(f"warning: discarding duplicate checkpoint record "
                              f"for index {index} (identical copies are kept once)")
                _, self._lines[index], self.records[index] = found[0]
                continue
            # Runs are deterministic: differing copies mean a corrupted or
            # mis-provenanced checkpoint, and no copy can be trusted.
            self._say(f"warning: index {index} has {len(found)} differing "
                      f"copies; quarantining all of them to {MERGE_CONFLICTS} "
                      "and re-running it")
            self.conflicts += [{
                "index": index, "run_id": record["run_id"], "shard": name,
                "reason": "overlapping run index with differing payloads",
                "record": record,
            } for name, _, record in found]
        return self

    def gaps(self) -> list[dict]:
        """The owned runs with no kept record, in index order."""
        return [p for p in self.payloads if p["index"] not in self.records]

    def begin(self) -> None:
        """Write provenance and the sorted kept records; open the stream.

        ``spec.json``, the folded ``merge-conflicts.jsonl`` and a
        ``running`` shard manifest first, and any report from an earlier
        life of the directory goes (it would misrepresent an unfinished
        checkpoint) until :meth:`finalize`; then ``results.jsonl`` is
        rewritten atomically, so a crash here can't lose the records a
        previous attempt already earned.  No-op without ``out_dir``.
        """
        if self.out_dir is None:
            return
        os.makedirs(self.out_dir, exist_ok=True)
        for stale in ("report.json", "report.txt"):
            if os.path.exists(self._path(stale)):
                os.remove(self._path(stale))
        write_json_artifact(self._path("spec.json"), self.spec.to_dict())
        if self.conflicts:
            self._write_conflicts()
        if self.shard is not None:
            self._write_manifest("running")
        self._rewrite()
        self._stream = open(self._path(RESULTS), "a", encoding="utf-8")

    def add(self, record: dict) -> None:
        """Keep a new record: append and fsync its line, touch the heartbeat."""
        self.records[record["index"]] = record
        if self._stream is None:
            return
        line = self._lines[record["index"]] = json.dumps(record, sort_keys=True)
        self._stream.write(line + "\n")
        self._stream.flush()
        os.fsync(self._stream.fileno())
        if self.shard is not None:
            try:
                os.utime(self._path(SHARD_MANIFEST))
            except OSError:
                pass

    def close(self) -> None:
        """Close the append stream; what it wrote stays a valid checkpoint."""
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def finalize(self) -> list[dict]:
        """Sorted atomic rewrite, then reports; returns the sorted records.

        A crash mid-finalize leaves the complete streamed checkpoint,
        which a further ``resume`` finalizes identically.  A shard marks
        its manifest ``complete`` instead of reporting (one slice's
        report would mislead); an unsharded checkpoint writes
        ``report.json``/``report.txt`` and drops a stale gap manifest.
        """
        self.close()
        records = [self.records[index] for index in sorted(self.records)]
        if self.out_dir is None:
            return records
        self._rewrite()
        path = self._path(RESULTS)
        if self.shard is not None:
            self._write_manifest("complete")
            self._say(f"wrote {path} (shard checkpoint; fuse the shards with "
                      "'campaign merge')")
            return records
        report = aggregate(records)
        report["campaign"] = self.spec.name
        write_report_artifacts(self.out_dir, report)
        if os.path.exists(self._path(MERGE_GAPS)):
            os.remove(self._path(MERGE_GAPS))
        self._say(f"wrote {path}")
        return records

    def _rewrite(self) -> None:
        _atomic_write(self._path(RESULTS), "".join(
            self._lines[index] + "\n" for index in sorted(self._lines)))

    def _write_manifest(self, status: str) -> None:
        _atomic_write(self._path(SHARD_MANIFEST), json.dumps({
            "v": SHARD_SCHEMA_VERSION,
            "campaign": self.spec.name,
            "fingerprint": fingerprint_digest(self.spec.to_dict()),
            "shard_index": self.shard[0],
            "shard_count": self.shard[1],
            "total_runs": self.matrix_runs,
            "assigned_runs": len(self.payloads),
            "status": status,
        }, indent=2, sort_keys=True) + "\n")

    def _write_conflicts(self) -> None:
        """Union this load's conflicts with the file's, each copy once.

        Earlier evidence is kept but never duplicated, so merging the
        same shards again leaves the same bytes.
        """
        path = self._path(MERGE_CONFLICTS)
        entries = {json.dumps(c, sort_keys=True): c for c in self.conflicts}
        if os.path.exists(path):
            def keep(entry, where):
                _check_conflict(entry, where)
                entries.setdefault(json.dumps(entry, sort_keys=True), entry)
            validate_jsonl(path, keep)
        ordered = sorted(entries, key=lambda line: (
            entries[line]["index"], entries[line]["shard"], line))
        _atomic_write(path, "".join(line + "\n" for line in ordered))
        self._say(f"quarantined {len(self.conflicts)} conflicting record "
                  f"copies -> {path}")
