"""Sharded campaign execution: deterministic partitioning and shard names.

A campaign shard is one slice of a campaign's run matrix, executed on
its own host (or CI matrix job) with its own crash-safe checkpoint.
The split is a pure function of the *full* expansion: run ``index``
belongs to shard ``index % shard_count``, and seeds/run_ids are derived
before the split, so no shard count or assignment can ever change what
a run computes -- only where it executes.

Each shard's checkpoint lives under ``<out>/shard-<i>-of-<N>/``; the
:class:`~repro.campaign.checkpoint.Checkpoint` there owns only the
shard's slice and keeps a ``shard.json`` provenance manifest, and
``campaign merge`` (:mod:`repro.campaign.merge`) fuses the shard
checkpoints back into one artifact byte-identical to an unsharded run.
"""

from __future__ import annotations

import re

_SHARD_DIR_RE = re.compile(r"^shard-(\d+)-of-(\d+)$")


def parse_shard(text: str) -> tuple[int, int]:
    """Parse an ``i/N`` shard spec into ``(shard_index, shard_count)``.

    Rejects malformed input (``"3/2"``, ``"0/0"``, ``"x/y"``) with a
    one-line ``ValueError`` so the CLI can exit 2 instead of letting a
    bad split traceback deep in the runner.
    """
    match = re.fullmatch(r"(\d+)/(\d+)", str(text).strip())
    if match is None:
        raise ValueError(
            f"shard spec must be i/N (e.g. 0/3), got {text!r}"
        )
    shard_index, shard_count = int(match.group(1)), int(match.group(2))
    if shard_count < 1:
        raise ValueError(f"shard count must be >= 1, got {text!r}")
    if shard_index >= shard_count:
        raise ValueError(
            f"shard index must be in [0, {shard_count}), got {text!r}"
        )
    return shard_index, shard_count


def shard_dir_name(shard_index: int, shard_count: int) -> str:
    """Canonical checkpoint directory name for one shard."""
    return f"shard-{int(shard_index)}-of-{int(shard_count)}"


def parse_shard_dir_name(name: str) -> tuple[int, int] | None:
    """Inverse of :func:`shard_dir_name`; ``None`` for other names."""
    match = _SHARD_DIR_RE.match(name)
    if match is None:
        return None
    return int(match.group(1)), int(match.group(2))


def shard_payloads(payloads: list[dict], shard_index: int,
                   shard_count: int) -> list[dict]:
    """The slice of an expanded matrix assigned to one shard.

    Partitioning is by run index modulo shard count: deterministic,
    disjoint, and (for grids, where neighbouring indices share axis
    values) roughly load-balanced.  The payloads must come from the
    *full* expansion so run_ids and seeds are split-independent.
    """
    return [p for p in payloads if p["index"] % shard_count == shard_index]
