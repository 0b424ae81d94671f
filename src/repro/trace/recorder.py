"""Per-run event trace.

Nodes report ``send``/``recv``/``verdict``/``note`` events; the recorder
keeps them in simulation-time order (appends are already ordered because
the kernel is sequential).  Filters return lightweight views -- no
copying of message objects.

A traced message is stored by reference and its one-line ``detail`` is
formatted only when something reads it: every send and every received
flood copy is traced, so eager formatting would dominate host time.
Messages are immutable, so the text is the same whenever it is read.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.ipv6.address import IPv6Address


class TraceEvent:
    """One traced protocol event.

    ``kind`` is ``"send"``, ``"recv"``, ``"verdict"`` or ``"note"``.
    ``detail`` is the verdict or note text; for a traced message it is
    ``payload.summary()``, plus `` ->next_hop`` for a unicast, built on
    first read and cached.
    """

    __slots__ = ("time", "node", "kind", "msg_type", "payload", "next_hop", "_detail")

    def __init__(
        self,
        time: float,
        node: str,
        kind: str,
        msg_type: str,
        detail: str | None = None,
        payload: Any = None,
        next_hop: IPv6Address | None = None,
    ):
        self.time = time
        self.node = node
        self.kind = kind
        self.msg_type = msg_type
        self.payload = payload
        self.next_hop = next_hop
        self._detail = detail

    @property
    def detail(self) -> str:
        detail = self._detail
        if detail is None:
            detail = self.payload.summary()
            if self.next_hop is not None:
                detail += f" ->{self.next_hop}"
            self._detail = detail
        return detail

    def __str__(self) -> str:
        return f"[{self.time:10.6f}] {self.node:>8} {self.kind:<7} {self.msg_type:<5} {self.detail}"


class TraceRecorder:
    """Append-only event log with simple query helpers."""

    def __init__(self, enabled: bool = True, capacity: int | None = None):
        self.enabled = enabled
        self.capacity = capacity
        self.events: list[TraceEvent] = []
        self.dropped = 0

    def record(
        self,
        time: float,
        node: str,
        kind: str,
        msg_type: str,
        detail: str | None = None,
        payload: Any = None,
        next_hop: IPv6Address | None = None,
    ) -> None:
        """Append one event, unless disabled or full (then count a drop).

        A traced message passes ``payload`` (and, for a unicast, the
        ``next_hop`` address) and no ``detail``: see :class:`TraceEvent`.
        """
        if not self.enabled:
            return
        if self.capacity is not None and len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(
            TraceEvent(time, node, kind, msg_type, detail, payload, next_hop)
        )

    # -- queries -----------------------------------------------------------
    def filter(
        self,
        kind: str | None = None,
        msg_type: str | None = None,
        node: str | None = None,
    ) -> list[TraceEvent]:
        out: Iterable[TraceEvent] = self.events
        if kind is not None:
            out = (e for e in out if e.kind == kind)
        if msg_type is not None:
            out = (e for e in out if e.msg_type == msg_type)
        if node is not None:
            out = (e for e in out if e.node == node)
        return list(out)

    def sends(self, msg_type: str | None = None) -> list[TraceEvent]:
        return self.filter(kind="send", msg_type=msg_type)

    def receipts(self, msg_type: str | None = None) -> list[TraceEvent]:
        return self.filter(kind="recv", msg_type=msg_type)

    def dump(self, limit: int | None = None) -> str:
        """Human-readable chronological dump."""
        events = self.events if limit is None else self.events[:limit]
        return "\n".join(str(e) for e in events)

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0
