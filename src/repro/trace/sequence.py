"""ASCII message-sequence charts from trace events.

Reproduces the *shape* of the paper's Figure 2 (secure DAD) and
Figure 3 (route discovery): time flows downward, one column per node,
arrows annotate which message crossed between which protocol parties.

Link-layer relaying means a unicast AREP from R to S appears as several
``send`` events (one per hop); the chart shows each hop, which is more
informative than the paper's end-to-end arrows and collapses to them
visually when nodes are adjacent.
"""

from __future__ import annotations

from repro.ipv6.address import IPv6Address
from repro.trace.recorder import TraceEvent, TraceRecorder

_COLUMN_WIDTH = 14


def render_sequence_chart(
    trace: TraceRecorder,
    nodes: list[str],
    msg_types: set[str] | None = None,
    max_rows: int = 200,
    addresses: dict[IPv6Address, str] | None = None,
) -> str:
    """Render sends as a downward-flowing sequence chart.

    Parameters
    ----------
    nodes:
        Column order, left to right (e.g. ``["S", "I1", "I2", "R", "DNS"]``).
    msg_types:
        Restrict to these message names (e.g. ``{"AREQ", "AREP"}``);
        None shows everything.
    addresses:
        Address -> node name, e.g. ``{h.ip: h.name for h in
        scenario.hosts}``.  A traced unicast names its next hop by
        address, so without this map it is drawn as a broadcast.
    """
    col = {name: i for i, name in enumerate(nodes)}
    if addresses:
        col.update((ip, col[name]) for ip, name in addresses.items() if name in col)
    width = _COLUMN_WIDTH
    header = "".join(name.center(width) for name in nodes)
    ruler = "".join("|".center(width) for _ in nodes)
    lines = [header, ruler]

    sends = [
        ev for ev in trace.events
        if ev.kind == "send" and ev.node in col
        and (msg_types is None or ev.msg_type in msg_types)
    ]
    for ev in sends[:max_rows]:
        lines.append(_render_send_row(ev, col, nodes, width))
        lines.append(ruler)
    if len(sends) > max_rows:
        lines.append(f"... ({len(sends) - max_rows} more rows)")
    return "\n".join(lines)


def _render_send_row(
    ev: TraceEvent, col: dict[str | IPv6Address, int], nodes: list[str], width: int
) -> str:
    """One arrow row, aimed at the event's next hop or, failing that, at a
    ``->name`` embedded in its detail."""
    src_idx = col[ev.node]
    target = col.get(ev.next_hop)
    if target is None and "->" in ev.detail:
        target = col.get(ev.detail.split("->", 1)[1].split()[0])
    label = f"{ev.msg_type}@{ev.time:.3f}"

    if target is None or target == src_idx:
        # Broadcast: draw from the source column outward both ways.
        cells = []
        for i in range(len(nodes)):
            if i == src_idx:
                cells.append(f"*{ev.msg_type}*".center(width))
            else:
                cells.append(("~" * (width - 4)).center(width))
        return "".join(cells)

    lo, hi = min(src_idx, target), max(src_idx, target)
    cells = []
    for i in range(len(nodes)):
        if i < lo or i > hi:
            cells.append("|".center(width))
        elif i == src_idx:
            cells.append(("o" + "-" * (width - 6)).center(width))
        elif i == target:
            head = ">" if target > src_idx else "<"
            cells.append((head + " " + label)[:width].center(width))
        else:
            cells.append("-" * width)
    return "".join(cells)


def transcript(trace: TraceRecorder, msg_types: set[str] | None = None) -> str:
    """Flat "t | node | SEND/RECV | msg | detail" transcript (Fig 2/3 narration)."""
    lines = []
    for ev in trace.events:
        if ev.kind not in ("send", "recv"):
            continue
        if msg_types is not None and ev.msg_type not in msg_types:
            continue
        lines.append(
            f"t={ev.time:9.6f}  {ev.node:>8}  {ev.kind.upper():<4}  "
            f"{ev.msg_type:<5} {ev.detail}"
        )
    return "\n".join(lines)
