"""Unit tests for the trace recorder, sequence rendering, and one-hop DAD."""

import pytest

from repro.messages.base import Message
from repro.trace.recorder import TraceRecorder
from repro.trace.sequence import render_sequence_chart, transcript
from conftest import chain_scenario


@pytest.fixture
def summary_calls(monkeypatch):
    """Every message ``Message.summary`` formats, in call order."""
    calls = []
    summary = Message.summary

    def counted(msg):
        calls.append(msg)
        return summary(msg)

    monkeypatch.setattr(Message, "summary", counted)
    return calls


def bootstrap_and_exchange(**recorder):
    """A 4-host chain: ``bootstrap_all()``, then one DATA/ACK exchange
    between the ends (three hops each way).  ``recorder`` attributes
    (``enabled``, ``capacity``) are set on the trace right after
    ``build()``; the rest keep the scenario's defaults."""
    sc = chain_scenario(n=4, seed=7).build()
    for attr, value in recorder.items():
        setattr(sc.trace, attr, value)
    sc.bootstrap_all()
    sc.send_data(sc.hosts[0], sc.hosts[3].ip, b"x")
    sc.run(duration=5.0)
    assert sc.metrics.summary()["data_acked"] == 1
    return sc


def test_recorder_basic_and_filters():
    tr = TraceRecorder()
    tr.record(0.0, "a", "send", "RREQ", "x")
    tr.record(1.0, "b", "recv", "RREQ", "x")
    tr.record(2.0, "b", "verdict", "-", "rreq.accepted")
    assert len(tr.events) == 3
    assert len(tr.sends()) == 1
    assert len(tr.receipts("RREQ")) == 1
    assert len(tr.filter(node="b")) == 2
    assert "RREQ" in tr.dump()


def test_recorder_capacity_bound(summary_calls):
    tr = TraceRecorder(capacity=2)
    for i in range(5):
        tr.record(float(i), "a", "send", "X", "d")
    assert len(tr.events) == 2
    assert tr.dropped == 3
    # A full recorder still counts every message it turns away, and
    # formats none of them.
    full = bootstrap_and_exchange(enabled=True)
    bounded = bootstrap_and_exchange(enabled=True, capacity=10)
    assert len(bounded.trace.events) == 10
    assert bounded.trace.dropped == len(full.trace.events) - 10
    assert summary_calls == []


def test_recorder_disabled(summary_calls):
    tr = TraceRecorder(enabled=False)
    tr.record(0.0, "a", "send", "X", "d")
    assert tr.events == []
    sc = bootstrap_and_exchange(enabled=False)
    assert sc.trace.events == [] and sc.trace.dropped == 0
    assert summary_calls == []


def test_scenario_records_nothing_by_default(summary_calls):
    """The recorder is off unless a reader turns it on: a whole run
    stores no event, so it keeps no message alive."""
    sc = bootstrap_and_exchange()
    assert not sc.trace.enabled
    assert sc.trace.events == [] and sc.trace.dropped == 0
    assert summary_calls == []


def test_recording_does_not_change_results():
    off = bootstrap_and_exchange()
    on = bootstrap_and_exchange(enabled=True)
    assert on.trace.events and not off.trace.events
    assert on.metrics.summary() == off.metrics.summary()
    assert on.sim.events_executed == off.sim.events_executed


def test_trace_formats_message_detail_on_first_read(summary_calls):
    sc = bootstrap_and_exchange(enabled=True)
    a, b = sc.hosts[0], sc.hosts[1]
    assert summary_calls == []  # the run itself formats nothing
    hop = next(e for e in sc.trace.events
               if e.kind == "send" and e.msg_type == "DATA")
    assert hop.node == a.name and hop.next_hop == b.ip
    detail = hop.detail
    assert summary_calls == [hop.payload]
    assert hop.detail is detail and len(summary_calls) == 1  # cached
    assert detail == f"{hop.payload.summary()} ->{b.ip}"
    got = next(e for e in sc.trace.events
               if e.kind == "recv" and e.msg_type == "DATA")
    assert got.next_hop is None
    assert got.detail == got.payload.summary()


def test_recorder_clear():
    tr = TraceRecorder()
    tr.record(0.0, "a", "send", "X", "d")
    tr.clear()
    assert tr.events == [] and tr.dropped == 0


def test_sequence_chart_renders_columns_and_arrows():
    tr = TraceRecorder()
    tr.record(0.5, "S", "send", "AREQ", "flood")
    tr.record(1.0, "R", "send", "AREP", "reply ->S ok")
    chart = render_sequence_chart(tr, ["S", "I", "R"])
    assert "S" in chart.splitlines()[0]
    assert "*AREQ*" in chart       # broadcast row
    assert "< AREP@1.000" in chart  # directed arrow row


def test_sequence_chart_draws_real_unicast_hops_as_arrows():
    """A traced unicast names its next hop by address; the chart maps it
    back to that host's column (all nine hops of one delivery)."""
    sc = bootstrap_and_exchange(enabled=True)
    chart = render_sequence_chart(
        sc.trace, [h.name for h in sc.hosts], msg_types={"RREP", "DATA", "ACK"},
        addresses={h.ip: h.name for h in sc.hosts},
    )
    rows = chart.splitlines()[2::2]
    assert len(rows) == 9
    assert not any("*" in row for row in rows)  # no broadcast rows
    assert sum("< RREP@" in row for row in rows) == 3
    assert sum("> DATA@" in row for row in rows) == 3
    assert sum("< ACK@" in row for row in rows) == 3


def test_sequence_chart_counts_every_truncated_row():
    tr = TraceRecorder()
    for i in range(7):
        tr.record(float(i), "S", "send", "RREQ", "x")
    tr.record(7.0, "S", "recv", "RREQ", "x")  # not a row
    chart = render_sequence_chart(tr, ["S"], max_rows=2)
    assert chart.count("*RREQ*") == 2
    assert chart.endswith("... (5 more rows)")
    assert "more rows" not in render_sequence_chart(tr, ["S"], max_rows=7)


def test_sequence_chart_filters_by_type():
    tr = TraceRecorder()
    tr.record(0.5, "S", "send", "AREQ", "x")
    tr.record(1.0, "S", "send", "RREQ", "x")
    chart = render_sequence_chart(tr, ["S"], msg_types={"RREQ"})
    assert "RREQ" in chart and "AREQ" not in chart


def test_transcript_lines():
    tr = TraceRecorder()
    tr.record(0.5, "S", "send", "AREQ", "x")
    tr.record(0.6, "R", "recv", "AREQ", "x")
    tr.record(0.7, "R", "verdict", "-", "y")  # excluded from transcript
    out = transcript(tr)
    assert out.count("\n") == 1
    assert "SEND" in out and "RECV" in out


# ---------------------------------------------------------------------------
# one-hop NDP DAD baseline
# ---------------------------------------------------------------------------

def test_one_hop_dad_configures_when_unopposed():
    from repro.ndp.neighbor_discovery import OneHopDAD

    sc = chain_scenario(n=2, seed=7).build()
    a = sc.hosts[0]
    dad = OneHopDAD(a)
    dad.start()
    sc.run(duration=5.0)
    assert dad.state == "configured"
    assert a.configured


def test_one_hop_dad_detects_adjacent_duplicate():
    from repro.ndp.neighbor_discovery import OneHopDAD

    sc = chain_scenario(n=2, seed=7).build()
    sc.bootstrap_all()
    victim, joiner = sc.hosts[0], sc.hosts[1]
    OneHopDAD(victim)  # victim must speak NS/NA to defend
    # Re-join n1 via one-hop DAD, rigged to probe the victim's address.
    joiner.abandon_identity()
    dad = OneHopDAD(joiner)
    dad.state = "probing"
    dad.round = 0
    dad._domain_name = ""
    dad.tentative_ip = victim.ip
    dad._tentative_params = victim.cga_params
    from repro.messages.ndp import NeighborSolicitation

    joiner.broadcast(NeighborSolicitation(target=victim.ip),
                     claimed_src=victim.ip)
    dad._timer.start(dad.timeout)
    sc.run(duration=5.0)
    # Victim (1 hop away) defended with NA; the joiner moved to a new address.
    assert dad.state == "configured"
    assert joiner.ip != victim.ip


def test_one_hop_dad_misses_multi_hop_duplicate():
    """The gap the paper's extended DAD closes (Section 2.2)."""
    from repro.ndp.neighbor_discovery import OneHopDAD

    sc = chain_scenario(n=4, seed=7).build()
    sc.bootstrap_all()
    victim = sc.hosts[3]  # 3 hops from n0
    joiner = sc.hosts[0]
    joiner.abandon_identity()
    dad = OneHopDAD(joiner)
    dad.state = "probing"
    dad.round = 0
    dad._domain_name = ""
    dad.tentative_ip = victim.ip
    dad._tentative_params = victim.cga_params
    from repro.messages.ndp import NeighborSolicitation

    joiner.broadcast(NeighborSolicitation(target=victim.ip),
                     claimed_src=victim.ip)
    dad._timer.start(dad.timeout)
    sc.run(duration=5.0)
    # One-hop DAD wrongly concludes the address is free: DUPLICATE EXISTS.
    assert dad.state == "configured"
    assert joiner.ip == victim.ip  # collision undetected!
