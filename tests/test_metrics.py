"""Unit tests for metrics collection and reports."""

import json

import pytest

from repro.ipv6.address import IPv6Address
from repro.metrics.collector import FlowStats, MetricsCollector, percentile
from repro.metrics.reports import (
    crypto_report,
    delivery_report,
    format_table,
    overhead_report,
    security_report,
)

A = IPv6Address("fec0::a")
B = IPv6Address("fec0::b")


def test_flow_stats_pdr_and_latency():
    st = FlowStats()
    assert st.pdr == 0.0 and st.mean_latency == 0.0
    st.sent = 4
    st.delivered = 3
    st.latencies = [0.1, 0.2, 0.3]
    assert st.pdr == 0.75
    assert abs(st.mean_latency - 0.2) < 1e-12


def test_message_accounting():
    m = MetricsCollector()
    m.on_send("RREQ", 100)
    m.on_send("RREQ", 120)
    m.on_send("DATA", 500)
    m.on_receive("RREQ")
    assert m.msgs_sent["RREQ"] == 2
    assert m.bytes_sent["RREQ"] == 220
    assert m.control_bytes() == 220       # DATA excluded
    assert m.control_messages() == 2
    assert m.msgs_received["RREQ"] == 1


def test_flow_accounting_and_aggregate_pdr():
    m = MetricsCollector()
    m.on_data_sent(A, B)
    m.on_data_sent(A, B)
    m.on_data_delivered(A, B, 0.05)
    m.on_data_acked(A, B)
    m.on_data_dropped(A, B)
    assert m.delivered(A, B) == 1
    assert m.pdr(A, B) == 0.5
    m.on_data_sent(B, A)
    m.on_data_delivered(B, A, 0.01)
    assert m.pdr() == 2 / 3


def test_verdict_accounting():
    m = MetricsCollector()
    m.on_verdict("rrep.accepted")
    m.on_verdict("rrep.rejected.bad_cga")
    m.on_verdict("rrep.rejected.bad_signature")
    assert m.accepted("rrep") == 1
    assert m.rejected("rrep") == 2
    assert m.rejected("arep") == 0


def test_crypto_accounting():
    m = MetricsCollector()
    m.on_crypto("simsig", "sign")
    m.on_crypto("simsig", "verify")
    m.on_crypto("rsa", "verify")
    assert m.crypto_total() == 3
    assert m.crypto_total("verify") == 2
    assert m.crypto_total("sign") == 1


def test_discovery_accounting():
    m = MetricsCollector()
    m.on_discovery_started()
    m.on_discovery_succeeded(0.2)
    m.on_discovery_succeeded(0.4, via_crep=True)
    assert m.discoveries_succeeded == 2
    assert m.creps_used == 1
    assert abs(m.mean_discovery_latency - 0.3) < 1e-12


def test_format_table_alignment():
    out = format_table(["name", "n"], [["alpha", 1], ["b", 22]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "n" in lines[1]
    assert len(lines) == 5
    # all data rows equally wide
    assert len(lines[3]) == len(lines[4])


def test_percentile_interpolates():
    assert percentile([], 95.0) == 0.0
    assert percentile([3.0], 50.0) == 3.0
    vals = [1.0, 2.0, 3.0, 4.0]
    assert percentile(vals, 0.0) == 1.0
    assert percentile(vals, 100.0) == 4.0
    assert percentile(vals, 50.0) == 2.5
    with pytest.raises(ValueError):
        percentile(vals, 101.0)


def _populated_collector():
    m = MetricsCollector()
    m.on_send("RREQ", 100)
    m.on_send("DATA", 500)
    m.on_receive("RREQ")
    for i in range(4):
        m.on_data_sent(A, B)
    for i in range(3):
        m.on_data_delivered(A, B, (i + 1) * 0.1)
    m.on_data_dropped(A, B)
    m.on_verdict("rrep.accepted")
    m.on_verdict("rrep.rejected.bad_signature")
    m.on_crypto("simsig", "sign")
    m.on_crypto("simsig", "verify")
    m.on_dad_round("n0")
    m.on_address_configured("n0", 2.5)
    m.on_discovery_started()
    m.on_discovery_succeeded(0.2)
    return m


def test_summary_is_flat_and_json_serializable():
    summary = _populated_collector().summary()
    # flat: every value a plain number, round-trips through JSON
    assert all(isinstance(v, (int, float)) for v in summary.values())
    assert json.loads(json.dumps(summary)) == summary
    assert summary["data_sent"] == 4
    assert summary["data_delivered"] == 3
    assert summary["pdr"] == 0.75
    assert summary["latency_p50"] == pytest.approx(0.2)
    assert summary["latency_p95"] == pytest.approx(0.29)
    assert summary["control_bytes"] == 100  # DATA excluded
    assert summary["verdicts_accepted"] == 1
    assert summary["verdicts_rejected"] == 1
    assert summary["crypto_sign_ops"] == 1
    assert summary["configured_nodes"] == 1
    assert summary["bootstrap_time_max"] == 2.5
    assert summary["discoveries_succeeded"] == 1


def test_reports_render_without_error():
    m = MetricsCollector()
    m.on_send("RREQ", 64)
    m.on_data_sent(A, B)
    m.on_data_delivered(A, B, 0.1)
    m.on_verdict("rrep.accepted")
    m.on_crypto("simsig", "sign")
    for report in (delivery_report, overhead_report, security_report, crypto_report):
        text = report(m)
        assert isinstance(text, str) and text
