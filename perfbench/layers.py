"""Per-layer metrics from one traced repetition.

:func:`per_layer` maps the span report of ``spans.Recorder.report``
(counts, self and inclusive seconds per wrapped entry point, plus a few
counters) onto the metric names listed in ``BENCHMARK.json``
(``per_layer``, which gives each its unit) and in ``layer_map.json``
(its layer and where it should move).  Every metric is printed for
every workload; a layer that does no work on a workload reads 0.
"""

from __future__ import annotations

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
MAP_FILE = os.path.join(HERE, "layer_map.json")
BENCHMARK_FILE = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

_FAULT_EVENTS = ("_crash", "_recover", "_flap_down", "_partition", "_heal",
                 "_surge_on", "_corrupt_on")


def layer_map() -> dict:
    with open(MAP_FILE) as fh:
        return json.load(fh)["metrics"]


def units() -> dict:
    with open(BENCHMARK_FILE) as fh:
        return {row["name"]: row["unit"] for row in json.load(fh)["per_layer"]}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(spanned: dict, plain: dict) -> dict:
    """Metric name -> value for the traced repetition ``spanned``;
    ``plain`` is the untraced repetition of the same seed (tracing
    overhead).  Seconds are reference seconds, like ``wall_s``: span
    times divided by the host slowdown the probe measured over the
    traced repetition."""
    rep = spanned["layers"]
    spans, c = rep["spans"], rep["counters"]

    def n(*names):
        return sum(spans[x]["count"] for x in names)

    def own(*names):
        return sum(spans[x]["self_s"] for x in names)

    def incl(name):
        return spans[name]["incl_s"]

    def layer_self(layer):
        return sum(v["self_s"] for v in spans.values() if v["layer"] == layer)

    wall = rep["root_s"]
    sends = sum(v for k, v in c.items() if k.startswith("send."))
    keygen = ("RSABackend.generate_keypair", "SimSigBackend.generate_keypair")
    sign = ("RSABackend.sign", "SimSigBackend.sign")
    verify = ("RSABackend.verify", "SimSigBackend.verify",
              "SimSigBackend.verify_batch", "CryptoBackend.verify_batch")
    requests = n("Node.verify")
    lru, shared = c.get("crypto.verify_cached", 0), c["shared_hits"]
    trace_s = own("TraceRecorder.record", "Message.summary")
    campaign_s = incl("runner.run_campaign")
    overhead = campaign_s - incl("runner._run_body")
    sim_self = own("Simulator.run")
    bench_s = layer_self("bench")
    values = {
        "sim.events": c["events"],
        "sim.events_per_s": _ratio(c["events"], wall),
        "sim.self_s": sim_self,
        "sim.heap_high_water": c["heap_high_water"],
        "sim.cancelled_skipped": c["cancelled_skipped"],
        "phy.frames": c["frames"],
        "phy.copies_delivered": n("Node._on_frame"),
        "phy.copies_lost": c["copies_lost"],
        "phy.broadcast_s": own("WirelessMedium.broadcast"),
        "phy.deliver_s": own("WirelessMedium._deliver"),
        "phy.unicast_s": own("WirelessMedium.unicast", "WirelessMedium._attempt_unicast"),
        "phy.unicast_attempts_per_frame": _ratio(
            n("WirelessMedium._attempt_unicast"), n("WirelessMedium.unicast")),
        "phy.copies_suppressed": c["copies_suppressed"],
        "phy.slow_path_share": _ratio(c["slow_broadcasts"], c["broadcasts"]),
        "phy.moves": n("WirelessMedium.set_position"),
        "phy.move_s": own("WirelessMedium.set_position", "RandomWaypoint._step"),
        "node.frames_handled": n("Node._on_frame"),
        "node.rx_s": own("Node._on_frame", "Node.deliver_app"),
        "node.tx_s": own("Node.broadcast", "Node.unicast_link"),
        "trace.records": n("TraceRecorder.record"),
        "trace.s": trace_s,
        "trace.share": _ratio(trace_s, wall),
        "codec.encodes": n("codec.encode_message"),
        "codec.encodes_per_send": _ratio(n("codec.encode_message"), sends),
        "codec.encode_s": own("codec.encode_message"),
        "codec.decodes": n("codec.decode_message"),
        "crypto.keygens": n(*keygen),
        "crypto.keygen_s": own(*keygen),
        "crypto.signs": n(*sign),
        "crypto.sign_s": own(*sign),
        "crypto.verifies": n("RSABackend.verify", "SimSigBackend.verify")
        + c["verify_batch_items"],
        "crypto.verify_s": own(*verify),
        "crypto.verify_requests": requests,
        "crypto.lru_hits": lru,
        "crypto.shared_hits": shared,
        "crypto.memo_hit_ratio": _ratio(lru + shared, requests),
        "crypto.pool_hits": c["pool_hits"],
        "bootstrap.dad_rounds": c.get("dad_rounds", 0),
        "bootstrap.areq_frames": c.get("send.AREQ", 0),
        "bootstrap.handler_s": layer_self("bootstrap"),
        # Each recovery cold-boots through DAD; each heal re-probes.
        "bootstrap.re_dad": n("FaultInjector._recover", "BootstrapManager.reprobe"),
        "dns.registrations": c.get("verdict.dns.registered", 0),
        "dns.lookups": n("DNSClient.resolve"),
        "dns.lookup_retries": c.get("verdict.dns_client.query_retry", 0),
        "dns.handler_s": layer_self("dns"),
        "routing.discoveries": c.get("discoveries", 0),
        "routing.discovery_success_ratio": _ratio(
            c.get("discoveries_ok", 0), c.get("discoveries", 0)),
        "routing.rreq_frames": c.get("send.RREQ", 0),
        "routing.creps": c.get("send.CREP", 0),
        "routing.rerrs": c.get("send.RERR", 0),
        "routing.probes": n("SecureDSRRouter._start_probe"),
        "routing.handler_s": layer_self("routing"),
        "faults.injected": n(*(f"FaultInjector.{m}" for m in _FAULT_EVENTS)),
        "faults.hook_s": layer_self("faults"),
        "metrics.summary_s": own("MetricsCollector.summary"),
        "campaign.runs": n("runner._run_body"),
        "campaign.run_body_s": incl("runner._run_body"),
        "campaign.build_s": incl("ScenarioBuilder.build") if campaign_s else 0.0,
        "campaign.overhead_s": overhead,
        "campaign.overhead_share": _ratio(overhead, campaign_s),
        "coverage.traced_wall_s": wall,
        # Program time inside the roots that some named layer owns; the
        # rest is kernel dispatch and unwrapped callbacks (sim.self_s).
        "coverage.named_share": _ratio(wall - sim_self - bench_s, wall - bench_s),
        "coverage.unattributed_s": sim_self,
        "coverage.bench_s": bench_s,
        # Both sides already in reference seconds.
        "coverage.tracing_overhead_s": spanned["wall_s"] - plain["wall_s"],
    }
    unit_of = units()
    for source, names in (("BENCHMARK.json", unit_of), ("layer_map.json", layer_map())):
        missing = set(names) ^ set(values)
        if missing:
            raise KeyError(f"{source} and layers.py disagree on {sorted(missing)}")
    slowdown = spanned["slowdown"]
    for name, unit in unit_of.items():
        if name == "coverage.tracing_overhead_s":
            continue
        if unit == "s":
            values[name] /= slowdown
        elif unit == "1/s":
            values[name] *= slowdown
    return values
