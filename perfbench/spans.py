"""Span recorder for the traced run.

:func:`install` replaces the entry points of each layer -- class
methods and module functions, looked up by name -- with wrappers that
record one span per call: name, start, end and the span that was open
when the call began.  Spans are kept in flat in-memory arrays and
written out once, when the run ends.  A layer's self time is the time
its spans cover minus the time their child spans cover.

Wrappers must be installed before any scenario is built: nodes and
routers register bound methods (frame handlers, timers) when they are
constructed, so only methods patched on the class beforehand are seen.
Installing them changes no simulated result (``run.py`` compares the
traced run's digest with an untraced run's).
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

#: (layer, module, owner, attributes).  ``owner`` is a class name in
#: ``module``, or None for module-level functions.  The benchmark's own
#: traffic generator is the "bench" layer: it is not program time.
SPANS = [
    ("sim", "repro.sim.kernel", "Simulator", ["run"]),
    ("phy", "repro.phy.medium", "WirelessMedium",
     ["broadcast", "unicast", "_attempt_unicast", "_deliver", "set_position",
      "set_enabled"]),
    ("phy", "repro.phy.mobility", "RandomWaypoint", ["_step"]),
    ("core", "repro.core.node", "Node",
     ["_on_frame", "deliver_app", "broadcast", "unicast_link"]),
    ("trace", "repro.trace.recorder", "TraceRecorder", ["record"]),
    ("trace", "repro.messages.base", "Message", ["summary"]),
    ("messages", "repro.messages.codec", None, ["encode_message", "decode_message"]),
    ("crypto", "repro.crypto.rsa", "RSABackend", ["generate_keypair", "sign", "verify"]),
    ("crypto", "repro.crypto.simsig", "SimSigBackend",
     ["generate_keypair", "sign", "verify", "verify_batch"]),
    ("crypto", "repro.crypto.backend", "CryptoBackend", ["verify_batch"]),
    ("crypto", "repro.core.node", "Node", ["verify", "_compute_verify", "verify_batch"]),
    ("crypto", "repro.crypto.verify_cache", "SharedVerifyCache", ["lookup"]),
    ("crypto", "repro.bootstrap.autoconf", None, ["verify_identity"]),
    ("crypto", "repro.routing.secure_dsr", None,
     ["verify_identity", "verify_identity_batch"]),
    ("crypto", "repro.dns.server", None, ["verify_identity"]),
    ("bootstrap", "repro.bootstrap.autoconf", "BootstrapManager",
     ["start", "reprobe", "_on_areq", "_on_arep", "_on_drep",
      "_dad_timeout_fired", "_registration_refresh"]),
    ("dns", "repro.dns.server", "DNSServer",
     ["_on_areq", "_on_arep", "_on_query", "_on_update_request",
      "_finalize_registration"]),
    ("dns", "repro.dns.records", "DomainNameTable", ["register_online"]),
    ("dns", "repro.dns.client", "DNSClient",
     ["resolve", "_send_query", "_on_response", "_query_timeout"]),
    ("routing", "repro.routing.secure_dsr", "SecureDSRRouter",
     ["send_data", "discover", "_on_rreq", "_on_rrep", "_on_crep", "_on_rerr",
      "_on_data", "_on_ack", "_ack_timeout", "_discovery_timeout",
      "_flush_queue", "_local_link_failure", "_start_probe", "_evaluate_probe"]),
    ("routing", "repro.adversary.blackhole", "BlackholeRouter",
     ["_forward_data", "_on_rreq"]),
    ("faults", "repro.faults.injector", "FaultInjector",
     ["_hook", "_crash", "_recover", "_flap_down", "_flap_up", "_partition",
      "_heal", "_reprobe", "_surge_on", "_surge_off", "_corrupt_on",
      "_corrupt_off"]),
    ("metrics", "repro.metrics.collector", "MetricsCollector", ["summary"]),
    ("scenarios", "repro.scenarios.builder", "ScenarioBuilder", ["build"]),
    ("scenarios", "repro.scenarios.workloads", "CBRTraffic", ["_tick"]),
    ("campaign", "repro.campaign.runner", None, ["run_campaign", "_run_body"]),
    ("bench", "workloads", "Traffic",
     ["_lookup", "_lookup_done", "_send", "_acked", "_failed", "_on_arrival"]),
]

#: Span names whose top-level calls are the traced run's roots.
ROOTS = ("Simulator.run", "runner.run_campaign")


class Recorder:
    """Flat span arrays plus the few counters spans cannot express."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = {
            "events": 0, "heap_high_water": 0, "cancels": 0, "drained": 0,
            "cancelled_skipped": 0, "broadcasts": 0, "slow_broadcasts": 0,
            "frames": 0, "copies_lost": 0, "copies_suppressed": 0,
            "shared_hits": 0, "verify_batch_items": 0,
        }

    # -- wrapping ------------------------------------------------------------
    def wrap(self, layer: str, owner, attr: str, name: str, before=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``before(*args)``, when given, runs inside the span before the
        call and returns a callable run after it with the call's result.
        """
        fn = getattr(owner, attr)
        nid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                if before is None:
                    return fn(*args, **kwargs)
                after = before(*args)
                result = fn(*args, **kwargs)
                after(result)
                return result
            finally:
                end[idx] = clock()
                stack.pop()

        setattr(owner, attr, wrapper)

    def tally(self, owner, attr: str, hook) -> None:
        """Call ``hook(result, *args)`` after each call of ``owner.attr``
        (a counter, not a span)."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(result, *args)
            return result

        setattr(owner, attr, wrapper)

    # -- reporting -----------------------------------------------------------
    def report(self, path: str) -> dict:
        """Aggregate spans by name and write the raw spans to ``path``."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        np.savez(path, names=np.array(self.names), layers=np.array(self.layers),
                 name_id=name_id, parent=parent, start=start, end=end)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        k = len(self.names)
        count = np.bincount(name_id, minlength=k)
        self_s = np.bincount(name_id, weights=self_t, minlength=k)
        incl_s = np.bincount(name_id, weights=dur, minlength=k)
        root_ids = [self.names.index(r) for r in ROOTS]
        roots = ~has_parent & np.isin(name_id, root_ids)
        spans = {
            name: {"layer": self.layers[i], "count": int(count[i]),
                   "self_s": float(self_s[i]), "incl_s": float(incl_s[i])}
            for i, name in enumerate(self.names)
        }
        from repro.crypto.keys import DEFAULT_KEYPAIR_POOL

        return {
            "spans": spans,
            "counters": {**self.counters, "pool_hits": DEFAULT_KEYPAIR_POOL.hits},
            "root_s": float(dur[roots].sum()),
        }


def install() -> Recorder:
    """Wrap every entry point in :data:`SPANS`; returns the recorder."""
    rec = Recorder()
    c = rec.counters
    for layer, module, owner_name, attrs in SPANS:
        mod = importlib.import_module(module)
        owner = getattr(mod, owner_name) if owner_name else mod
        prefix = owner_name or module.rsplit(".", 1)[-1]
        for attr in attrs:
            label = f"{prefix}.{attr}"
            rec.wrap(layer, owner, attr, label, before=_before(label, c))

    from repro.metrics.collector import MetricsCollector
    from repro.sim.kernel import Simulator

    def bump(key: str) -> None:
        c[key] = c.get(key, 0) + 1

    # The program's own metric hooks, counted across every scenario
    # (a campaign builds hundreds).
    rec.tally(MetricsCollector, "on_send",
              lambda _r, _m, name, _size: bump("send." + name))
    rec.tally(MetricsCollector, "on_verdict", lambda _r, _m, v: bump("verdict." + v))
    rec.tally(MetricsCollector, "on_crypto", lambda _r, _m, _b, op: bump("crypto." + op))
    rec.tally(MetricsCollector, "on_dad_round", lambda _r, _m, _n: bump("dad_rounds"))
    rec.tally(MetricsCollector, "on_discovery_started",
              lambda _r, _m: bump("discoveries"))
    rec.tally(MetricsCollector, "on_discovery_succeeded",
              lambda _r, _m, *_a: bump("discoveries_ok"))

    def heap(_result, sim, *_args):
        if sim.events_pending > c["heap_high_water"]:
            c["heap_high_water"] = sim.events_pending

    rec.tally(Simulator, "schedule_at", heap)
    rec.tally(Simulator, "schedule_batch", heap)

    def cancel(_result, _sim):
        c["cancels"] += 1

    def drained(result, _sim):
        c["drained"] += result

    rec.tally(Simulator, "_on_cancel", cancel)
    rec.tally(Simulator, "drain_cancelled", drained)
    return rec


def _before(label: str, c: dict):
    """Per-span pre/post hooks for the counters spans cannot express."""
    if label == "Simulator.run":
        def before(sim, *_a, **_k):
            events, pending = sim.events_executed, sim.cancelled_pending
            cancels, drained = c["cancels"], c["drained"]

            def after(_result):
                c["events"] += sim.events_executed - events
                # Cancelled entries popped by the run loop: every cancel
                # leaves one, minus those compaction dropped and those
                # still waiting in the heap.
                c["cancelled_skipped"] += (
                    (c["cancels"] - cancels) - (c["drained"] - drained)
                    - (sim.cancelled_pending - pending))
            return after
        return before
    if label in ("WirelessMedium.broadcast", "WirelessMedium._attempt_unicast"):
        is_broadcast = label.endswith("broadcast")

        def before(medium, *_a):
            if is_broadcast:
                c["broadcasts"] += 1
                if medium.fault_hook is not None or not medium.vectorized:
                    c["slow_broadcasts"] += 1
            frames = medium.total_frames
            lost, suppressed = medium.dropped_frames, medium.suppressed_frames

            def after(_result):
                c["frames"] += medium.total_frames - frames
                c["copies_lost"] += medium.dropped_frames - lost
                c["copies_suppressed"] += medium.suppressed_frames - suppressed
            return after
        return before
    if label == "SharedVerifyCache.lookup":
        def before(*_a):
            def after(result):
                c["shared_hits"] += result is not None
            return after
        return before
    if label == "SimSigBackend.verify_batch":
        def before(_backend, items):
            c["verify_batch_items"] += len(items)
            return _noop
        return before
    return None


def _noop(_result) -> None:
    return None
