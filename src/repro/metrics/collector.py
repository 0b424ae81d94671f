"""The scenario-wide metrics collector.

Counts are grouped into small orthogonal families so experiments can
read exactly what they need:

* per-message-type send/receive counts and bytes (control overhead),
* per-flow data delivery (PDR, end-to-end latency),
* security verdicts (messages accepted/rejected and why),
* crypto operation counts,
* bootstrap outcomes (DAD rounds, collisions detected, time to address).

The collector is deliberately passive -- plain counters, no simulation
side effects -- so attaching it never perturbs a run.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.ipv6.address import IPv6Address


def _percentile_sorted(ordered: list[float], q: float) -> float:
    """Linear-interpolation quantile of an already-sorted list."""
    if not ordered:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * (q / 100.0)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]); 0 when empty.

    Pure python so the collector stays dependency-free and the result is
    bit-stable across numpy versions (campaign baselines diff on it).
    Taking several quantiles of one list?  Use :func:`percentiles`,
    which sorts once instead of per call.
    """
    return _percentile_sorted(sorted(values), q)


def percentiles(values: list[float], qs) -> list[float]:
    """Several quantiles of one list, sharing a single sort.

    Byte-identical to calling :func:`percentile` per ``q`` -- the sort
    and the interpolation are the same -- just without re-sorting the
    full list for every quantile, which is measurably cheaper on the
    big per-flow latency lists of heavy campaigns.
    """
    ordered = sorted(values)
    return [_percentile_sorted(ordered, q) for q in qs]


@dataclass
class FlowStats:
    """Delivery bookkeeping for one (src, dst) data flow."""

    sent: int = 0
    delivered: int = 0
    acked: int = 0
    dropped: int = 0
    latencies: list[float] = field(default_factory=list)

    @property
    def pdr(self) -> float:
        """Packet delivery ratio; 0 when nothing was sent."""
        return self.delivered / self.sent if self.sent else 0.0

    @property
    def mean_latency(self) -> float:
        return sum(self.latencies) / len(self.latencies) if self.latencies else 0.0


class MetricsCollector:
    """Scenario-wide event sink.  See module docstring for the families."""

    def __init__(self):
        # message-type name -> counters
        self.msgs_sent: dict[str, int] = defaultdict(int)
        self.msgs_received: dict[str, int] = defaultdict(int)
        self.bytes_sent: dict[str, int] = defaultdict(int)
        # (src, dst) -> FlowStats
        self.flows: dict[tuple[IPv6Address, IPv6Address], FlowStats] = defaultdict(FlowStats)
        # security verdict -> count;  verdict strings are dotted, e.g.
        # "rrep.rejected.bad_signature", "arep.accepted"
        self.verdicts: dict[str, int] = defaultdict(int)
        # crypto op counts per backend
        self.crypto_ops: dict[str, int] = defaultdict(int)
        # bootstrap outcomes
        self.dad_rounds: dict[str, int] = defaultdict(int)  # node name -> rounds
        self.dad_time: dict[str, float] = {}  # node name -> seconds to final addr
        self.collisions_detected = 0
        self.name_conflicts_detected = 0
        # route discovery
        self.discoveries_started = 0
        self.discoveries_succeeded = 0
        self.discovery_latencies: list[float] = []
        self.creps_used = 0
        self.rerrs_received = 0
        # opt-in kernel instrumentation: a zero-arg callable returning
        # the kernel_stats dict, attached by Scenario.enable_kernel_stats
        self._kernel_stats_provider = None
        # opt-in crypto fast-path instrumentation, same pattern
        # (attached by Scenario.enable_crypto_stats)
        self._crypto_stats_provider = None
        # opt-in fault-injection columns, same pattern (attached by
        # ScenarioBuilder.build when the fault plan has events)
        self._fault_stats_provider = None

    def attach_kernel_stats(self, provider) -> None:
        """Surface kernel profiling in :meth:`summary` (opt-in).

        ``provider`` is a zero-arg callable returning a JSON-clean dict
        (typically ``sim.stats_summary``).  When attached, ``summary()``
        gains a nested ``"kernel_stats"`` block; when not, the summary
        is byte-identical to an uninstrumented run -- campaign records
        therefore never contain it (the runner never attaches one).
        """
        self._kernel_stats_provider = provider

    def attach_crypto_stats(self, provider) -> None:
        """Surface crypto fast-path execution counters in :meth:`summary`.

        Same opt-in contract as :meth:`attach_kernel_stats`: ``provider``
        is a zero-arg callable returning a JSON-clean dict (typically
        ``Scenario.crypto_stats``: backend sign/verify call counts,
        shared-verify-cache hits/misses, keypair-pool hits).  These are
        host-execution measurements -- a shared-cache hit changes none of
        the flat summary fields by design -- so they only appear when
        explicitly attached and are never byte-compared.
        """
        self._crypto_stats_provider = provider

    def attach_fault_stats(self, provider) -> None:
        """Surface fault-injection outcomes in :meth:`summary` (opt-in).

        ``provider`` is a zero-arg callable returning a *flat numeric*
        dict (typically ``FaultInjector.stats``: faults_injected,
        crash/recovery counts, re_dad_count, recovery_time_mean/max,
        availability, suppressed/corrupted frame counts) merged into the
        top-level summary so the campaign aggregator folds the columns
        like any others.  Attached only when a scenario's fault plan has
        events, so fault-free summaries stay byte-identical to pre-fault
        builds.
        """
        self._fault_stats_provider = provider

    # -- message accounting ------------------------------------------------
    def on_send(self, msg_name: str, size: int) -> None:
        self.msgs_sent[msg_name] += 1
        self.bytes_sent[msg_name] += size

    def on_receive(self, msg_name: str) -> None:
        self.msgs_received[msg_name] += 1

    def control_bytes(self) -> int:
        """Total control-plane bytes (everything except DATA payload carriers)."""
        return sum(v for k, v in self.bytes_sent.items() if k != "DATA")

    def control_messages(self) -> int:
        return sum(v for k, v in self.msgs_sent.items() if k != "DATA")

    # -- data plane ----------------------------------------------------------
    def on_data_sent(self, src: IPv6Address, dst: IPv6Address) -> None:
        self.flows[(src, dst)].sent += 1

    def on_data_delivered(self, src: IPv6Address, dst: IPv6Address, latency: float) -> None:
        st = self.flows[(src, dst)]
        st.delivered += 1
        st.latencies.append(latency)

    def on_data_acked(self, src: IPv6Address, dst: IPv6Address) -> None:
        self.flows[(src, dst)].acked += 1

    def on_data_dropped(self, src: IPv6Address, dst: IPv6Address) -> None:
        self.flows[(src, dst)].dropped += 1

    def delivered(self, src: IPv6Address, dst: IPv6Address) -> int:
        return self.flows[(src, dst)].delivered

    def pdr(self, src: IPv6Address | None = None, dst: IPv6Address | None = None) -> float:
        """PDR of one flow, or aggregate over all flows."""
        if src is not None and dst is not None:
            return self.flows[(src, dst)].pdr
        sent = sum(f.sent for f in self.flows.values())
        delivered = sum(f.delivered for f in self.flows.values())
        return delivered / sent if sent else 0.0

    # -- security ------------------------------------------------------------
    def on_verdict(self, verdict: str) -> None:
        self.verdicts[verdict] += 1

    def accepted(self, msg: str) -> int:
        return self.verdicts[f"{msg}.accepted"]

    def rejected(self, msg: str) -> int:
        """All rejections of a message kind, summed over reasons."""
        prefix = f"{msg}.rejected"
        return sum(v for k, v in self.verdicts.items() if k.startswith(prefix))

    # -- crypto ----------------------------------------------------------------
    def on_crypto(self, backend: str, op: str) -> None:
        self.crypto_ops[f"{backend}.{op}"] += 1

    def crypto_total(self, op: str | None = None) -> int:
        if op is None:
            return sum(self.crypto_ops.values())
        return sum(v for k, v in self.crypto_ops.items() if k.endswith(f".{op}"))

    # -- bootstrap ----------------------------------------------------------------
    def on_dad_round(self, node_name: str) -> None:
        self.dad_rounds[node_name] += 1

    def on_address_configured(self, node_name: str, elapsed: float) -> None:
        self.dad_time[node_name] = elapsed

    def on_collision_detected(self) -> None:
        self.collisions_detected += 1

    def on_name_conflict(self) -> None:
        self.name_conflicts_detected += 1

    # -- route discovery -------------------------------------------------------
    def on_discovery_started(self) -> None:
        self.discoveries_started += 1

    def on_discovery_succeeded(self, latency: float, via_crep: bool = False) -> None:
        self.discoveries_succeeded += 1
        self.discovery_latencies.append(latency)
        if via_crep:
            self.creps_used += 1

    def on_rerr(self) -> None:
        self.rerrs_received += 1

    @property
    def mean_discovery_latency(self) -> float:
        lat = self.discovery_latencies
        return sum(lat) / len(lat) if lat else 0.0

    # -- aggregation ------------------------------------------------------
    def summary(self) -> dict:
        """A flat, JSON-serializable digest of the whole run.

        Every value is an int or float, so summaries can be written to
        JSONL, diffed byte-for-byte across campaign replicates, and
        averaged column-wise by the campaign aggregator.  The exceptions
        are the nested ``kernel_stats`` and ``crypto_stats`` blocks,
        present only when the corresponding instrumentation was
        explicitly attached (:meth:`attach_kernel_stats` /
        :meth:`attach_crypto_stats`); they hold host-execution
        measurements and are deliberately absent from anything
        byte-compared.
        """
        latencies = [lat for f in self.flows.values() for lat in f.latencies]
        latency_p50, latency_p95 = percentiles(latencies, (50.0, 95.0))
        data_sent = sum(f.sent for f in self.flows.values())
        data_delivered = sum(f.delivered for f in self.flows.values())
        boot_times = list(self.dad_time.values())
        out = {
            # data plane
            "flows": len(self.flows),
            "data_sent": data_sent,
            "data_delivered": data_delivered,
            "data_acked": sum(f.acked for f in self.flows.values()),
            "data_dropped": sum(f.dropped for f in self.flows.values()),
            "pdr": data_delivered / data_sent if data_sent else 0.0,
            "latency_mean": sum(latencies) / len(latencies) if latencies else 0.0,
            "latency_p50": latency_p50,
            "latency_p95": latency_p95,
            # control overhead
            "msgs_sent_total": sum(self.msgs_sent.values()),
            "msgs_received_total": sum(self.msgs_received.values()),
            "bytes_sent_total": sum(self.bytes_sent.values()),
            "control_messages": self.control_messages(),
            "control_bytes": self.control_bytes(),
            # security
            "verdicts_accepted": sum(
                v for k, v in self.verdicts.items() if ".accepted" in k
            ),
            "verdicts_rejected": sum(
                v for k, v in self.verdicts.items() if ".rejected" in k
            ),
            # crypto
            "crypto_ops_total": sum(self.crypto_ops.values()),
            "crypto_sign_ops": self.crypto_total("sign"),
            "crypto_verify_ops": self.crypto_total("verify"),
            "crypto_verify_cache_hits": self.crypto_total("verify_cached"),
            # bootstrap
            "configured_nodes": len(self.dad_time),
            "dad_rounds_total": sum(self.dad_rounds.values()),
            "bootstrap_time_mean": (
                sum(boot_times) / len(boot_times) if boot_times else 0.0
            ),
            "bootstrap_time_max": max(boot_times) if boot_times else 0.0,
            "collisions_detected": self.collisions_detected,
            "name_conflicts_detected": self.name_conflicts_detected,
            # route discovery
            "discoveries_started": self.discoveries_started,
            "discoveries_succeeded": self.discoveries_succeeded,
            "discovery_latency_mean": self.mean_discovery_latency,
            "discovery_latency_p95": percentile(self.discovery_latencies, 95.0),
            "creps_used": self.creps_used,
            "rerrs_received": self.rerrs_received,
        }
        if self._fault_stats_provider is not None:
            out.update(self._fault_stats_provider())
        if self._kernel_stats_provider is not None:
            out["kernel_stats"] = self._kernel_stats_provider()
        if self._crypto_stats_provider is not None:
            out["crypto_stats"] = self._crypto_stats_provider()
        return out
