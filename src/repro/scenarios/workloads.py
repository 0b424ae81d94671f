"""Traffic workloads.

Three generators cover the experiments' needs:

* :class:`CBRTraffic` -- constant-bit-rate flow (the MANET evaluation
  staple), fixed interval and packet count;
* :class:`PoissonTraffic` -- exponential inter-arrivals, for randomised
  load;
* :class:`RequestResponse` -- request/ACK-style application exchange
  used by the DNS-heavy scenarios.

All report through the scenario's MetricsCollector automatically
(delivery accounting lives in the routing layer).

A campaign run names its traffic with a ``workload`` entry:
:data:`TRAFFIC` maps its ``kind`` to a generator, and
:func:`start_flows` starts one flow per host pair with the entry's
keywords, the generator's own defaults filling the rest.
"""

from __future__ import annotations

import inspect

from repro.core.node import Node
from repro.ipv6.address import IPv6Address
from repro.scenarios.builder import _check_keys
from repro.sim.rng import SimRNG


class CBRTraffic:
    """Constant-rate flow of ``count`` packets every ``interval`` seconds."""

    def __init__(
        self,
        src: Node,
        dst: IPv6Address,
        interval: float = 1.0,
        count: int = 10,
        payload_size: int = 64,
        start_at: float = 0.0,
    ):
        if interval <= 0 or count <= 0 or payload_size < 0:
            raise ValueError("interval/count must be positive, payload_size >= 0")
        self.src = src
        self.dst = dst
        self.interval = interval
        self.count = count
        self.payload = bytes(payload_size)
        self.sent = 0
        self.delivered = 0
        self.failed = 0
        src.sim.schedule(start_at, self._tick)

    def _tick(self) -> None:
        if self.sent >= self.count:
            return
        self.sent += 1
        self.src.router.send_data(
            self.dst,
            self.payload,
            on_delivered=self._on_delivered,
            on_failed=self._on_failed,
        )
        if self.sent < self.count:
            self.src.sim.schedule(self.interval, self._tick)

    def _on_delivered(self) -> None:
        self.delivered += 1

    def _on_failed(self) -> None:
        self.failed += 1

    @property
    def done(self) -> bool:
        return self.delivered + self.failed == self.count


class PoissonTraffic:
    """Poisson flow: exponential inter-arrivals at the given rate (pkt/s)."""

    def __init__(
        self,
        src: Node,
        dst: IPv6Address,
        rate: float = 1.0,
        count: int = 10,
        payload_size: int = 64,
        start_at: float = 0.0,
    ):
        if rate <= 0 or count <= 0:
            raise ValueError("rate and count must be positive")
        self.src = src
        self.dst = dst
        self.rate = rate
        self.count = count
        self.payload = bytes(payload_size)
        self.sent = 0
        self.delivered = 0
        self.failed = 0
        self._rng = src.rng("poisson-traffic")
        src.sim.schedule(start_at + self._rng.expovariate(rate), self._tick)

    def _tick(self) -> None:
        if self.sent >= self.count:
            return
        self.sent += 1
        self.src.router.send_data(
            self.dst,
            self.payload,
            on_delivered=lambda: setattr(self, "delivered", self.delivered + 1),
            on_failed=lambda: setattr(self, "failed", self.failed + 1),
        )
        if self.sent < self.count:
            self.src.sim.schedule(self._rng.expovariate(self.rate), self._tick)


class RequestResponse:
    """Application-level request/response pairs over the data plane.

    The responder side is handled by the destination's router ACK; this
    class measures round-trip completion of each request at the source.
    """

    def __init__(
        self,
        src: Node,
        dst: IPv6Address,
        count: int = 5,
        interval: float = 2.0,
        payload_size: int = 128,
    ):
        self.src = src
        self.dst = dst
        self.count = count
        self.interval = interval
        self.payload = bytes(payload_size)
        self.completed = 0
        self.failed = 0
        self.rtts: list[float] = []
        self._next(0)

    def _next(self, i: int) -> None:
        if i >= self.count:
            return
        started = self.src.sim.now
        self.src.router.send_data(
            self.dst,
            self.payload,
            on_delivered=lambda: self._on_done(started),
            on_failed=self._on_fail,
        )
        self.src.sim.schedule(self.interval, self._next, i + 1)

    def _on_done(self, started: float) -> None:
        self.completed += 1
        self.rtts.append(self.src.sim.now - started)

    def _on_fail(self) -> None:
        self.failed += 1

    @property
    def mean_rtt(self) -> float:
        return sum(self.rtts) / len(self.rtts) if self.rtts else 0.0


#: Flow generators by the ``kind`` a campaign run's ``workload`` entry names.
TRAFFIC = {
    "cbr": CBRTraffic,
    "poisson": PoissonTraffic,
    "request_response": RequestResponse,
}

#: Per kind, the generator keywords a ``workload`` entry may set, with
#: their defaults: every keyword with a default but ``start_at`` (a
#: campaign's flows start once the network has formed).
_KEYWORDS = {
    kind: {name: param.default
           for name, param in inspect.signature(cls).parameters.items()
           if param.default is not param.empty and name != "start_at"}
    for kind, cls in TRAFFIC.items()
}

#: The ``workload`` entry of a campaign run that names none: one CBR
#: flow at :class:`CBRTraffic`'s defaults.
DEFAULT_WORKLOAD = {"kind": "cbr", "flows": 1, **_KEYWORDS["cbr"]}

#: Keys a ``workload`` entry may carry: its kind, how its pairs are
#: chosen, and any generator's keyword whatever the kind, because a
#: campaign spec's default entry carries CBR's keywords under every kind.
WORKLOAD_KEYS = frozenset({"kind", "flows", "pairs"}).union(*_KEYWORDS.values())


def check_workload(workload: dict) -> None:
    """Refuse a ``workload`` entry with an unknown key or kind."""
    _check_keys("workload", workload, WORKLOAD_KEYS)
    kind = workload.get("kind", DEFAULT_WORKLOAD["kind"])
    if not isinstance(kind, str) or kind not in TRAFFIC:
        raise ValueError(
            f"unknown workload kind {kind!r} (expected one of {sorted(TRAFFIC)})"
        )


def _flow_pairs(hosts: list, workload: dict, seed: int) -> list:
    """Pick (src, dst) node pairs: explicit indices or seeded sampling."""
    if "pairs" in workload:
        return [(hosts[i], hosts[j]) for i, j in workload["pairs"]]
    configured = [h for h in hosts if h.configured]
    if len(configured) < 2:
        return []
    rng = SimRNG(seed, "campaign/workload")
    pairs = []
    for _ in range(int(workload.get("flows", DEFAULT_WORKLOAD["flows"]))):
        src = rng.choice(configured)
        dst = rng.choice(configured)
        while dst is src:
            dst = rng.choice(configured)
        pairs.append((src, dst))
    return pairs


def start_flows(hosts: list, workload: dict, seed: int) -> list:
    """Start a campaign run's ``workload`` entry; returns its flows.

    Pairs are ``workload["pairs"]`` (indices into ``hosts``) or
    ``flows`` pairs drawn from ``SimRNG(seed, "campaign/workload")``
    among the configured ``hosts``; a pair with an unconfigured end
    starts no flow.  Each keyword is coerced to its default's type.
    """
    check_workload(workload)
    kind = workload.get("kind", DEFAULT_WORKLOAD["kind"])
    keywords = {key: type(default)(workload.get(key, default))
                for key, default in _KEYWORDS[kind].items()}
    return [TRAFFIC[kind](src, dst.ip, **keywords)
            for src, dst in _flow_pairs(hosts, workload, seed)
            if src.configured and dst.configured]
