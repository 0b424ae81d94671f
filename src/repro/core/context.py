"""Per-scenario shared services.

A :class:`NetContext` is created once per scenario and handed to every
node: the simulation kernel, the shared medium, the metrics collector,
the trace recorder, and the network-wide DNS trust anchor (the DNS
server's public key, which the paper assumes "has been securely
distributed to all mobile nodes prior to network formation").

The trace recorder starts disabled: a run stores no event, and keeps
no message alive, unless someone turns it on with
``scenario.trace.enabled = True`` (``python -m repro.campaign explain``
replays a campaign run that way).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.backend import CryptoBackend, create_backend
from repro.crypto.keys import PublicKey
from repro.crypto.verify_cache import SharedVerifyCache
from repro.metrics.collector import MetricsCollector
from repro.phy.medium import WirelessMedium
from repro.sim.kernel import Simulator
from repro.trace.recorder import TraceRecorder


@dataclass
class NetContext:
    """Bundle of scenario-wide singletons shared by all nodes."""

    sim: Simulator
    medium: WirelessMedium
    metrics: MetricsCollector = field(default_factory=MetricsCollector)
    trace: TraceRecorder = field(
        default_factory=lambda: TraceRecorder(enabled=False)
    )
    #: The pre-distributed DNS public key -- the system's only a-priori
    #: security state.  Set by the scenario builder when the DNS server
    #: node is created, before any host bootstraps.
    dns_public_key: PublicKey | None = None
    #: Per-scenario crypto backend instances (name -> backend), created
    #: lazily by :meth:`crypto_backend`.  Scenario-owned instances fix
    #: the reused-worker state leak: the :func:`repro.crypto.backend.get_backend`
    #: registry singletons used to accumulate simsig oracle entries and
    #: sign/verify counters across every run in a process.
    crypto_backends: dict[str, CryptoBackend] = field(default_factory=dict, repr=False)
    #: Scenario-wide verified-signature cache, created lazily by
    #: :meth:`shared_verify_cache` (None until a node with
    #: ``crypto_shared_cache`` enabled asks for it).
    verify_cache: SharedVerifyCache | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        # Let the medium annotate the shared trace (e.g. graceful no-op
        # notes when churn races a detach).
        self.medium.trace = self.trace

    def crypto_backend(self, name: str) -> CryptoBackend:
        """This scenario's instance of backend ``name`` (lazily created).

        All nodes of a scenario share one instance per backend name, so
        simsig's in-simulation oracle spans the scenario (as it must for
        verification to work) and nothing else.
        """
        backend = self.crypto_backends.get(name)
        if backend is None:
            backend = create_backend(name)
            self.crypto_backends[name] = backend
        return backend

    def shared_verify_cache(self, capacity: int) -> SharedVerifyCache:
        """This scenario's shared verify cache (lazily created).

        First caller's ``capacity`` wins; nodes normally share one
        :class:`~repro.core.config.NodeConfig` so they agree anyway.
        """
        if self.verify_cache is None:
            self.verify_cache = SharedVerifyCache(capacity)
        return self.verify_cache

    @property
    def now(self) -> float:
        return self.sim.now
