"""Scenario construction.

A :class:`Scenario` owns the simulator, the medium, the DNS server node
and the host nodes, with every protocol component wired.  The
:class:`ScenarioBuilder` fluent API picks topology, router class,
config overrides and mobility; ``build()`` materialises everything
(deterministically from the seed) without running any simulation time.

The DNS server is created already-configured: the paper assumes the
server (and the distribution of its public key) predates network
formation, so it does not itself run DAD.
"""

from __future__ import annotations

import copy
import inspect
import math

import numpy as np

from repro.bootstrap.autoconf import BootstrapManager
from repro.core.config import NodeConfig
from repro.core.context import NetContext
from repro.core.node import Node
from repro.dns.client import DNSClient
from repro.dns.server import DNSServer
from repro.faults import FaultInjector, FaultPlan
from repro.ipv6.address import IPv6Address
from repro.ipv6.cga import generate_cga
from repro.metrics.collector import MetricsCollector
from repro.phy.medium import WirelessMedium
from repro.phy.mobility import RandomWaypoint
from repro.phy.topology import (
    chain_positions,
    clustered_positions,
    connected_uniform_positions,
    grid_positions,
    uniform_positions,
)
from repro.routing.bsar_like import EndpointOnlyRouter
from repro.routing.dsr import PlainDSRRouter
from repro.routing.secure_dsr import SecureDSRRouter
from repro.sim.kernel import Simulator
from repro.trace.recorder import TraceRecorder

#: Router classes addressable by short name in serialized specs.
ROUTER_REGISTRY: dict[str, type] = {
    "secure": SecureDSRRouter,
    "plain": PlainDSRRouter,
    "endpoint": EndpointOnlyRouter,
}


def router_class(name: str) -> type:
    """Resolve a router spec name: registry short name or ``module:Qualname``."""
    if name in ROUTER_REGISTRY:
        return ROUTER_REGISTRY[name]
    if ":" in name:
        import importlib

        mod_name, _, qualname = name.partition(":")
        obj = importlib.import_module(mod_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        return obj
    raise ValueError(
        f"unknown router {name!r} (expected one of {sorted(ROUTER_REGISTRY)} "
        "or 'module:Qualname')"
    )


def router_name(cls: type) -> str:
    """Inverse of :func:`router_class`, for serializing a builder."""
    for name, registered in ROUTER_REGISTRY.items():
        if registered is cls:
            return name
    return f"{cls.__module__}:{cls.__qualname__}"


#: Top-level keys of a scenario spec (:meth:`ScenarioBuilder.from_spec`).
SCENARIO_SPEC_KEYS = frozenset({
    "seed", "topology", "radio", "config", "router",
    "routers_by_name", "dns", "preregister", "mobility", "faults",
})

#: Keywords of :meth:`Scenario.bootstrap_all` a campaign run's
#: ``bootstrap`` entry may set.
BOOTSTRAP_KEYS = frozenset({"stagger"})


def _check_keys(what: str, mapping: dict, allowed: set[str]) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ValueError(
            f"unknown {what} spec keys: {sorted(unknown)} "
            f"(allowed: {sorted(allowed)})"
        )


class Scenario:
    """A fully wired simulation: kernel + medium + DNS + hosts."""

    def __init__(self, ctx: NetContext, dns_node: Node | None, hosts: list[Node]):
        self.ctx = ctx
        self.sim = ctx.sim
        self.medium = ctx.medium
        self.dns_node = dns_node
        self.hosts = hosts
        #: FaultInjector when the builder carried a non-empty fault plan;
        #: armed automatically at the end of :meth:`bootstrap_all`.
        self.faults: FaultInjector | None = None

    # -- convenient accessors ------------------------------------------------
    @property
    def metrics(self) -> MetricsCollector:
        return self.ctx.metrics

    @property
    def trace(self) -> TraceRecorder:
        return self.ctx.trace

    @property
    def all_nodes(self) -> list[Node]:
        return ([self.dns_node] if self.dns_node else []) + self.hosts

    def host(self, name: str) -> Node:
        for node in self.all_nodes:
            if node.name == name:
                return node
        raise KeyError(f"no node named {name!r}")

    @property
    def dns_server(self) -> DNSServer | None:
        return self.dns_node.component("dns_server") if self.dns_node else None

    # -- orchestration ----------------------------------------------------------
    def bootstrap_all(
        self,
        stagger: float = 0.25,
        names: dict[str, str] | None = None,
        run: bool = True,
    ) -> None:
        """Start secure DAD on every host, staggered, and (by default) run
        the simulation until the last join settles.

        ``names`` maps node name -> requested domain name.
        """
        names = names or {}
        for i, node in enumerate(self.hosts):
            dn = names.get(node.name, "")
            self.sim.schedule(i * stagger, node.bootstrap.start, dn)
        if run:
            cfg = self.hosts[0].config if self.hosts else NodeConfig()
            settle = len(self.hosts) * stagger + cfg.dad_timeout * 3 + 1.0
            self.sim.run(until=self.sim.now + settle)
        # Arm the fault plan once the network has formed, so event times
        # read as "seconds into the workload".  Manual flows that skip
        # bootstrap_all call scenario.faults.arm() themselves.
        if self.faults is not None and not self.faults.armed:
            self.faults.arm()

    def run(self, until: float | None = None, duration: float | None = None) -> None:
        """Run to absolute time ``until`` or for ``duration`` more seconds."""
        if duration is not None:
            until = self.sim.now + duration
        self.sim.run(until=until)

    def send_data(self, src: Node, dst: IPv6Address, payload: bytes, **kw) -> int:
        """Convenience passthrough to the source node's router."""
        return src.router.send_data(dst, payload, **kw)

    def enable_kernel_stats(self):
        """Opt into kernel profiling for this scenario.

        Attaches a :class:`~repro.obs.kernel_stats.KernelStats` sink to
        the simulator and surfaces its digest as the ``kernel_stats``
        block of :meth:`MetricsCollector.summary`.  Observation-only:
        event ordering, RNG streams, traces, and every other summary
        field are byte-identical to an uninstrumented run.
        """
        stats = self.sim.enable_stats()
        self.metrics.attach_kernel_stats(self.sim.stats_summary)
        return stats

    def crypto_stats(self) -> dict:
        """Execution counters of the crypto fast path (JSON-clean).

        Backend sign/verify call counts (real computations, not the
        metrics-level logical ops), the shared verify cache's
        hit/miss/eviction numbers, and the process-wide keypair pool's
        stats.  Pure observation of host work -- none of it feeds
        simulation state.
        """
        from repro.crypto.keys import DEFAULT_KEYPAIR_POOL

        backends = {
            name: {
                "signs": int(getattr(backend, "signs", 0)),
                "verifies": int(getattr(backend, "verifies", 0)),
            }
            for name, backend in sorted(self.ctx.crypto_backends.items())
        }
        cache = self.ctx.verify_cache
        return {
            "backends": backends,
            "shared_verify_cache": cache.stats() if cache is not None else None,
            "keypair_pool": DEFAULT_KEYPAIR_POOL.stats(),
        }

    def enable_crypto_stats(self) -> None:
        """Surface :meth:`crypto_stats` as a ``crypto_stats`` summary block.

        Same opt-in contract as :meth:`enable_kernel_stats`: without this
        call the summary is byte-identical whatever the crypto fast-path
        flags are, which is what the equivalence gates compare.
        """
        self.metrics.attach_crypto_stats(self.crypto_stats)

    def configured_count(self) -> int:
        return sum(1 for n in self.hosts if n.configured)


class ScenarioBuilder:
    """Fluent scenario assembly.  All randomness derives from ``seed``."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._config = NodeConfig()
        self._config_overrides: dict = {}
        self._router_cls = SecureDSRRouter
        self._router_cls_by_name: dict[str, type] = {}
        self._topology: dict | None = None
        self._radio_range = 250.0
        self._loss_rate = 0.0
        self._with_dns = False
        self._dns_position: tuple[float, float] | None = None
        self._dns_preregistrations: list[tuple[str, IPv6Address]] = []
        self._mobility: dict | None = None
        self._faults: FaultPlan | None = None

    # -- topology -------------------------------------------------------------
    # Topology choices are stored declaratively and materialised in
    # ``build()``, so a builder serializes losslessly (``to_spec``) and the
    # radio range used by the uniform connectivity check is the final one
    # regardless of fluent call order.

    def chain(self, n: int, spacing: float = 200.0) -> "ScenarioBuilder":
        """A line of ``n`` hosts; spacing < range => i hears only i±1."""
        self._topology = {"kind": "chain", "n": int(n), "spacing": float(spacing)}
        return self

    def grid(self, n: int, spacing: float = 180.0) -> "ScenarioBuilder":
        self._topology = {"kind": "grid", "n": int(n), "spacing": float(spacing)}
        return self

    def uniform(
        self, n: int, area: tuple[float, float], require_connected: bool = True
    ) -> "ScenarioBuilder":
        self._topology = {
            "kind": "uniform",
            "n": int(n),
            "area": [float(area[0]), float(area[1])],
            "require_connected": bool(require_connected),
        }
        return self

    def uniform_density(
        self, n: int, density: float = 10.0, require_connected: bool = False
    ) -> "ScenarioBuilder":
        """Uniform placement in a square sized so that the *expected
        neighbor count* per node is ``density``, whatever ``n`` is.

        The fixed-area ``uniform`` knob saturates as ``n`` grows (every
        node ends up hearing everyone); this one keeps local density
        constant, which is what large-N sweeps (500-1000 nodes) need for
        flood behaviour to stay multi-hop.  The side length resolves at
        ``build()`` time from the final radio range, so call order
        relative to ``radio()`` does not matter.
        """
        if density <= 0:
            raise ValueError("density must be positive")
        self._topology = {
            "kind": "uniform_density",
            "n": int(n),
            "density": float(density),
            "require_connected": bool(require_connected),
        }
        return self

    def clustered(
        self,
        n: int,
        clusters: int,
        area: tuple[float, float],
        cluster_std: float = 60.0,
    ) -> "ScenarioBuilder":
        """Gaussian clusters -- teams converging on a disaster site."""
        self._topology = {
            "kind": "clustered",
            "n": int(n),
            "clusters": int(clusters),
            "area": [float(area[0]), float(area[1])],
            "cluster_std": float(cluster_std),
        }
        return self

    def positions(self, points) -> "ScenarioBuilder":
        """Explicit (n, 2) placement."""
        points = np.asarray(points, dtype=float)
        self._topology = {"kind": "positions", "points": points.tolist()}
        return self

    def _resolve_topology(self) -> tuple[np.ndarray, tuple[float, float] | None]:
        """Materialise host positions and the mobility area from the spec."""
        topo = self._topology
        if topo is None:
            raise ValueError("no topology chosen (use chain/grid/uniform/positions)")
        kind = topo["kind"]
        if kind == "chain":
            n, spacing = topo["n"], topo["spacing"]
            return chain_positions(n, spacing), (max(1.0, (n - 1) * spacing), spacing)
        if kind == "grid":
            n, spacing = topo["n"], topo["spacing"]
            side = int(np.ceil(np.sqrt(n)))
            return grid_positions(n, spacing), (side * spacing, side * spacing)
        if kind == "uniform":
            n, area = topo["n"], tuple(topo["area"])
            rng = Simulator(seed=self.seed).rng("placement")
            if topo["require_connected"]:
                pts = connected_uniform_positions(n, area, self._radio_range, rng)
            else:
                pts = uniform_positions(n, area, rng)
            return pts, area
        if kind == "uniform_density":
            n, density = topo["n"], topo["density"]
            # E[neighbors] = density  =>  area = n * pi * r^2 / density.
            r = self._radio_range
            side = math.sqrt(n * math.pi * r * r / density)
            area = (side, side)
            rng = Simulator(seed=self.seed).rng("placement")
            if topo["require_connected"]:
                pts = connected_uniform_positions(n, area, r, rng)
            else:
                pts = uniform_positions(n, area, rng)
            return pts, area
        if kind == "clustered":
            area = tuple(topo["area"])
            rng = Simulator(seed=self.seed).rng("placement")
            pts = clustered_positions(
                topo["n"], topo["clusters"], area, topo["cluster_std"], rng
            )
            return pts, area
        if kind == "positions":
            return np.asarray(topo["points"], dtype=float), None
        raise ValueError(f"unknown topology kind {kind!r}")

    # -- radio ------------------------------------------------------------------
    def radio(self, radio_range: float = 250.0, loss_rate: float = 0.0) -> "ScenarioBuilder":
        self._radio_range = radio_range
        self._loss_rate = loss_rate
        return self

    def crypto(
        self,
        shared_cache: bool | None = None,
        batch_verify: bool | None = None,
        keypair_pool: bool | None = None,
    ) -> "ScenarioBuilder":
        """Crypto fast-path knobs (sugar over :meth:`config` fields
        ``crypto_shared_cache`` / ``crypto_batch_verify`` /
        ``crypto_keypair_pool``, so they sweep through the ``config``
        spec key like any other NodeConfig override).  All default True;
        results are byte-identical across the whole 2x2x2 matrix --
        ``tests/test_crypto_equivalence.py`` regression-tests that claim.
        ``None`` means "leave unchanged", so calls compose in any order
        without clobbering each other."""
        overrides = {}
        if shared_cache is not None:
            overrides["crypto_shared_cache"] = bool(shared_cache)
        if batch_verify is not None:
            overrides["crypto_batch_verify"] = bool(batch_verify)
        if keypair_pool is not None:
            overrides["crypto_keypair_pool"] = bool(keypair_pool)
        if overrides:
            self.config(**overrides)
        return self

    # -- protocol ----------------------------------------------------------------
    def config(self, **overrides) -> "ScenarioBuilder":
        self._config = self._config.with_overrides(**overrides)
        self._config_overrides.update(overrides)
        return self

    def router(self, router_cls, node_name: str | None = None) -> "ScenarioBuilder":
        """Set the router class network-wide, or for one node by name."""
        if node_name is None:
            self._router_cls = router_cls
        else:
            self._router_cls_by_name[node_name] = router_cls
        return self

    # -- DNS -----------------------------------------------------------------------
    def with_dns(self, position: tuple[float, float] | None = None) -> "ScenarioBuilder":
        self._with_dns = True
        self._dns_position = position
        return self

    def preregister(self, name: str, ip: IPv6Address) -> "ScenarioBuilder":
        """Install a permanent DNS entry before network formation."""
        self._dns_preregistrations.append((name, ip))
        return self

    # -- faults ---------------------------------------------------------------------
    def faults(self, plan) -> "ScenarioBuilder":
        """Attach a declarative fault plan (see :mod:`repro.faults.plan`).

        ``plan`` is a :class:`FaultPlan`, a ``{"events": [...]}`` dict,
        or a bare event list; it is validated here so a typo'd campaign
        axis fails at spec time, not silently mid-sweep.  Event times are
        relative to the moment the plan is armed (end of
        ``bootstrap_all``).  A plan with no events is exactly equivalent
        to no plan: nothing is attached and the run is byte-identical.
        """
        self._faults = FaultPlan.from_spec(plan)
        return self

    # -- mobility -------------------------------------------------------------------
    def random_waypoint(
        self, speed: tuple[float, float] = (1.0, 5.0), pause: float = 10.0
    ) -> "ScenarioBuilder":
        self._mobility = {"kind": "rwp", "speed": speed, "pause": pause}
        return self

    # -- serialization -----------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: dict) -> "ScenarioBuilder":
        """Rebuild a builder from a plain-dict spec (see :meth:`to_spec`).

        Specs are JSON-clean, so campaign files and baselines can store
        them verbatim; ``from_spec(b.to_spec())`` reproduces ``b``.
        """
        unknown = set(spec) - SCENARIO_SPEC_KEYS
        if unknown:
            raise ValueError(f"unknown scenario spec keys: {sorted(unknown)}")
        if "topology" not in spec:
            raise ValueError("scenario spec requires a 'topology' entry")

        builder = cls(seed=int(spec.get("seed", 0)))
        radio = spec.get("radio", {})
        _check_keys("radio", radio, {"range", "loss_rate"})
        builder.radio(
            radio_range=float(radio.get("range", 250.0)),
            loss_rate=float(radio.get("loss_rate", 0.0)),
        )
        if spec.get("config"):
            builder.config(**spec["config"])

        # a topology entry is the keywords of the fluent method it names
        topo = dict(spec["topology"])
        kind = topo.pop("kind", None)
        if kind not in _TOPOLOGY_KEYS:
            raise ValueError(f"unknown topology kind {kind!r}")
        _check_keys(f"topology[{kind}]", topo, _TOPOLOGY_KEYS[kind])
        getattr(builder, kind)(**topo)

        builder.router(router_class(spec.get("router", "secure")))
        for node_name, rname in spec.get("routers_by_name", {}).items():
            builder.router(router_class(rname), node_name=node_name)
        if "dns" in spec:
            _check_keys("dns", spec["dns"], {"position"})
            pos = spec["dns"].get("position")
            builder.with_dns(tuple(pos) if pos is not None else None)
        for name, ip in spec.get("preregister", []):
            builder.preregister(name, IPv6Address(ip))
        mob = spec.get("mobility")
        if mob is not None:
            if mob.get("kind") != "rwp":
                raise ValueError(f"unknown mobility kind {mob.get('kind')!r}")
            _check_keys("mobility", mob, {"kind", "speed", "pause"})
            builder.random_waypoint(
                speed=tuple(mob.get("speed", (1.0, 5.0))),
                pause=float(mob.get("pause", 10.0)),
            )
        if spec.get("faults"):
            builder.faults(spec["faults"])
        return builder

    def to_spec(self) -> dict:
        """Serialize this builder to a JSON-clean plain dict."""
        if self._topology is None:
            raise ValueError("no topology chosen (use chain/grid/uniform/positions)")
        spec: dict = {
            "seed": self.seed,
            "topology": copy.deepcopy(self._topology),
            "radio": {"range": self._radio_range, "loss_rate": self._loss_rate},
            "router": router_name(self._router_cls),
        }
        if self._config_overrides:
            spec["config"] = dict(self._config_overrides)
        if self._router_cls_by_name:
            spec["routers_by_name"] = {
                name: router_name(rc)
                for name, rc in self._router_cls_by_name.items()
            }
        if self._with_dns:
            pos = self._dns_position
            spec["dns"] = {"position": [float(pos[0]), float(pos[1])] if pos else None}
        if self._dns_preregistrations:
            spec["preregister"] = [
                [name, str(ip)] for name, ip in self._dns_preregistrations
            ]
        if self._mobility:
            spec["mobility"] = {
                "kind": "rwp",
                "speed": [float(s) for s in self._mobility["speed"]],
                "pause": float(self._mobility["pause"]),
            }
        if self._faults is not None and self._faults.events:
            spec["faults"] = self._faults.to_spec()
        return spec

    # -- build -----------------------------------------------------------------------
    def build(self) -> Scenario:
        positions, area = self._resolve_topology()
        sim = Simulator(seed=self.seed)
        medium = WirelessMedium(
            sim, radio_range=self._radio_range, loss_rate=self._loss_rate,
        )
        ctx = NetContext(sim=sim, medium=medium)

        dns_node = None
        if self._with_dns:
            dns_pos = self._dns_position or tuple(positions.mean(axis=0))
            dns_node = make_node(ctx, "dns", dns_pos, SecureDSRRouter,
                                 self._config)
            # Server identity exists before network formation (paper
            # assumption): adopt a CGA immediately, no DAD.
            ip, params = generate_cga(dns_node.public_key, dns_node.rng("self-cga"))
            dns_node.adopt_identity(ip, params)
            dns_node.domain_name = "dns.manet"
            server = DNSServer(dns_node)
            dns_node.attach_component("dns_server", server)
            for name, addr in self._dns_preregistrations:
                server.preregister(name, addr)

        hosts = []
        for i, pos in enumerate(positions):
            name = f"n{i}"
            router_cls = self._router_cls_by_name.get(name, self._router_cls)
            hosts.append(make_node(ctx, name, tuple(pos), router_cls,
                                   self._config))

        if self._mobility and self._mobility["kind"] == "rwp":
            mob = RandomWaypoint(
                sim, medium, [h.link_id for h in hosts],
                area=area or (1000.0, 1000.0),
                speed_range=tuple(self._mobility["speed"]),
                pause=self._mobility["pause"],
            )
            mob.start()

        scenario = Scenario(ctx, dns_node, hosts)
        if self._faults is not None and self._faults.events:
            scenario.faults = FaultInjector(scenario, self._faults)
            # Fault columns join the summary only when faults exist, so
            # fault-free runs stay byte-identical to pre-fault builds.
            ctx.metrics.attach_fault_stats(scenario.faults.stats)
        return scenario


#: Allowed keys per topology kind: the keywords of its fluent method, so
#: a typo'd key in a spec (e.g. a campaign axis path) fails loudly.
_TOPOLOGY_KEYS = {
    kind: set(inspect.signature(getattr(ScenarioBuilder, kind)).parameters)
    - {"self"}
    for kind in ("chain", "grid", "uniform", "uniform_density", "clustered",
                 "positions")
}


def make_node(ctx, name, position, router, config: NodeConfig) -> Node:
    """A host wired as every scenario host is: bootstrap, ``router(node)``
    as its router, and a DNS client.  ``router`` is a router class or
    any callable that builds one for the node."""
    node = Node(ctx, name, position, config=config)
    node.attach_component("bootstrap", BootstrapManager(node))
    node.attach_component("router", router(node))
    node.attach_component("dns_client", DNSClient(node))
    return node


def bootstrap_keywords(bootstrap: dict) -> dict:
    """The :meth:`Scenario.bootstrap_all` keywords of a run's
    ``bootstrap`` entry; refuses a key not in :data:`BOOTSTRAP_KEYS`.
    A key the entry leaves out keeps ``bootstrap_all``'s default."""
    _check_keys("bootstrap", bootstrap, BOOTSTRAP_KEYS)
    return {key: float(value) for key, value in bootstrap.items()}


#: The ``bootstrap`` entry of a campaign run that names none:
#: ``bootstrap_all``'s own defaults.
DEFAULT_BOOTSTRAP = {
    key: inspect.signature(Scenario.bootstrap_all).parameters[key].default
    for key in sorted(BOOTSTRAP_KEYS)
}
