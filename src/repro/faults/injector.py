"""Seeded fault execution over a built scenario.

The :class:`FaultInjector` turns a validated :class:`~repro.faults.plan.
FaultPlan` into simulator events.  Everything it does is scheduled
through the scenario's :class:`~repro.sim.kernel.Simulator`, and every
random choice (seeded partition groups, surge and corruption draws)
comes from dedicated ``faults/*`` RNG streams, so:

* a fault run is byte-identical for a given seed across worker counts,
  batch sizes, medium index/vectorization choices, and resume points;
* a run whose plan has no events consumes nothing from any stream and
  is byte-identical to a run built before this subsystem existed.

Frame-level faults (partition, link flap, loss surge, corruption) go
through the medium's single ``fault_hook`` (see
:meth:`WirelessMedium.broadcast`); the injector installs the hook only
while at least one such fault window is open, so the medium stays on
its vectorized fast path whenever the network is healthy.

Node-level faults (crash/recover) model *full state loss*: the radio is
disabled, every protocol component's ``reset_state()`` runs (timers
cancelled, route caches and pending tables dropped), and the node's
identity/neighbour cache is wiped -- recovery is a cold boot through
secure DAD, re-requesting the name the node held when it died.
"""

from __future__ import annotations

import dataclasses
from dataclasses import replace as dc_replace

from repro.faults.plan import FaultPlan

#: Component keys reset (in this order) when a node crashes.
_RESETTABLE = ("router", "dns_client", "bootstrap")


class FaultInjector:
    """Schedules a :class:`FaultPlan` onto a built scenario.

    Construction is side-effect free apart from creating the ``faults/*``
    RNG streams (stream creation never perturbs other streams).  Call
    :meth:`arm` -- :meth:`Scenario.bootstrap_all` does it automatically
    after the settle run -- to schedule the plan's events relative to
    the current simulation time.
    """

    def __init__(self, scenario, plan: FaultPlan):
        self.scenario = scenario
        self.sim = scenario.sim
        self.medium = scenario.medium
        self.plan = plan if isinstance(plan, FaultPlan) else FaultPlan.from_spec(plan)
        self.armed = False
        self._armed_at = 0.0
        # Dedicated streams: fault randomness must never perturb
        # phy/loss or any protocol stream (the faults-off byte-identity
        # contract), and must itself be independent of execution strategy.
        self._partition_rng = self.sim.rng("faults/partition")
        self._loss_rng = self.sim.rng("faults/loss")
        self._corrupt_rng = self.sim.rng("faults/corrupt")
        # Open fault windows (drive the medium hook's behaviour).
        self._groups: dict[int, int] | None = None
        self._blocked: set[frozenset] = set()
        self._surges: list[float] = []
        self._corrupts: list[float] = []
        # Per-node downtime tracking for the availability column.
        self._down_since: dict[str, float] = {}
        self._downtime = 0.0
        self._saved_names: dict[str, str] = {}
        # Counters surfaced through stats().
        self.faults_injected = 0
        self.crashes = 0
        self.recoveries = 0
        self.re_dad_count = 0
        self.frames_corrupted = 0
        self.recovery_times: list[float] = []

    # -- scheduling --------------------------------------------------------
    def arm(self) -> None:
        """Schedule every plan event, ``at`` seconds from *now*."""
        if self.armed:
            raise RuntimeError("fault plan already armed")
        self.armed = True
        self._armed_at = self.sim.now
        handlers = {
            "crash": self._crash,
            "link_flap": self._flap_down,
            "partition": self._partition,
            "loss_surge": self._surge_on,
            "corrupt": self._corrupt_on,
        }
        for event in self.plan.events:
            self.sim.schedule(float(event["at"]), handlers[event["kind"]], event)

    def _resolve_host(self, ref):
        """A host reference: index into ``hosts`` or a node name."""
        if isinstance(ref, bool):
            raise ValueError(f"bad host reference {ref!r}")
        if isinstance(ref, int):
            return self.scenario.hosts[ref]
        return self.scenario.host(ref)

    def _note(self, node_name: str, text: str) -> None:
        self.scenario.ctx.trace.record(
            self.sim.now, node_name, "note", "FAULT", text
        )

    # -- crash / recover ---------------------------------------------------
    def _crash(self, event: dict) -> None:
        node = self._resolve_host(event["node"])
        self.faults_injected += 1
        self.crashes += 1
        self._note(node.name, "crash: power off, all soft state lost")
        # The name it will re-request on recovery: whatever it holds now,
        # or (if it died mid-registration) whatever it was asking for.
        boot = node.bootstrap
        requested = getattr(boot, "requested_name", "") if boot else ""
        self._saved_names[node.name] = node.domain_name or requested or ""
        self._down_since[node.name] = self.sim.now
        self.medium.set_enabled(node.link_id, False)
        for key in _RESETTABLE:
            comp = node.component(key)
            reset = getattr(comp, "reset_state", None)
            if reset is not None:
                reset()
        node.reset_soft_state()
        recover_after = event.get("recover_after")
        if recover_after is not None:
            self.sim.schedule(float(recover_after), self._recover, node.name)

    def _recover(self, name: str) -> None:
        node = self.scenario.host(name)
        self.faults_injected += 1
        self.recoveries += 1
        down_since = self._down_since.pop(name, None)
        if down_since is not None:
            self._downtime += self.sim.now - down_since
        self.medium.set_enabled(node.link_id, True)
        self._note(name, "recover: cold boot, re-running secure DAD")
        recovered_at = self.sim.now
        callbacks = node.bootstrap.on_configured

        def _recovery_done(_node, _elapsed=None):
            self.recovery_times.append(self.sim.now - recovered_at)
            callbacks.remove(_recovery_done)

        callbacks.append(_recovery_done)
        self.re_dad_count += 1
        node.bootstrap.start(self._saved_names.pop(name, ""))

    # -- link flap ---------------------------------------------------------
    def _flap_down(self, event: dict) -> None:
        self.faults_injected += 1
        a = self._resolve_host(event["a"])
        b = self._resolve_host(event["b"])
        pair = frozenset((a.link_id, b.link_id))
        self._note(a.name, f"link flap: {a.name}<->{b.name} blocked")
        self._blocked.add(pair)
        self._sync_hook()
        self.sim.schedule(float(event["duration"]), self._flap_up, pair)

    def _flap_up(self, pair: frozenset) -> None:
        self._blocked.discard(pair)
        self._sync_hook()

    # -- partition / heal --------------------------------------------------
    def _partition(self, event: dict) -> None:
        self.faults_injected += 1
        members = event.get("members")
        assignment: dict[int, int] = {}
        if members is not None:
            # Explicit groups; unlisted radios (DNS server, adversaries)
            # ride with group 0.
            for link_id in sorted(self.medium.link_ids):
                assignment[link_id] = 0
            for group, refs in enumerate(members):
                for ref in refs:
                    assignment[self._resolve_host(ref).link_id] = group
        else:
            # Seeded assignment over ALL attached radios in ascending
            # link-id order: one draw per radio, execution-order free.
            groups = int(event.get("groups", 2))
            for link_id in sorted(self.medium.link_ids):
                assignment[link_id] = self._partition_rng.randint(0, groups - 1)
        self._groups = assignment
        self._sync_hook()
        sizes: dict[int, int] = {}
        for group in assignment.values():
            sizes[group] = sizes.get(group, 0) + 1
        self._note("faults", f"partition: group sizes {sorted(sizes.values())}")
        self.sim.schedule(float(event["duration"]), self._heal, event)

    def _heal(self, event: dict) -> None:
        self.faults_injected += 1
        self._groups = None
        self._sync_hook()
        self._note("faults", "partition healed")
        if not event.get("reprobe", True):
            return
        # Optimistic re-DAD on merge: while split, two nodes may have
        # configured colliding addresses without ever hearing each other,
        # so every configured host re-probes its address (staggered to
        # model independent merge detection, and to keep the DAD storm
        # from being one synchronized burst).
        stagger = float(event.get("reprobe_stagger", 0.05))
        position = 0
        for node in self.scenario.hosts:
            boot = node.bootstrap
            if boot is not None and boot.state == "configured":
                self.sim.schedule(position * stagger, self._reprobe, node.name)
                position += 1

    def _reprobe(self, name: str) -> None:
        node = self.scenario.host(name)
        boot = node.bootstrap
        if boot is None or boot.state != "configured":
            return  # crashed (or already re-probing) since heal was scheduled
        self.re_dad_count += 1
        boot.reprobe()

    # -- loss surge / corruption ------------------------------------------
    def _surge_on(self, event: dict) -> None:
        self.faults_injected += 1
        prob = float(event["loss"])
        self._note("faults", f"loss surge: +{prob} for {event['duration']}s")
        self._surges.append(prob)
        self._sync_hook()
        self.sim.schedule(float(event["duration"]), self._surge_off, prob)

    def _surge_off(self, prob: float) -> None:
        self._surges.remove(prob)
        self._sync_hook()

    def _corrupt_on(self, event: dict) -> None:
        self.faults_injected += 1
        rate = float(event["rate"])
        self._note("faults", f"corruption: rate {rate} for {event['duration']}s")
        self._corrupts.append(rate)
        self._sync_hook()
        self.sim.schedule(float(event["duration"]), self._corrupt_off, rate)

    def _corrupt_off(self, rate: float) -> None:
        self._corrupts.remove(rate)
        self._sync_hook()

    # -- the medium hook ---------------------------------------------------
    def _sync_hook(self) -> None:
        """Install the hook iff some frame-level fault window is open.

        Keeping the hook off while idle keeps the medium on its
        vectorized broadcast path (and the hook's absence is what makes
        an event-free plan byte-identical to no plan at all).
        """
        active = (
            self._groups is not None
            or bool(self._blocked)
            or bool(self._surges)
            or bool(self._corrupts)
        )
        self.medium.fault_hook = self._hook if active else None

    def _hook(self, src: int, dst: int, frame):
        """Per-(frame, receiver) fault filter; see WirelessMedium docs.

        Runs before the receiver's ``phy/loss`` draw, in the same
        ascending-receiver order, drawing from ``faults/*`` streams only
        -- deterministic however the run is executed.
        """
        groups = self._groups
        if groups is not None:
            gs, gd = groups.get(src), groups.get(dst)
            if gs is not None and gd is not None and gs != gd:
                return None
        if self._blocked and frozenset((src, dst)) in self._blocked:
            return None
        for prob in self._surges:
            if self._loss_rng.random() < prob:
                return None
        for rate in self._corrupts:
            if self._corrupt_rng.random() < rate:
                frame = self._corrupt_frame(frame)
                if frame is None:
                    return None
        return frame

    def _corrupt_frame(self, frame):
        """Flip the payload's signature bits in flight.

        Messages name their proof fields ``signature``,
        ``source_signature``, etc.; the first non-empty one (field
        declaration order -- deterministic) gets its bits inverted, so
        the receiver's crypto layer must reject the message (that is the
        point).  Payloads carrying no signature have no field we can
        flip without breaking codec invariants, so the frame is dropped
        instead (indistinguishable from loss, as on real radio).
        """
        msg = frame.payload
        if dataclasses.is_dataclass(msg):
            for f in dataclasses.fields(msg):
                value = getattr(msg, f.name)
                if f.name.endswith("signature") and isinstance(value, bytes) \
                        and value:
                    self.frames_corrupted += 1
                    flipped = bytes(b ^ 0xFF for b in value)
                    return dc_replace(
                        frame, payload=msg.replace(**{f.name: flipped})
                    )
        return None

    # -- reporting ---------------------------------------------------------
    def stats(self) -> dict:
        """Flat numeric dict merged into ``MetricsCollector.summary()``.

        ``availability`` is host-seconds up / host-seconds total since
        the plan was armed; ``recovery_time_*`` covers completed
        crash->recover->re-configured cycles.
        """
        now = self.sim.now
        window = now - self._armed_at
        downtime = self._downtime + sum(
            now - since for since in self._down_since.values()
        )
        host_seconds = len(self.scenario.hosts) * window
        availability = 1.0 - downtime / host_seconds if host_seconds > 0 else 1.0
        rec = self.recovery_times
        return {
            "faults_injected": self.faults_injected,
            "fault_crashes": self.crashes,
            "fault_recoveries": self.recoveries,
            "re_dad_count": self.re_dad_count,
            "recovery_time_mean": sum(rec) / len(rec) if rec else 0.0,
            "recovery_time_max": max(rec) if rec else 0.0,
            "availability": availability,
            "frames_suppressed": self.medium.suppressed_frames,
            "frames_corrupted": self.frames_corrupted,
        }
