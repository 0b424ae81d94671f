"""The four benchmark workloads, generated from one seed.

Each workload function builds its inputs from ``seed`` alone, times the
program's set-up and run phases, and returns one repetition's result:

``phases``
    monotonic times at which set-up (``ScenarioBuilder.build()``, or
    campaign spec parse + expansion) began and ended, and at which
    everything after it ended -- ``run.py`` turns them into ``setup_s``
    and ``wall_s`` with the host-speed probe (see ``probe.py``);
``sim``
    simulated metrics, exact for a given seed;
``ops``
    operations attempted and failed, counted by the benchmark itself;
``checks``
    named invariants (True = held), read through the public API;
``digest``
    SHA-256 of the flat simulated summary plus the benchmark's own
    outcomes -- identical across repetitions and between traced and
    untraced runs of one seed;
``pool_hits``
    key pairs the process-wide pool served instead of generating (0 in
    a fresh interpreter, which is how users pay for keygen).

Traffic is open loop in simulated time: every packet of a flow is due
at a fixed instant, sent from the due instant if its source can send,
and counted as failed otherwise.  The program never decides how much
load it is offered.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.adversary.blackhole import BlackholeRouter
from repro.campaign import runner as campaign_runner
from repro.campaign.spec import CampaignSpec
from repro.crypto.keys import DEFAULT_KEYPAIR_POOL
from repro.messages.base import Message, MessageMeta, Reader, Writer
from repro.messages.codec import register_message_type
from repro.metrics.collector import percentiles
from repro.scenarios import ScenarioBuilder
from repro.sim.rng import SimRNG

RADIO_RANGE = 250.0


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def placement(seed: int, n: int, side: float) -> tuple[np.ndarray, tuple]:
    """Stratified uniform placement of ``n`` hosts in a ``side`` square.

    The square is cut into a grid of about ``n`` cells; ``n`` of them,
    drawn from the seed, hold one host each at a uniform point.  Density
    stays uniform, but the amount of flood work varies far less from
    seed to seed than with independent points, which keeps host times
    comparable across seeds.

    Hosts are listed in the order their cells were drawn, so they join
    in an order unrelated to where they sit, as with ``uniform_density``
    (whose points are independent draws).  The DNS server sits at the
    centre.
    """
    rng = SimRNG(seed, "bench/placement")
    k = math.ceil(math.sqrt(n))
    cells = np.array(rng.sample(range(k * k), n))
    cell = side / k
    offsets = np.column_stack([rng.uniform_array(0.0, cell, n),
                               rng.uniform_array(0.0, cell, n)])
    pts = np.column_stack([cells % k, cells // k]) * cell + offsets
    return pts, (side / 2.0, side / 2.0)


def side_for_density(n: int, density: float) -> float:
    """Square side giving ``density`` expected neighbours per host."""
    return math.sqrt(n * math.pi * RADIO_RANGE ** 2 / density)


def host_name(i: int) -> str:
    return f"host-{i}.manet"


# ---------------------------------------------------------------------------
# the benchmark's own traffic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchPayload(Message):
    """Application payload of a benchmark flow packet.

    Carrying ``(flow, n)`` lets the destination's application handler
    tell which due packet arrived, so one-way latency and delivery are
    counted from the benchmark's own flows only (the program's
    aggregate ``pdr`` also counts black-hole probe deliveries).
    """

    META: ClassVar[MessageMeta] = MessageMeta(
        type_id=200,
        name="BENCH",
        function="benchmark CBR payload",
        parameters="(flow, n, pad)",
    )

    flow: int
    n: int
    pad: bytes = b""

    def _encode_fields(self, w: Writer) -> None:
        w.u16(self.flow)
        w.u32(self.n)
        w.blob(self.pad)

    @classmethod
    def _decode_fields(cls, r: Reader) -> "BenchPayload":
        return cls(flow=r.u16(), n=r.u32(), pad=r.blob())


register_message_type(BenchPayload)


@dataclass
class Flow:
    src: object
    dst: object
    dst_name: str
    lookup_at: float
    first_due: float
    addr: object = None  # the destination's address, once resolved


class Traffic:
    """Open-loop CBR flows that resolve their destination through DNS.

    Every flow first resolves its destination's registered name at
    ``lookup_at``; packet ``n`` is due at ``first_due + n * interval``.
    A packet is one operation: it succeeds when the destination's
    signed ACK confirms it.  A packet whose source is down (not
    configured) or whose destination is still unresolved at its due
    time is a failed send -- counted, never raised, unlike
    ``CBRTraffic``, which aborts the whole run.
    """

    def __init__(self, scenario, flows: list[Flow], interval: float,
                 count: int, payload_size: int):
        self.sim = scenario.sim
        self.flows = flows
        self.interval = interval
        self.count = count
        self.pad = bytes(max(0, payload_size - 8))
        n = len(flows) * count
        self.state = ["due"] * n  # due | unsent | sent | acked | failed
        self.arrived = [math.nan] * n
        self.due = [f.first_due + k * interval for f in flows for k in range(count)]
        self.lookups_ok = 0
        self.lookups_failed = 0
        for host in {f.dst for f in flows}:
            host.register_app_handler(BenchPayload, self._on_arrival)

    def arm(self) -> None:
        self.t0 = self.sim.now
        for i, flow in enumerate(self.flows):
            self.sim.schedule(flow.lookup_at, self._lookup, i)
            for k in range(self.count):
                self.sim.schedule(flow.first_due + k * self.interval,
                                  self._send, i, k)

    @property
    def last_due(self) -> float:
        return max(self.due)

    def _lookup(self, i: int) -> None:
        flow = self.flows[i]
        if not flow.src.configured:
            self._lookup_done(i, None)
            return
        flow.src.dns_client.resolve(
            flow.dst_name, lambda ip, i=i: self._lookup_done(i, ip),
            timeout=2.0,
        )

    def _lookup_done(self, i: int, ip) -> None:
        flow = self.flows[i]
        # Success = answered with the owner's *current* address.
        if ip is not None and flow.dst.configured and ip == flow.dst.ip:
            flow.addr = ip
            self.lookups_ok += 1
        else:
            self.lookups_failed += 1

    def _send(self, i: int, k: int) -> None:
        flow = self.flows[i]
        pid = i * self.count + k
        if flow.addr is None or not flow.src.configured:
            self.state[pid] = "unsent"
            return
        self.state[pid] = "sent"
        payload = BenchPayload(flow=i, n=k, pad=self.pad).wire_bytes()
        flow.src.router.send_data(
            flow.addr, payload,
            on_delivered=lambda pid=pid: self._acked(pid),
            on_failed=lambda pid=pid: self._failed(pid),
        )

    def _acked(self, pid: int) -> None:
        self.state[pid] = "acked"

    def _failed(self, pid: int) -> None:
        if self.state[pid] == "sent":
            self.state[pid] = "failed"

    def _on_arrival(self, msg: BenchPayload, packet) -> None:
        pid = msg.flow * self.count + msg.n
        if math.isnan(self.arrived[pid]):
            self.arrived[pid] = self.sim.now

    def outcome(self) -> dict:
        tried = len(self.state)
        acked = self.state.count("acked")
        lat = [(a - self.t0 - d) * 1e3 for a, d in zip(self.arrived, self.due)
               if not math.isnan(a)]
        p50, p99 = percentiles(lat, (50.0, 99.0))
        return {
            "pdr": acked / tried,
            "latency_p50_ms": p50,
            "latency_p99_ms": p99,
            "latency_samples": len(lat),
            "packets_tried": tried,
            "packets_acked": acked,
            "packets_unsent": self.state.count("unsent"),
            "lookups_ok": self.lookups_ok,
            "lookups_failed": self.lookups_failed,
        }


def pick_flows(seed: int, hosts: list, names: dict, n_flows: int,
               lookup_window: tuple, start_gap: float,
               across: tuple | None = None) -> list[Flow]:
    """Distinct-source flows with seeded endpoints and lookup times.

    With ``across=centre`` each destination is drawn from the three
    hosts nearest the source's mirror image through ``centre``, so the
    flow crosses the middle of the network (where the black hole is).
    """
    rng = SimRNG(seed, "bench/flows")
    sources = rng.sample(list(range(len(hosts))), n_flows)
    pos = np.array([h.position for h in hosts])
    flows = []
    for s in sources:
        if across is None:
            d = rng.randint(0, len(hosts) - 2)
            d = d + 1 if d >= s else d
        else:
            mirror = 2.0 * np.asarray(across) - pos[s]
            dist = np.hypot(*(pos - mirror).T)
            dist[s] = np.inf
            d = int(rng.choice(np.argsort(dist, kind="stable")[:3].tolist()))
        at = rng.uniform(*lookup_window)
        flows.append(Flow(src=hosts[s], dst=hosts[d],
                          dst_name=names[hosts[d].name], lookup_at=at,
                          first_due=at + start_gap))
    return flows


# ---------------------------------------------------------------------------
# checks and digests
# ---------------------------------------------------------------------------

def join_outcomes(scenario, honest: list) -> tuple[int, int, dict]:
    """Joins attempted/failed, plus the address and DNS invariants.

    A join succeeds when the host is configured, its address is unique
    among honest hosts, and its name is bound to it at the DNS.
    """
    table = scenario.dns_server.table
    ips = [h.ip for h in honest if h.configured]
    unique = len(ips) == len(set(ips))
    failed = 0
    bindings_ok = True
    for h in honest:
        rec = table.lookup(h.domain_name) if h.domain_name else None
        if rec is not None and h.configured and rec.ip != h.ip:
            bindings_ok = False  # a live owner's name points elsewhere
        ok = (h.configured and ips.count(h.ip) == 1 and rec is not None
              and rec.ip == h.ip)
        failed += not ok
    checks = {"unique_addresses": unique, "dns_binds_owner": bindings_ok}
    return len(honest), failed, checks


def time_to_address(scenario, honest: list) -> dict:
    times = [scenario.metrics.dad_time[h.name] for h in honest
             if h.name in scenario.metrics.dad_time]
    p50, p90 = percentiles(times, (50.0, 90.0))
    return {"time_to_address_p50_s": p50, "time_to_address_p90_s": p90,
            "time_to_address_samples": len(times)}


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def flat_summary(scenario) -> dict:
    """The summary's flat simulated fields (host-time blocks left out)."""
    return {k: v for k, v in scenario.metrics.summary().items()
            if not isinstance(v, dict)}


def _result(phases, sim, attempted, failed, checks, digest_of):
    return {
        "phases": phases,
        "sim": sim,
        "ops": {"attempted": attempted, "failed": failed},
        "checks": checks,
        "digest": digest(digest_of),
        "pool_hits": DEFAULT_KEYPAIR_POOL.hits,
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def formation(seed: int) -> dict:
    """~100 static simsig hosts bootstrap and register names; no data."""
    n = 100
    pts, centre = placement(seed, n, side_for_density(n, 10.0))
    names = {f"n{i}": host_name(i) for i in range(n)}
    t0 = time.monotonic()
    scenario = ScenarioBuilder(seed=seed).positions(pts).with_dns(centre).build()
    t1 = time.monotonic()
    scenario.bootstrap_all(names=names)
    t2 = time.monotonic()
    honest = scenario.hosts
    attempted, failed, checks = join_outcomes(scenario, honest)
    sim = {"control_bytes_per_node": scenario.metrics.control_bytes() / n,
           **time_to_address(scenario, honest)}
    return _result((t0, t1, t2), sim, attempted, failed, checks,
                   {"summary": flat_summary(scenario), "sim": sim})


class RecordingBlackhole(BlackholeRouter):
    """The program's black hole, unchanged, noting whose data it dropped.

    A source whose packet the black hole dropped had it on a route: the
    credit check is made for exactly these sources.
    """

    def __init__(self, node, **kwargs):
        super().__init__(node, **kwargs)
        self.victims: dict = {}  # source address -> packets dropped

    def _forward_data(self, msg) -> None:
        dropped = self.packets_dropped
        super()._forward_data(msg)
        if self.packets_dropped > dropped:
            self.victims[msg.sip] = self.victims.get(msg.sip, 0) + 1


def blackhole_credit(hosts: list, bh) -> dict:
    """How each source whose data the black hole dropped ranks it.

    ``victims`` counts those sources (each had the black hole on a
    route); ``scored_by`` those whose credit ledger lists it, which
    only a probe's penalty does (a victim that lost one packet and then
    routed around the black hole never probes, and ranks it at the
    initial credit); ``ranked_above_honest`` those that give it more
    credit than some honest relay they scored (must be 0);
    ``strictly_lowest`` those where it ends strictly below every honest
    relay they scored.  The gap between ``strictly_lowest`` and
    ``victims`` is a known defect (see NOTES.md): probing penalizes the
    honest hop behind the black hole exactly as hard as the black hole.
    """
    victims = [h for h in hosts if h.ip in bh.router.victims]
    scored = above = lowest = 0
    for host in victims:
        credits = host.router.credits
        known = credits.known_hosts()
        scored += bh.ip in known
        bh_credit = credits.credit(bh.ip)
        honest = [credits.credit(h) for h in known if h != bh.ip]
        above += any(bh_credit > c for c in honest)
        lowest += all(bh_credit < c for c in honest)
    return {"blackhole_victims": len(victims), "blackhole_scored_by": scored,
            "blackhole_ranked_above_honest": above,
            "blackhole_strictly_lowest": lowest}


def secure_routing(seed: int) -> dict:
    """~60 static RSA hosts, named; DNS-resolved CBR past a black hole."""
    n = 60
    pts, centre = placement(seed, n, side_for_density(n, 10.0))
    # The black hole is the host nearest the centre (the DNS server
    # sits exactly there, so it is on many routes, DNS traffic included).
    bh_index = int(np.argmin(np.hypot(*(pts - np.asarray(centre)).T)))
    bh_name = f"n{bh_index}"
    names = {f"n{i}": host_name(i) for i in range(n) if i != bh_index}
    t0 = time.monotonic()
    scenario = (
        ScenarioBuilder(seed=seed)
        .positions(pts)
        .with_dns(centre)
        .config(crypto_backend="rsa")
        .router(RecordingBlackhole, node_name=bh_name)
        .build()
    )
    t1 = time.monotonic()
    scenario.bootstrap_all(names=names)
    honest = [h for h in scenario.hosts if h.name != bh_name]
    flows = pick_flows(seed, honest, names, n_flows=22, lookup_window=(0.0, 2.0),
                       start_gap=3.0, across=centre)
    traffic = Traffic(scenario, flows, interval=0.2, count=64, payload_size=64)
    traffic.arm()
    scenario.run(duration=traffic.last_due + 8.0)
    t2 = time.monotonic()
    bh = scenario.host(bh_name)
    j_att, j_fail, checks = join_outcomes(scenario, honest)
    out = traffic.outcome()
    credit = blackhole_credit(honest, bh)
    # The black hole dropped data, and probing caught it at least once.
    checks["blackhole_penalized"] = credit["blackhole_scored_by"] > 0
    checks["blackhole_never_ranked_above_honest"] = (
        credit["blackhole_ranked_above_honest"] == 0)
    summary = flat_summary(scenario)
    # The program's own pdr, beside the benchmark's: it counts probe
    # deliveries as data (a known defect, see NOTES.md).
    sim = {"control_bytes_per_node": scenario.metrics.control_bytes() / n,
           **out, "summary_pdr": summary["pdr"], **credit,
           "blackhole_dropped": bh.router.packets_dropped}
    attempted = j_att + len(flows) + out["packets_tried"]
    failed = j_fail + out["lookups_failed"] + out["packets_tried"] - out["packets_acked"]
    return _result((t0, t1, t2), sim, attempted, failed, checks,
                   {"summary": summary, "sim": sim})


def fault_plan(seed: int, n: int, pts: np.ndarray) -> dict:
    """Loss surge, crash + recovery, partition + heal, link flap.

    Targets come from the seed and are never steered away from flow
    endpoints: a crashed source shows up as failed sends.
    """
    rng = SimRNG(seed, "bench/faults")
    crash = rng.randint(0, n - 1)
    a = rng.randint(0, n - 1)
    d = np.hypot(*(pts - pts[a]).T)
    d[a] = np.inf
    b = int(np.argmin(d))
    return {"events": [
        {"kind": "loss_surge", "at": 2.0, "duration": 3.0, "loss": 0.3},
        {"kind": "crash", "at": 5.0, "node": crash, "recover_after": 6.0},
        {"kind": "partition", "at": 12.0, "duration": 4.0, "groups": 2},
        {"kind": "link_flap", "at": 18.0, "duration": 3.0, "a": a, "b": b},
    ]}


def mobile_faults(seed: int) -> dict:
    """50 moving simsig hosts under a seeded fault plan, with retries."""
    n = 50
    side = 1000.0  # random waypoint roams ScenarioBuilder's default area
    pts, centre = placement(seed, n, side)
    names = {f"n{i}": host_name(i) for i in range(n)}
    plan = fault_plan(seed, n, pts)
    t0 = time.monotonic()
    scenario = (
        ScenarioBuilder(seed=seed)
        .positions(pts)
        .with_dns(centre)
        .random_waypoint(speed=(1.0, 5.0), pause=5.0)
        .config(dns_query_retries=2, rreq_backoff=2.0)
        .faults(plan)
        .build()
    )
    t1 = time.monotonic()
    scenario.bootstrap_all(names=names)
    honest = scenario.hosts
    flows = pick_flows(seed, honest, names, n_flows=24, lookup_window=(0.0, 2.0),
                       start_gap=3.0)
    traffic = Traffic(scenario, flows, interval=0.3, count=70, payload_size=64)
    traffic.arm()
    scenario.run(duration=traffic.last_due + 8.0)
    t2 = time.monotonic()
    j_att, j_fail, checks = join_outcomes(scenario, honest)
    out = traffic.outcome()
    fstats = scenario.faults.stats()
    sim = {"control_bytes_per_node": scenario.metrics.control_bytes() / n,
           **out, "re_dad": fstats["re_dad_count"],
           "faults_injected": fstats["faults_injected"],
           "copies_suppressed": fstats["frames_suppressed"]}
    attempted = j_att + len(flows) + out["packets_tried"]
    failed = j_fail + out["lookups_failed"] + out["packets_tried"] - out["packets_acked"]
    return _result((t0, t1, t2), sim, attempted, failed, checks,
                   {"summary": flat_summary(scenario), "sim": sim})


def sweep_spec(seed: int) -> dict:
    """A ``reference-faults``-style matrix: router x loss x plan x reps.

    Each run samples its own flow pair from its run seed; the crash
    target comes from ``seed``.  Neither avoids the other, so a run
    whose source is the crashed host fails (``CBRTraffic`` raises).
    """
    rng = SimRNG(seed, "bench/campaign")
    crash = rng.randint(0, 3)
    groups = rng.sample([0, 1, 2, 3], 4)
    plan = {"events": [
        {"kind": "crash", "at": 1.0, "node": crash, "recover_after": 3.0},
        {"kind": "partition", "at": 6.0, "duration": 2.0,
         "members": [groups[:2], groups[2:]]},
    ]}
    return {
        "name": "bench-sweep",
        "seed": rng.randint(0, 2 ** 31 - 1),
        "replicates": 48,
        "base": {
            "topology": {"kind": "positions", "points": [
                [0.0, 0.0], [400.0, 0.0], [100.0, 150.0], [300.0, 150.0]]},
            "radio": {"range": RADIO_RANGE, "loss_rate": 0.0},
            "dns": {"position": [200.0, -400.0]},
        },
        "axes": {
            "router": ["secure", "plain"],
            "radio.loss_rate": [0.0, 0.1],
            "faults": [{"events": []}, plan],
        },
        "workload": {"kind": "cbr", "flows": 1, "interval": 1.0,
                     "count": 4, "payload_size": 64},
        "duration": 12.0,
        "timeout": 60.0,
    }


def campaign_sweep(seed: int, workers: int, root: str) -> dict:
    """Hundreds of tiny runs through ``run_campaign`` and its executor."""
    data = sweep_spec(seed)
    t0 = time.monotonic()
    spec = CampaignSpec.from_dict(data)
    runs = spec.expand()
    t1 = time.monotonic()
    os.makedirs(root, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="sweep-", dir=root)
    try:
        executor = "local" if workers > 1 else "inline"
        records = campaign_runner.run_campaign(
            spec, workers=workers, out_dir=out_dir, executor=executor)
        t2 = time.monotonic()
        with open(os.path.join(out_dir, "results.jsonl"), "rb") as fh:
            results_digest = hashlib.sha256(fh.read()).hexdigest()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    ok = [r for r in records if r["status"] == "ok"]
    sent = sum(r["summary"]["data_sent"] for r in ok)
    hosts = sum(r["summary"]["hosts"] for r in ok)
    sim = {
        "runs": len(records),
        "runs_failed": len(records) - len(ok),
        "control_bytes_per_node":
            sum(r["summary"]["control_bytes"] for r in ok) / hosts if hosts else 0.0,
        "acked_share": sum(r["summary"]["data_acked"] for r in ok) / sent if sent else 0.0,
    }
    checks = {"records_complete": len(records) == len(runs)}
    return _result((t0, t1, t2), sim, len(records), len(records) - len(ok),
                   checks, {"results": results_digest, "sim": sim})


def run(workload: str, seed: int, workers: int, tmp_root: str) -> dict:
    """One repetition of ``workload``; ``workers``/``tmp_root`` serve the sweep."""
    if workload == "campaign_sweep":
        return campaign_sweep(seed, workers, tmp_root)
    scenario_workloads = {"formation": formation, "secure_routing": secure_routing,
                          "mobile_faults": mobile_faults}
    return scenario_workloads[workload](seed)
