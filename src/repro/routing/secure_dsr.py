"""Secure DSR -- the paper's routing protocol (Sections 3.3-3.4).

One class implements the full DSR skeleton; three class flags carve out
the security ablation levels used by the experiments:

* ``SIGN`` -- originators sign RREQ/RREP/CREP/RERR/ACK and hops sign
  their SRR entries;
* ``VERIFY_ENDPOINTS`` -- S verifies the RREP/CREP/ACK/RERR issuer and
  D verifies the RREQ source;
* ``VERIFY_HOPS`` -- D additionally verifies every SRR entry (the
  paper's contribution beyond BSAR);
* ``USE_CREDIT`` -- the Section 3.4 credit machinery is active.

:class:`SecureDSRRouter` enables everything;
:class:`~repro.routing.dsr.PlainDSRRouter` and
:class:`~repro.routing.bsar_like.EndpointOnlyRouter` downgrade flags.

DNS anycast exception: the well-known DNS addresses are not CGAs, so
when the destination of a discovery is one of them, RREP/CREP/ACK
verification uses the pre-distributed DNS public key instead of the CGA
check -- the paper's trust model for its single piece of infrastructure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.bootstrap.verifier import IdentityCheck, verify_identity, verify_identity_batch
from repro.core.node import Node
from repro.credit.manager import CreditManager
from repro.credit.policy import RoutePolicy, select_route
from repro.ipv6.address import IPv6Address
from repro.ipv6.prefixes import DNS_ANYCAST_ADDRESSES
from repro.messages import signing
from repro.messages.data import AckPacket, DataPacket
from repro.messages.routing import CREP, RERR, RREP, RREQ, SRREntry
from repro.phy.medium import Frame
from repro.sim.process import Timer

Route = tuple[IPv6Address, ...]

from repro.routing.route_cache import CachedRoute, RouteCache


@dataclass
class PendingDiscovery:
    """An outstanding route discovery at the source."""

    dst: IPv6Address
    seq: int
    started_at: float
    retries: int = 0
    timer: Timer | None = None


@dataclass
class PendingPacket:
    """A data packet awaiting its end-to-end ACK at the source."""

    packet: DataPacket
    route: Route
    retries: int = 0
    timer: Timer | None = None
    is_probe: bool = False
    on_delivered: Callable[[], None] | None = None
    on_failed: Callable[[], None] | None = None


@dataclass
class ProbeSession:
    """One black-hole probe sweep over a failing route."""

    route: Route
    dst: IPv6Address
    acked: set[int] = field(default_factory=set)  # indices into route
    outstanding: int = 0


class SecureDSRRouter:
    """The paper's secure on-demand source-routing protocol."""

    SIGN = True
    #: Whether intermediates sign their SRR entries (BSAR-like keeps
    #: endpoint signatures but appends unsigned hop entries).
    SIGN_HOPS = True
    VERIFY_ENDPOINTS = True
    VERIFY_HOPS = True
    USE_CREDIT = True

    def __init__(self, node: Node):
        self.node = node
        self.cfg = node.config
        self._rng = node.rng("router")
        self.cache = RouteCache(self.cfg.route_cache_capacity, self.cfg.route_cache_ttl)
        self.credits = CreditManager(
            initial=self.cfg.credit_initial,
            reward=self.cfg.credit_reward,
            penalty=self.cfg.credit_penalty,
            rerr_window=self.cfg.rerr_window,
            rerr_threshold=self.cfg.rerr_suspicion_threshold,
        )
        self.policy = RoutePolicy(
            hostile_mode=self.cfg.hostile_mode,
            metric=self.cfg.credit_route_metric,
        )
        self._seen_rreqs: set[tuple[IPv6Address, int]] = set()
        #: (sip, seq) -> replies sent, for bounded multi-copy answering.
        self._rreq_replies: dict[tuple[IPv6Address, int], int] = {}
        self._pending_discovery: dict[IPv6Address, PendingDiscovery] = {}
        #: dst -> (seq, expiry): lets late RREPs from alternate paths be
        #: accepted for a grace window after the first reply completed
        #: the discovery, so the cache learns alternate routes.
        self._recent_discoveries: dict[IPv6Address, tuple[int, float]] = {}
        self._send_queue: dict[IPv6Address, list] = {}
        self._pending_acks: dict[tuple[IPv6Address, int], PendingPacket] = {}
        #: dst -> consecutive silent (un-ACKed, un-RERRed) failures.  Keyed
        #: by destination, not by exact route: retries rotate among route
        #: variants through the same attacker, and per-route counters would
        #: stretch the detection window by the number of variants.
        self._route_failures: dict[IPv6Address, int] = {}
        self._probes: dict[IPv6Address, ProbeSession] = {}
        self._delivered_seqs: set[tuple[IPv6Address, int]] = set()

        node.register_handler(RREQ, self._on_rreq)
        node.register_handler(RREP, self._on_rrep)
        node.register_handler(CREP, self._on_crep)
        node.register_handler(RERR, self._on_rerr)
        node.register_handler(DataPacket, self._on_data)
        node.register_handler(AckPacket, self._on_ack)

    def reset_state(self) -> None:
        """Crash support: drop all routing soft state (cold boot).

        Cancels pending discovery/ACK timers without firing their
        callbacks, clears every table (route cache, dedup sets, send
        queue, probe sessions) and resets credit history -- a rebooted
        host trusts nobody any more than a fresh one does.  Survivors'
        state is untouched: their routes *through* the crashed node die
        the normal way, via MAC failure -> RERR -> cache invalidation.
        """
        for disc in self._pending_discovery.values():
            if disc.timer:
                disc.timer.cancel()
        for pending in self._pending_acks.values():
            if pending.timer:
                pending.timer.cancel()
        self._pending_discovery.clear()
        self._pending_acks.clear()
        self._seen_rreqs.clear()
        self._rreq_replies.clear()
        self._recent_discoveries.clear()
        self._send_queue.clear()
        self._route_failures.clear()
        self._probes.clear()
        self._delivered_seqs.clear()
        self.cache.clear()
        self.credits = CreditManager(
            initial=self.cfg.credit_initial,
            reward=self.cfg.credit_reward,
            penalty=self.cfg.credit_penalty,
            rerr_window=self.cfg.rerr_window,
            rerr_threshold=self.cfg.rerr_suspicion_threshold,
        )

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------
    def _sign(self, payload: bytes) -> bytes:
        return self.node.sign(payload) if self.SIGN else b""

    def _own_rn(self) -> int:
        return self.node.cga_params.rn if self.node.cga_params else 0

    def _is_dns_dest(self, ip: IPv6Address) -> bool:
        return ip in DNS_ANYCAST_ADDRESSES

    def _check_identity(
        self,
        ip: IPv6Address,
        public_key,
        rn: int,
        sig: bytes,
        payload: bytes,
    ) -> IdentityCheck:
        """CGA + signature check, with the DNS-anycast exception."""
        if self._is_dns_dest(ip):
            dns_pk = self.node.ctx.dns_public_key
            if dns_pk is None:
                return IdentityCheck(False, "no_dns_key")
            if not self.node.verify(dns_pk, payload, sig):
                return IdentityCheck(False, "bad_signature")
            return IdentityCheck(True)
        return verify_identity(
            self.node.backend, ip, public_key, rn, sig, payload,
            verify_fn=self.node.verify,
        )

    # ------------------------------------------------------------------
    # public API: send data
    # ------------------------------------------------------------------
    def send_data(
        self,
        dst: IPv6Address,
        payload: bytes,
        on_delivered: Callable[[], None] | None = None,
        on_failed: Callable[[], None] | None = None,
    ) -> int:
        """Send ``payload`` to ``dst``, discovering a route if needed.

        Returns the packet sequence number.  Delivery is confirmed by the
        destination's signed end-to-end ACK (which also pays out credit).
        """
        if not self.node.configured:
            raise RuntimeError(f"{self.node.name}: cannot send before bootstrap")
        seq = self.node.next_seq()
        packet = DataPacket(
            sip=self.node.ip,
            dip=dst,
            seq=seq,
            route=(),  # filled at transmission time from the cache
            payload=payload,
            sent_at=self.node.sim.now,
            hop_limit=self.cfg.hop_limit,
        )
        self.node.ctx.metrics.on_data_sent(self.node.ip, dst)
        self._dispatch_packet(packet, on_delivered, on_failed, retries=0)
        return seq

    def _dispatch_packet(
        self,
        packet: DataPacket,
        on_delivered,
        on_failed,
        retries: int,
        exclude_route: Route | None = None,
    ) -> None:
        """Transmit now if a route exists, else queue behind a discovery."""
        candidates = [
            e.route for e in self.cache.routes_to(packet.dip, self.node.sim.now)
            if e.route != exclude_route
        ]
        route = select_route(self.credits, candidates, self.policy)
        if route is None:
            self._send_queue.setdefault(packet.dip, []).append(
                (packet, on_delivered, on_failed, retries)
            )
            self.discover(packet.dip)
            return
        self._transmit(packet.replace(route=route, sent_at=self.node.sim.now),
                       on_delivered, on_failed, retries)

    def _transmit(self, packet: DataPacket, on_delivered, on_failed, retries) -> None:
        pending = PendingPacket(
            packet=packet,
            route=packet.route,
            retries=retries,
            on_delivered=on_delivered,
            on_failed=on_failed,
        )
        key = (packet.dip, packet.seq)
        self._pending_acks[key] = pending
        pending.timer = Timer(self.node.sim, self._ack_timeout, key)
        pending.timer.start(self.cfg.ack_timeout)
        next_hop = packet.route[0] if packet.route else packet.dip
        self.node.unicast_ip(
            next_hop, packet,
            on_fail=lambda: self._local_link_failure(key, next_hop),
        )

    # ------------------------------------------------------------------
    # route discovery (source side)
    # ------------------------------------------------------------------
    def discover(self, dst: IPv6Address) -> None:
        """Flood an RREQ for ``dst`` unless one is already outstanding."""
        if dst in self._pending_discovery:
            return
        seq = self.node.next_seq()
        disc = PendingDiscovery(dst=dst, seq=seq, started_at=self.node.sim.now)
        disc.timer = Timer(self.node.sim, self._discovery_timeout, dst)
        self._pending_discovery[dst] = disc
        self.node.ctx.metrics.on_discovery_started()
        self._flood_rreq(disc)

    def _flood_rreq(self, disc: PendingDiscovery) -> None:
        sig = self._sign(signing.rreq_source_payload(self.node.ip, disc.seq))
        rreq = RREQ(
            sip=self.node.ip,
            dip=disc.dst,
            seq=disc.seq,
            srr=(),
            source_signature=sig,
            source_public_key=self.node.public_key,
            source_rn=self._own_rn(),
            hop_limit=self.cfg.hop_limit,
        )
        self._seen_rreqs.add((rreq.sip, rreq.seq))
        self.node.broadcast(rreq)
        # Retry n waits rreq_timeout * backoff**n; the default backoff of
        # 1.0 is float-exact, so historical runs are byte-identical.
        disc.timer.start(
            self.cfg.rreq_timeout * (self.cfg.rreq_backoff ** disc.retries)
        )

    def _discovery_timeout(self, dst: IPv6Address) -> None:
        disc = self._pending_discovery.get(dst)
        if disc is None:
            return
        disc.retries += 1
        if disc.retries <= self.cfg.rreq_max_retries:
            disc.seq = self.node.next_seq()  # fresh seq per round (anti-replay)
            self._flood_rreq(disc)
            return
        # Give up: fail everything queued for this destination.
        del self._pending_discovery[dst]
        for packet, _ok, fail, _r in self._send_queue.pop(dst, []):
            self.node.ctx.metrics.on_data_dropped(packet.sip, packet.dip)
            if fail:
                fail()

    def _expected_seq(self, dst: IPv6Address) -> int | None:
        """The seq a reply for ``dst`` must carry (live or recent discovery)."""
        disc = self._pending_discovery.get(dst)
        if disc is not None:
            return disc.seq
        recent = self._recent_discoveries.get(dst)
        if recent is not None and self.node.sim.now <= recent[1]:
            return recent[0]
        return None

    def _discovery_completed(self, dst: IPv6Address, via_crep: bool) -> None:
        disc = self._pending_discovery.pop(dst, None)
        if disc is None:
            return
        self._recent_discoveries[dst] = (
            disc.seq, self.node.sim.now + self.cfg.rreq_timeout
        )
        if disc.timer:
            disc.timer.cancel()
        latency = self.node.sim.now - disc.started_at
        self.node.ctx.metrics.on_discovery_succeeded(latency, via_crep=via_crep)
        # Hold queued packets for the collection window so replies over
        # alternate paths land in the cache before the route is chosen.
        window = self.cfg.rrep_collection_window
        if window > 0:
            self.node.sim.schedule(window, self._flush_queue, dst)
        else:
            self._flush_queue(dst)

    def _flush_queue(self, dst: IPv6Address) -> None:
        for packet, ok, fail, retries in self._send_queue.pop(dst, []):
            self._dispatch_packet(packet, ok, fail, retries)

    # ------------------------------------------------------------------
    # RREQ handling (intermediates + destination)
    # ------------------------------------------------------------------
    def _on_rreq(self, frame: Frame, msg: RREQ) -> None:
        if not self.node.configured:
            return
        key = (msg.sip, msg.seq)
        if msg.sip == self.node.ip:
            self._seen_rreqs.add(key)
            return

        if self.node.owns_address(msg.dip):
            # DSR destinations answer several copies of the same request:
            # each arrives over a different path, giving the source a
            # distinct candidate route for its credit-aware choice.
            replies = self._rreq_replies.get(key, 0)
            if replies < self.cfg.max_route_replies:
                self._rreq_replies[key] = replies + 1
                self._answer_as_destination(msg)
            return

        if key in self._seen_rreqs:
            return
        self._seen_rreqs.add(key)

        if self.cfg.enable_crep and self.SIGN:
            cached = self.cache.best_shareable(msg.dip, self.node.sim.now)
            if cached is not None and self._answer_from_cache(msg, cached):
                return

        self._relay_rreq(msg)

    def _relay_rreq(self, msg: RREQ) -> None:
        if msg.hop_limit <= 1:
            return
        if self.cfg.verify_at_intermediate and self.VERIFY_ENDPOINTS:
            check = self._check_identity(
                msg.sip, msg.source_public_key, msg.source_rn,
                msg.source_signature,
                signing.rreq_source_payload(msg.sip, msg.seq),
            )
            if not check:
                self.node.verdict(f"rreq.rejected.{check.reason}")
                return
        if self.SIGN and self.SIGN_HOPS:
            # Charged now; computed when D's check (or anything) reads it.
            entry = SRREntry.deferred(
                ip=self.node.ip,
                public_key=self.node.public_key,
                rn=self._own_rn(),
                signer=self.node.sign_on_read(
                    signing.srr_entry_payload(self.node.ip, msg.seq)
                ),
                signature_size=self.node.backend.signature_size(),
            )
        else:
            entry = SRREntry(
                ip=self.node.ip,
                signature=b"",
                public_key=self.node.public_key,
                rn=self._own_rn(),
            )
        relayed = msg.append_entry(entry)
        delay = self._rng.uniform(0.0, self.cfg.rebroadcast_jitter)
        self.node.sim.schedule(delay, self.node.broadcast, relayed)

    def _verify_rreq_as_destination(self, msg: RREQ) -> bool:
        """D's checks from Section 3.3: source identity, then every hop."""
        if self.VERIFY_ENDPOINTS:
            check = self._check_identity(
                msg.sip, msg.source_public_key, msg.source_rn,
                msg.source_signature,
                signing.rreq_source_payload(msg.sip, msg.seq),
            )
            if not check:
                self.node.verdict(f"rreq.rejected.source_{check.reason}")
                return False
        if self.VERIFY_HOPS:
            if self.cfg.crypto_batch_verify and len(msg.srr) > 1:
                # Fast path layer 2: the SRR entries arrive together, so
                # present them to the node's batch verifier in one pass
                # (verify_identity_batch documents why this is observably
                # identical to the sequential loop below).
                n_ok, reason = verify_identity_batch(
                    [
                        (
                            entry.ip, entry.public_key, entry.rn,
                            entry.signature,
                            signing.srr_entry_payload(entry.ip, msg.seq),
                        )
                        for entry in msg.srr
                    ],
                    self.node.verify_batch,
                )
                if reason:
                    self.node.verdict(f"rreq.rejected.hop_{reason}")
                    return False
            else:
                for entry in msg.srr:
                    check = verify_identity(
                        self.node.backend, entry.ip, entry.public_key, entry.rn,
                        entry.signature,
                        signing.srr_entry_payload(entry.ip, msg.seq),
                        verify_fn=self.node.verify,
                    )
                    if not check:
                        self.node.verdict(f"rreq.rejected.hop_{check.reason}")
                        return False
        self.node.verdict("rreq.accepted")
        return True

    def _answer_as_destination(self, msg: RREQ) -> None:
        if not self._verify_rreq_as_destination(msg):
            return
        route = msg.route_ips
        sig = self._sign(signing.rrep_payload(msg.sip, msg.seq, route))
        rrep = RREP(
            sip=msg.sip,
            dip=msg.dip,
            seq=msg.seq,
            route=route,
            signature=sig,
            public_key=self.node.public_key,
            rn=self._own_rn(),
            hop_limit=self.cfg.hop_limit,
        )
        next_hop = route[-1] if route else msg.sip
        # Answering for an alias (DNS anycast): claim the alias as the
        # link-layer source so relays learn the anycast -> link binding.
        claimed = msg.dip if msg.dip in self.node.aliases else None
        self.node.unicast_ip(next_hop, rrep, claimed_src=claimed)

    def _answer_from_cache(self, msg: RREQ, cached: CachedRoute) -> bool:
        """Reply with a CREP if the spliced route would be loop-free."""
        fresh_route = msg.route_ips  # hops S' -> us, recorded by the flood
        spliced = fresh_route + (self.node.ip,) + cached.route
        full = (msg.sip,) + spliced + (msg.dip,)
        if len(set(full)) != len(full):
            return False  # splice would loop; fall back to normal relay
        fresh_sig = self._sign(
            signing.crep_fresh_leg_payload(msg.sip, msg.seq, fresh_route)
        )
        crep = CREP(
            sprime_ip=msg.sip,
            sip=self.node.ip,
            dip=msg.dip,
            fresh_seq=msg.seq,
            fresh_route=fresh_route,
            fresh_signature=fresh_sig,
            fresh_public_key=self.node.public_key,
            fresh_rn=self._own_rn(),
            cached_seq=cached.crep_seq,
            cached_route=cached.route,
            cached_signature=cached.crep_signature,
            cached_public_key=cached.crep_public_key,
            cached_rn=cached.crep_rn,
            hop_limit=self.cfg.hop_limit,
        )
        next_hop = fresh_route[-1] if fresh_route else msg.sip
        self.node.unicast_ip(next_hop, crep)
        return True

    # ------------------------------------------------------------------
    # RREP handling (source + reverse-path relays)
    # ------------------------------------------------------------------
    def _on_rrep(self, frame: Frame, msg: RREP) -> None:
        if not self.node.configured:
            return
        if msg.sip == self.node.ip:
            self._consume_rrep(msg)
            return
        # Reverse-path relay: find ourselves on the recorded route.
        if self.node.ip in msg.route and msg.hop_limit > 1:
            idx = msg.route.index(self.node.ip)
            fwd = msg.forwarded()
            next_hop = msg.route[idx - 1] if idx > 0 else msg.sip
            self.node.unicast_ip(next_hop, fwd)

    def _consume_rrep(self, msg: RREP) -> None:
        expected_seq = self._expected_seq(msg.dip)
        if self.VERIFY_ENDPOINTS:
            if expected_seq is None or msg.seq != expected_seq:
                # Not answering any live discovery: stale or replayed.
                self.node.verdict("rrep.rejected.stale_seq")
                return
            check = self._check_identity(
                msg.dip, msg.public_key, msg.rn, msg.signature,
                signing.rrep_payload(msg.sip, msg.seq, msg.route),
            )
            if not check:
                self.node.verdict(f"rrep.rejected.{check.reason}")
                return
        self.node.verdict("rrep.accepted")
        self.cache.put(CachedRoute(
            dest=msg.dip,
            route=msg.route,
            created_at=self.node.sim.now,
            crep_seq=msg.seq,
            crep_signature=msg.signature,
            crep_public_key=msg.public_key,
            crep_rn=msg.rn,
        ))
        self._discovery_completed(msg.dip, via_crep=False)

    # ------------------------------------------------------------------
    # CREP handling (querier + reverse-path relays)
    # ------------------------------------------------------------------
    def _on_crep(self, frame: Frame, msg: CREP) -> None:
        if not self.node.configured:
            return
        if msg.sprime_ip == self.node.ip:
            self._consume_crep(msg)
            return
        if self.node.ip in msg.fresh_route and msg.hop_limit > 1:
            idx = msg.fresh_route.index(self.node.ip)
            fwd = msg.forwarded()
            next_hop = msg.fresh_route[idx - 1] if idx > 0 else msg.sprime_ip
            self.node.unicast_ip(next_hop, fwd)

    def _consume_crep(self, msg: CREP) -> None:
        expected_seq = self._expected_seq(msg.dip)
        if self.VERIFY_ENDPOINTS:
            if expected_seq is None or msg.fresh_seq != expected_seq:
                self.node.verdict("crep.rejected.stale_seq")
                return
            # Fresh leg: the cache holder S vouches for S' -> S, signed now.
            fresh_check = self._check_identity(
                msg.sip, msg.fresh_public_key, msg.fresh_rn,
                msg.fresh_signature,
                signing.crep_fresh_leg_payload(msg.sprime_ip, msg.fresh_seq, msg.fresh_route),
            )
            if not fresh_check:
                self.node.verdict(f"crep.rejected.fresh_{fresh_check.reason}")
                return
            # Cached leg: D's original signature over (S, seq, RR(S->D)).
            cached_check = self._check_identity(
                msg.dip, msg.cached_public_key, msg.cached_rn,
                msg.cached_signature,
                signing.crep_cached_leg_payload(msg.sip, msg.cached_seq, msg.cached_route),
            )
            if not cached_check:
                self.node.verdict(f"crep.rejected.cached_{cached_check.reason}")
                return
        self.node.verdict("crep.accepted")
        self.cache.put(CachedRoute(
            dest=msg.dip,
            route=msg.full_route(),
            created_at=self.node.sim.now,
            # Second-hand route: not re-shareable (no CREP materials).
        ))
        self._discovery_completed(msg.dip, via_crep=True)

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def _on_data(self, frame: Frame, msg: DataPacket) -> None:
        if not self.node.configured:
            return
        if self.node.owns_address(msg.dip):
            self._deliver_data(msg)
            return
        self._forward_data(msg)

    def _deliver_data(self, msg: DataPacket) -> None:
        key = (msg.sip, msg.seq)
        if key not in self._delivered_seqs:
            self._delivered_seqs.add(key)
            latency = self.node.sim.now - msg.sent_at
            self.node.ctx.metrics.on_data_delivered(msg.sip, msg.dip, latency)
            self.node.deliver_app(msg)
        # Always (re-)ACK: the ACK may have been lost.
        sig = self._sign(signing.ack_payload(msg.sip, msg.dip, msg.seq))
        ack = AckPacket(
            sip=msg.sip,
            dip=msg.dip,
            seq=msg.seq,
            route=msg.route,
            signature=sig,
            public_key=self.node.public_key,
            rn=self._own_rn(),
            hop_limit=self.cfg.hop_limit,
        )
        next_hop = msg.route[-1] if msg.route else msg.sip
        claimed = msg.dip if msg.dip in self.node.aliases else None
        self.node.unicast_ip(next_hop, ack, claimed_src=claimed)

    def _forward_data(self, msg: DataPacket) -> None:
        if msg.hop_limit <= 1:
            return
        fwd = msg.advance()
        path = fwd.full_path()
        cursor = fwd.segment_index + 1
        if cursor >= len(path) - 1 or path[cursor] != self.node.ip:
            return  # stale/corrupt source route: not ours to forward
        next_hop = path[cursor + 1]
        self.node.unicast_ip(
            next_hop, fwd,
            on_fail=lambda: self._report_broken_link(fwd, next_hop),
        )

    # ------------------------------------------------------------------
    # end-to-end ACK (source side)
    # ------------------------------------------------------------------
    def _on_ack(self, frame: Frame, msg: AckPacket) -> None:
        if not self.node.configured:
            return
        if msg.sip == self.node.ip:
            self._consume_ack(msg)
            return
        if self.node.ip in msg.route and msg.hop_limit > 1:
            idx = msg.route.index(self.node.ip)
            fwd = msg.forwarded()
            next_hop = msg.route[idx - 1] if idx > 0 else msg.sip
            self.node.unicast_ip(next_hop, fwd)

    def _consume_ack(self, msg: AckPacket) -> None:
        key = (msg.dip, msg.seq)
        pending = self._pending_acks.get(key)
        if pending is None:
            return  # duplicate or unsolicited
        if self.VERIFY_ENDPOINTS:
            check = self._check_identity(
                msg.dip, msg.public_key, msg.rn, msg.signature,
                signing.ack_payload(msg.sip, msg.dip, msg.seq),
            )
            if not check:
                self.node.verdict(f"ack.rejected.{check.reason}")
                return
        self.node.verdict("ack.accepted")
        del self._pending_acks[key]
        if pending.timer:
            pending.timer.cancel()
        if pending.retries == 0:
            # Only a clean first-try delivery clears the suspicion counter;
            # a delivery that needed retries still means the primary route
            # silently ate a packet ("fails once, recovers, fails again"
            # must not evade the probe threshold forever).
            self._route_failures.pop(msg.dip, None)
        if pending.is_probe:
            self._probe_acked(msg.dip)
        else:
            self.node.ctx.metrics.on_data_acked(msg.sip, msg.dip)
            if self.USE_CREDIT:
                self.credits.reward_route(pending.route)
        if pending.on_delivered:
            pending.on_delivered()

    def _ack_timeout(self, key: tuple[IPv6Address, int]) -> None:
        pending = self._pending_acks.pop(key, None)
        if pending is None:
            return
        if pending.is_probe:
            return  # probe results are evaluated by the sweep timer
        dip = key[0]
        failures = self._route_failures.get(dip, 0) + 1
        self._route_failures[dip] = failures
        if (
            self.USE_CREDIT
            and self.cfg.enable_probing
            and failures >= self.cfg.probe_trigger_failures
            and pending.route
            and dip not in self._probes
        ):
            self._start_probe(pending.route, dip)
        if pending.retries < self.cfg.data_max_retries:
            # Retry, avoiding the route that just went silent.
            self._dispatch_packet(
                pending.packet.replace(segment_index=-1),
                pending.on_delivered,
                pending.on_failed,
                pending.retries + 1,
                exclude_route=pending.route,
            )
            return
        self.node.ctx.metrics.on_data_dropped(self.node.ip, dip)
        if pending.on_failed:
            pending.on_failed()

    def _local_link_failure(self, key: tuple[IPv6Address, int], next_hop: IPv6Address) -> None:
        """Our own first hop failed at the MAC layer."""
        pending = self._pending_acks.pop(key, None)
        if pending is None:
            return
        if pending.timer:
            pending.timer.cancel()
        self.cache.invalidate_link(self.node.ip, next_hop, self.node.ip)
        if pending.is_probe:
            return
        if pending.retries < self.cfg.data_max_retries:
            self._dispatch_packet(
                pending.packet.replace(segment_index=-1),
                pending.on_delivered,
                pending.on_failed,
                pending.retries + 1,
                exclude_route=pending.route,
            )
            return
        self.node.ctx.metrics.on_data_dropped(self.node.ip, key[0])
        if pending.on_failed:
            pending.on_failed()

    # ------------------------------------------------------------------
    # route maintenance: RERR (Section 3.4)
    # ------------------------------------------------------------------
    def _report_broken_link(self, packet: DataPacket, next_hop: IPv6Address) -> None:
        """We are a relay and our next hop is unreachable: tell the source."""
        self.cache.invalidate_link(self.node.ip, next_hop, self.node.ip)
        path = packet.full_path()
        my_pos = packet.segment_index + 1  # we hold the advanced copy
        # Reverse path back to S: our predecessors, nearest first.
        return_route = tuple(reversed(path[1:my_pos]))
        sig = self._sign(signing.rerr_payload(self.node.ip, next_hop))
        rerr = RERR(
            reporter_ip=self.node.ip,
            broken_next_hop=next_hop,
            signature=sig,
            public_key=self.node.public_key,
            rn=self._own_rn(),
            sip=packet.sip,
            return_route=return_route,
            hop_limit=self.cfg.hop_limit,
        )
        first = return_route[0] if return_route else packet.sip
        self.node.unicast_ip(first, rerr)

    def _on_rerr(self, frame: Frame, msg: RERR) -> None:
        if not self.node.configured:
            return
        if msg.sip == self.node.ip:
            self._consume_rerr(msg)
            return
        if self.node.ip in msg.return_route and msg.hop_limit > 1:
            idx = msg.return_route.index(self.node.ip)
            fwd = msg.forwarded()
            if idx + 1 < len(msg.return_route):
                self.node.unicast_ip(msg.return_route[idx + 1], fwd)
            else:
                self.node.unicast_ip(msg.sip, fwd)

    def _consume_rerr(self, msg: RERR) -> None:
        self.node.ctx.metrics.on_rerr()
        if self.VERIFY_ENDPOINTS:
            check = self._check_identity(
                msg.reporter_ip, msg.public_key, msg.rn, msg.signature,
                signing.rerr_payload(msg.reporter_ip, msg.broken_next_hop),
            )
            if not check:
                self.node.verdict(f"rerr.rejected.{check.reason}")
                return
            # Source routing lets S check the reporter really sits on one
            # of its routes, directly ahead of the link it reports broken.
            if not self._reporter_on_active_route(msg.reporter_ip, msg.broken_next_hop):
                self.node.verdict("rerr.rejected.not_on_route")
                return
        self.node.verdict("rerr.accepted")
        dropped = self.cache.invalidate_link(
            msg.reporter_ip, msg.broken_next_hop, self.node.ip
        )
        self.node.note(
            f"RERR {msg.reporter_ip}->{msg.broken_next_hop}: {dropped} route(s) dropped"
        )
        if self.USE_CREDIT:
            suspicious = self.credits.record_rerr(msg.reporter_ip, self.node.sim.now)
            if suspicious:
                # "The RERR reporting node or the node next to the reporting
                # node might be a hostile node" -- penalise both, route around.
                self.credits.penalize(msg.reporter_ip)
                self.credits.penalize(msg.broken_next_hop)
                self.cache.invalidate_host(msg.reporter_ip)
                self.node.verdict("rerr.reporter_suspected")
        # Retry any packet in flight over the broken link.
        self._retry_over_broken_link(msg.reporter_ip, msg.broken_next_hop)

    def _reporter_on_active_route(
        self, reporter: IPv6Address, broken: IPv6Address
    ) -> bool:
        """Is reporter->broken a consecutive pair on a route we are using?"""
        routes = [p.route + (p.packet.dip,) for p in self._pending_acks.values()]
        # Every cached route counts too: the report may concern a route we
        # hold for any destination, not just one with a packet in flight.
        for entry in self.cache:
            routes.append(entry.route + (entry.dest,))
        for route in routes:
            path = (self.node.ip,) + route
            for u, v in zip(path, path[1:]):
                if u == reporter and v == broken:
                    return True
        return False

    def _retry_over_broken_link(self, a: IPv6Address, b: IPv6Address) -> None:
        affected = [
            key for key, p in self._pending_acks.items()
            if not p.is_probe and self._route_uses_link(p, a, b)
        ]
        for key in affected:
            pending = self._pending_acks.pop(key)
            if pending.timer:
                pending.timer.cancel()
            if pending.retries < self.cfg.data_max_retries:
                self._dispatch_packet(
                    pending.packet.replace(segment_index=-1),
                    pending.on_delivered,
                    pending.on_failed,
                    pending.retries + 1,
                    exclude_route=pending.route,
                )
            else:
                self.node.ctx.metrics.on_data_dropped(self.node.ip, key[0])
                if pending.on_failed:
                    pending.on_failed()

    @staticmethod
    def _route_uses_link(pending: PendingPacket, a: IPv6Address, b: IPv6Address) -> bool:
        path = (pending.packet.sip,) + pending.route + (pending.packet.dip,)
        return any(u == a and v == b for u, v in zip(path, path[1:]))

    # ------------------------------------------------------------------
    # black-hole probing (Section 3.4)
    # ------------------------------------------------------------------
    def _start_probe(self, route: Route, dst: IPv6Address) -> None:
        """Probe each hop of a silently failing route with its own packet.

        Every hop must answer its probe with its *signed* ACK; the first
        hop that stays silent marks the hostile boundary.
        """
        session = ProbeSession(route=route, dst=dst)
        self._probes[dst] = session
        self.node.note(f"probing route {[str(h) for h in route]} toward {dst}")
        for i, hop in enumerate(route):
            seq = self.node.next_seq()
            probe = DataPacket(
                sip=self.node.ip,
                dip=hop,
                seq=seq,
                route=route[:i],
                payload=b"",
                sent_at=self.node.sim.now,
                hop_limit=self.cfg.hop_limit,
            )
            key = (hop, seq)
            pending = PendingPacket(packet=probe, route=route[:i], is_probe=True)
            pending.timer = Timer(self.node.sim, self._ack_timeout, key)
            pending.timer.start(self.cfg.probe_timeout)
            self._pending_acks[key] = pending
            session.outstanding += 1
            next_hop = probe.route[0] if probe.route else hop
            self.node.unicast_ip(next_hop, probe)
        self.node.sim.schedule(
            self.cfg.probe_timeout + self.cfg.ack_timeout,
            self._evaluate_probe, dst,
        )

    def _probe_acked(self, probed_hop: IPv6Address) -> None:
        for session in self._probes.values():
            if probed_hop in session.route:
                session.acked.add(session.route.index(probed_hop))

    def _evaluate_probe(self, dst: IPv6Address) -> None:
        session = self._probes.pop(dst, None)
        if session is None:
            return
        route = session.route
        # Deepest prefix of hops that answered.
        first_failed = None
        for i in range(len(route)):
            if i not in session.acked:
                first_failed = i
                break
        if first_failed is None:
            # Every relay answered its own probe, yet data to D vanishes
            # *silently* (an honestly broken final link would have produced
            # a RERR from the last relay).  The last relay is the suspect:
            # it acknowledges as a destination but drops as a forwarder --
            # the black-hole signature.
            suspects = [route[-1]]
        else:
            suspects = [route[first_failed]]
            if first_failed > 0:
                # The previous hop answered its own probe but nothing beyond
                # it got through: it is the prime black-hole suspect.
                suspects.append(route[first_failed - 1])
        for s in suspects:
            self.credits.penalize(s)
            self.cache.invalidate_host(s)
        self.node.verdict("probe.suspects_penalized")
        self.node.note(f"probe suspects: {[str(s) for s in suspects]}")
