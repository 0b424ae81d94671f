"""Secure address autoconfiguration -- the Section 3.1 state machine.

Three roles share this component:

* **Joiner** -- :meth:`BootstrapManager.start` floods AREQ rounds until
  one passes silently (then the node adopts the address) or the retry
  budget is exhausted.
* **Relay/defender** -- every configured node rebroadcasts first-seen
  AREQs with its own address appended to RR, and *defends* its address
  when an AREQ claims it: a signed AREP travels the reverse RR to the
  joiner and a second signed copy warns the DNS.
* **Forwarder** -- nodes on the reverse RR relay AREP/DREP hop by hop;
  the final hop to the (still address-less) joiner is broadcast, per the
  paper's footnote.

Replay safety: the joiner draws a fresh ``ch`` per round; an AREP is
accepted only if its signature covers the *pending* challenge, so
recorded replies from earlier rounds (or other joiners) verify but don't
match and are rejected.
"""

from __future__ import annotations

from typing import Callable

from repro.bootstrap.verifier import verify_identity
from repro.core.node import Node
from repro.ipv6.address import IPv6Address
from repro.ipv6.cga import generate_cga
from repro.messages import signing
from repro.messages.bootstrap import AREP, AREQ, DREP
from repro.phy.medium import Frame
from repro.sim.process import Timer


class BootstrapManager:
    """Per-node secure DAD + name-registration driver."""

    def __init__(self, node: Node):
        self.node = node
        self.cfg = node.config
        self._rng = node.rng("bootstrap")
        # Joiner state
        self.state = "idle"  # idle | probing | configured | failed
        self.tentative_ip: IPv6Address | None = None
        self._tentative_params = None
        self.pending_ch: int | None = None
        self.pending_seq: int | None = None
        self.requested_name = ""
        self.round = 0
        self._started_at = 0.0
        self._timer = Timer(node.sim, self._dad_timeout_fired)
        self.on_configured: list[Callable[[Node], None]] = []
        self.on_failed: list[Callable[[Node], None]] = []
        # Flood dedup: (sip, seq) for AREQs, the content of DNS-warning AREPs
        self._seen_areqs: set[tuple[IPv6Address, int]] = set()
        self._seen_warnings: set[tuple] = set()

        node.register_handler(AREQ, self._on_areq)
        node.register_handler(AREP, self._on_arep)
        node.register_handler(DREP, self._on_drep)

    # ------------------------------------------------------------------
    # joiner side
    # ------------------------------------------------------------------
    def start(self, domain_name: str = "") -> None:
        """Begin secure DAD, optionally registering ``domain_name``."""
        if self.state == "probing":
            raise RuntimeError(f"{self.node.name}: DAD already in progress")
        self.requested_name = domain_name
        self.round = 0
        self._started_at = self.node.sim.now
        self.state = "probing"
        self._new_address_round(new_rn=True)

    def reprobe(self) -> None:
        """Re-run DAD on the *current* address (partition-heal support).

        After a network merge, two halves may each hold a node that
        configured the same address while they could not hear each
        other; every configured host therefore optimistically re-probes.
        The common case -- still unique -- just re-announces the existing
        identity (and re-registers its name, since the AREQ carries it);
        an actual duplicate triggers the normal AREP defence and the
        loser draws a fresh address, exactly as in initial DAD.
        """
        if self.state != "configured":
            return
        self.state = "probing"
        self.round = 0
        self._started_at = self.node.sim.now
        self.tentative_ip = self.node.ip
        self._tentative_params = self.node.cga_params
        self.requested_name = self.node.domain_name
        self._new_address_round(new_rn=False)

    def reset_state(self) -> None:
        """Crash support: forget all DAD/registration state (cold boot).

        Cancels the round timer and clears joiner state and flood-dedup
        sets.  The ``on_configured``/``on_failed`` callback lists are
        deliberately kept: they are harness-level wiring (metrics,
        experiment orchestration), not protocol soft state.
        """
        self._timer.cancel()
        self.state = "idle"
        self.tentative_ip = None
        self._tentative_params = None
        self.pending_ch = None
        self.pending_seq = None
        self.requested_name = ""
        self.round = 0
        self._seen_areqs.clear()
        self._seen_warnings.clear()

    def _new_address_round(self, new_rn: bool) -> None:
        """Launch one DAD round; ``new_rn`` redraws the address modifier."""
        self.round += 1
        if self.round > self.cfg.dad_max_retries:
            self.state = "failed"
            self.node.note("bootstrap failed: retry budget exhausted")
            for cb in self.on_failed:
                cb(self.node)
            return
        if new_rn or self.tentative_ip is None:
            self.tentative_ip, self._tentative_params = generate_cga(
                self.node.public_key, self._rng
            )
        self.pending_ch = self._rng.nonce(64)
        self.pending_seq = self.node.next_seq()
        self.node.ctx.metrics.on_dad_round(self.node.name)
        areq = AREQ(
            sip=self.tentative_ip,
            seq=self.pending_seq,
            domain_name=self.requested_name,
            ch=self.pending_ch,
            route_record=(),
            hop_limit=self.cfg.hop_limit,
        )
        # Mark our own probe as seen so a looped-back copy is not relayed.
        self._seen_areqs.add((areq.sip, areq.seq))
        # The joiner claims the tentative source so neighbours can cache it
        # even before DAD completes (harmless: the crypto checks gate trust).
        self.node.broadcast(areq, claimed_src=self.tentative_ip)
        self._timer.start(self.cfg.dad_timeout)

    def _dad_timeout_fired(self) -> None:
        """Silence for dad_timeout => address (and name) presumed unique."""
        if self.state != "probing":
            return
        self.state = "configured"
        self.node.adopt_identity(self.tentative_ip, self._tentative_params)
        self.node.domain_name = self.requested_name
        elapsed = self.node.sim.now - self._started_at
        self.node.ctx.metrics.on_address_configured(self.node.name, elapsed)
        self.node.note(f"configured {self.node.ip} after {self.round} round(s)")
        if self.requested_name and self.cfg.enable_registration_refresh:
            self.node.sim.schedule(
                self.cfg.registration_refresh_delay, self._registration_refresh
            )
        for cb in self.on_configured:
            cb(self.node)

    def _registration_refresh(self) -> None:
        """Re-flood a registration AREQ now that the network can relay it.

        The very first joiners probe into a network where no neighbour is
        configured yet, so their original AREQ may never have reached the
        DNS; this refresh repeats the (DAD + registration) announcement
        from a fully formed network.  A DREP can still arrive and take
        the name away (we were not first after all).
        """
        if self.state != "configured" or not self.node.domain_name:
            return
        self.pending_ch = self._rng.nonce(64)
        self.pending_seq = self.node.next_seq()
        areq = AREQ(
            sip=self.node.ip,
            seq=self.pending_seq,
            domain_name=self.node.domain_name,
            ch=self.pending_ch,
            route_record=(),
            hop_limit=self.cfg.hop_limit,
        )
        self._seen_areqs.add((areq.sip, areq.seq))
        self.node.broadcast(areq)

    # ------------------------------------------------------------------
    # responder / relay side
    # ------------------------------------------------------------------
    def _on_areq(self, frame: Frame, msg: AREQ) -> None:
        key = (msg.sip, msg.seq)
        if key in self._seen_areqs:
            return
        self._seen_areqs.add(key)

        if self.node.configured and msg.sip == self.node.ip:
            self._defend_address(msg)
            return
        # Non-colliding configured nodes relay the flood.
        if self.node.configured and msg.hop_limit > 1:
            relayed = msg.append_hop(self.node.ip)
            delay = self._rng.uniform(0.0, self.cfg.rebroadcast_jitter)
            self.node.sim.schedule(delay, self.node.broadcast, relayed)

    def _defend_address(self, msg: AREQ) -> None:
        """We hold the address the AREQ probes: answer with proof (AREP)."""
        self.node.ctx.metrics.on_collision_detected()
        self.node.verdict("dad.collision_detected")
        signature = self.node.sign(signing.arep_payload(self.node.ip, msg.ch))
        arep = AREP(
            sip=self.node.ip,
            route_record=msg.route_record,
            signature=signature,
            public_key=self.node.public_key,
            rn=self.node.cga_params.rn,
            ch=msg.ch,
            hop_limit=self.cfg.hop_limit,
        )
        self._send_reverse(arep, msg.route_record)
        # Warn the DNS so it drops any pending (DN, SIP) registration.
        warning = arep.replace(to_dns=True, route_record=())
        self._seen_warnings.add(warning.content())
        self.node.broadcast(warning)

    def _send_reverse(self, msg: AREP | DREP, rr: tuple[IPv6Address, ...]) -> None:
        """First hop of the reverse-RR unicast (or final-hop broadcast)."""
        if rr:
            self.node.unicast_ip(rr[-1], msg)
        else:
            # Joiner is a direct neighbour; it has no routable address yet,
            # so the last hop is a broadcast (paper footnote).
            self.node.broadcast(msg)

    def _forward_reverse(self, msg: AREP | DREP, rr: tuple[IPv6Address, ...]) -> bool:
        """Relay a reverse-path reply if we sit on its RR.  True if consumed."""
        if not self.node.configured or self.node.ip not in rr:
            return False
        idx = rr.index(self.node.ip)
        fwd = msg.forwarded()
        if fwd.hop_limit <= 0:
            return True
        if idx == 0:
            self.node.broadcast(fwd)  # final hop to the address-less joiner
        else:
            self.node.unicast_ip(rr[idx - 1], fwd)
        return True

    # ------------------------------------------------------------------
    # reply handling (joiner + relays)
    # ------------------------------------------------------------------
    def _on_arep(self, frame: Frame, msg: AREP) -> None:
        if msg.to_dns:
            self._relay_dns_warning(msg)
            return
        if self.state == "probing" and msg.sip == self.tentative_ip:
            self._consume_arep(msg)
            return
        self._forward_reverse(msg, msg.route_record)

    def _relay_dns_warning(self, msg: AREP) -> None:
        """Flood-relay the DNS warning copy, once per :meth:`AREP.content`:
        a forgery that echoes its ``sip`` and ``ch`` does not silence it."""
        key = msg.content()
        if key in self._seen_warnings:
            return
        self._seen_warnings.add(key)
        if self.node.configured and msg.hop_limit > 1:
            delay = self._rng.uniform(0.0, self.cfg.rebroadcast_jitter)
            self.node.sim.schedule(delay, self.node.broadcast, msg.forwarded())

    def _consume_arep(self, msg: AREP) -> None:
        """Joiner-side AREP validation: CGA check + challenge signature."""
        payload = signing.arep_payload(self.tentative_ip, self.pending_ch)
        check = verify_identity(
            self.node.backend, msg.sip, msg.public_key, msg.rn,
            msg.signature, payload, verify_fn=self.node.verify,
        )
        if not check:
            self.node.verdict(f"arep.rejected.{check.reason}")
            return
        self.node.verdict("arep.accepted")
        # Genuine collision: draw a fresh rn, keep PK, try again (paper 3.1).
        self._timer.cancel()
        self._new_address_round(new_rn=True)

    def _on_drep(self, frame: Frame, msg: DREP) -> None:
        if self.state == "probing" and msg.sip == self.tentative_ip:
            self._consume_drep(msg)
            return
        if (
            self.state == "configured"
            and msg.sip == self.node.ip
            and msg.domain_name == self.node.domain_name
        ):
            self._consume_refresh_drep(msg)
            return
        self._forward_reverse(msg, msg.route_record)

    def _consume_refresh_drep(self, msg: DREP) -> None:
        """The refresh announcement lost the FCFS race: give up the name."""
        dns_pk = self.node.ctx.dns_public_key
        if dns_pk is None or self.pending_ch is None:
            return
        payload = signing.drep_payload(self.node.domain_name, self.pending_ch)
        if not self.node.verify(dns_pk, payload, msg.signature):
            self.node.verdict("drep.rejected.bad_signature")
            return
        self.node.verdict("drep.accepted")
        self.node.ctx.metrics.on_name_conflict()
        lost = self.node.domain_name
        self.node.domain_name = self._next_name(lost)
        self.node.note(f"lost name {lost!r} post-configuration; now {self.node.domain_name!r}")
        self.node.sim.schedule(
            self.cfg.registration_refresh_delay, self._registration_refresh
        )

    def _consume_drep(self, msg: DREP) -> None:
        """Joiner-side DREP validation: DNS signature over (DN, ch)."""
        dns_pk = self.node.ctx.dns_public_key
        if dns_pk is None:
            self.node.verdict("drep.rejected.no_dns_key")
            return
        payload = signing.drep_payload(self.requested_name, self.pending_ch)
        if msg.domain_name != self.requested_name or not self.node.verify(
            dns_pk, payload, msg.signature
        ):
            self.node.verdict("drep.rejected.bad_signature")
            return
        self.node.verdict("drep.accepted")
        self.node.ctx.metrics.on_name_conflict()
        # Name taken: pick a new one, keep the address, rerun the probe.
        self._timer.cancel()
        self.requested_name = self._next_name(self.requested_name)
        self.node.note(f"name conflict; retrying as {self.requested_name!r}")
        self._new_address_round(new_rn=False)

    @staticmethod
    def _next_name(name: str) -> str:
        """Derive the next candidate name after a conflict (foo -> foo-2 -> foo-3)."""
        stem, dash, suffix = name.rpartition("-")
        if dash and suffix.isdigit():
            return f"{stem}-{int(suffix) + 1}"
        return f"{name}-2"
