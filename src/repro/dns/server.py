"""The DNS server component (Section 3.2).

Attached to exactly one node per scenario.  The server node claims the
three well-known anycast addresses (so route discoveries for
``fec0:0:0:ffff::1`` terminate at it) and signs everything it says with
the network-wide trust-anchor key.

Registration pipeline (integrated with the extended DAD of Section 3.1):

1. An AREQ with a domain name arrives (the server hears the flood like
   everyone else).  Name conflict -> signed DREP back along the RR.
   Otherwise a pending registration opens, remembering the AREQ's
   challenge ``ch``.
2. If a duplicate-address holder's warning AREP arrives within the
   quiet window -- verified with the *joiner's* challenge, per the
   paper -- the pending registration is cancelled.
3. After ``dns_registration_delay`` of silence the (DN, SIP) binding
   commits, first-come-first-served.

Resolution and authenticated IP change ride the routing layer as
application messages (DATA payloads); replies reverse the request's
source route.
"""

from __future__ import annotations

from repro.bootstrap.verifier import verify_identity
from repro.core.node import Node
from repro.dns.records import DomainNameTable
from repro.dns.secure_update import ChallengeLedger
from repro.ipv6.address import IPv6Address
from repro.ipv6.cga import CGAParams, verify_cga
from repro.ipv6.prefixes import DNS_ANYCAST_ADDRESSES
from repro.messages import signing
from repro.messages.bootstrap import AREP, AREQ, DREP
from repro.messages.data import DataPacket
from repro.messages.dns import (
    DNSQuery,
    DNSResponse,
    DNSUpdateChallenge,
    DNSUpdateReply,
    DNSUpdateRequest,
)
from repro.phy.medium import Frame


class DNSServer:
    """Server-side DNS logic; the node's key pair is the trust anchor."""

    def __init__(self, node: Node):
        self.node = node
        self.cfg = node.config
        self._rng = node.rng("dns-server")
        self.table = DomainNameTable()
        self.ledger = ChallengeLedger(ttl=self.cfg.dns_challenge_ttl)
        #: Flood dedup: the same AREQ arrives over several paths; only the
        #: first copy may open (or re-open) a pending registration.
        self._seen_areqs: set[tuple[IPv6Address, int]] = set()
        #: Warning AREPs already rejected, keyed on all the content the
        #: check reads: the flood brings each one over several paths, and
        #: a copy carrying the same content would only fail again.  Not
        #: keyed on (sip, ch): a forgery echoing them must not silence
        #: the genuine warning behind it.
        self._rejected_warnings: set[tuple] = set()
        node.aliases.update(DNS_ANYCAST_ADDRESSES)
        # Publish the trust anchor: "the public key has been securely
        # distributed to all mobile nodes prior to network formation".
        node.ctx.dns_public_key = node.public_key

        node.register_handler(AREQ, self._on_areq)
        node.register_handler(AREP, self._on_arep)
        node.register_app_handler(DNSQuery, self._on_query)
        node.register_app_handler(DNSUpdateRequest, self._on_update_request)

    # ------------------------------------------------------------------
    # registration during DAD
    # ------------------------------------------------------------------
    def _on_areq(self, frame: Frame, msg: AREQ) -> None:
        if not msg.domain_name:
            return  # no registration requested
        key = (msg.sip, msg.seq)
        if key in self._seen_areqs:
            return
        self._seen_areqs.add(key)
        # The relaying/defending logic already ran in BootstrapManager;
        # here the server only handles the name side.
        if self.table.conflicts(msg.domain_name, msg.sip):
            self._send_drep(msg)
            return
        existing = self.table.lookup(msg.domain_name)
        if existing is not None and existing.ip == msg.sip:
            return  # same binding re-announced; nothing to do
        pending = self.ledger.open_registration(
            msg.domain_name, msg.sip, msg.ch, self.node.sim.now
        )
        self.node.sim.schedule(
            self.cfg.dns_registration_delay,
            self._finalize_registration, pending,
            # AREQ carries the registrant's key material implicitly: the
            # address must be re-validated when we commit, so the AREQ's
            # fields we need later are captured here.
            msg,
        )

    def _send_drep(self, msg: AREQ) -> None:
        """Signed "name taken" verdict back along the AREQ's route record."""
        self.node.ctx.metrics.on_verdict("dns.name_conflict")
        signature = self.node.sign(signing.drep_payload(msg.domain_name, msg.ch))
        drep = DREP(
            sip=msg.sip,
            route_record=msg.route_record,
            domain_name=msg.domain_name,
            signature=signature,
            hop_limit=self.cfg.hop_limit,
        )
        if msg.route_record:
            self.node.unicast_ip(msg.route_record[-1], drep)
        else:
            self.node.broadcast(drep)  # joiner is a direct neighbour

    def _finalize_registration(self, pending, areq: AREQ) -> None:
        if pending.cancelled:
            return
        self.ledger.close_registration(pending.ip, pending.ch)
        if self.table.conflicts(pending.name, pending.ip):
            # Someone else won the race while we waited: tell the loser
            # (two pending registrations can overlap, in which case no
            # conflict existed when either AREQ first arrived).
            self._send_drep(areq)
            return
        if pending.name in self.table:
            return
        # The joiner may still be probing, but FCFS means the name is
        # held for the address that asked first.  Key material for the
        # future IP-change protocol is not in the AREQ (it carries no
        # PK); it is learned from the first authenticated update or a
        # subsequent signed exchange.  We store what we have.
        self.table.register_online(
            pending.name, pending.ip, public_key=None, rn=None,
            now=self.node.sim.now,
        )
        self.node.note(f"DNS registered {pending.name!r} -> {pending.ip}")
        self.node.ctx.metrics.on_verdict("dns.registered")

    def _on_arep(self, frame: Frame, msg: AREP) -> None:
        """A warning AREP: a duplicate holder tells us not to register SIP."""
        if not msg.to_dns:
            return
        pending = self.ledger.find_registration(msg.sip, msg.ch, self.node.sim.now)
        if pending is None or pending.cancelled:
            return
        content = msg.content()
        if content in self._rejected_warnings:
            return
        # Verify with the same two checks the joiner runs (paper: "the DNS
        # can verify the AREP with the same checks"; the challenge was
        # issued by S, kept by us with the pending registration).
        check = verify_identity(
            self.node.backend, msg.sip, msg.public_key, msg.rn,
            msg.signature, signing.arep_payload(msg.sip, pending.ch),
            verify_fn=self.node.verify,
        )
        if not check:
            self.node.verdict(f"dns.warning_arep.rejected.{check.reason}")
            self._rejected_warnings.add(content)
            return
        pending.cancelled = True
        self.ledger.close_registration(msg.sip, pending.ch)
        self.node.verdict("dns.warning_arep.accepted")
        self.node.note(
            f"DNS cancelled pending registration {pending.name!r} -> {pending.ip}"
        )

    # ------------------------------------------------------------------
    # provisioning API (pre-network-formation)
    # ------------------------------------------------------------------
    def preregister(self, name: str, ip: IPv6Address, public_key=None, rn=None):
        """Install a permanent (DN, IP) binding before the network forms."""
        return self.table.preregister(name, ip, public_key, rn)

    # ------------------------------------------------------------------
    # resolution service
    # ------------------------------------------------------------------
    def _reply(self, request_packet: DataPacket, app_msg) -> None:
        """Send an application reply back along the reversed source route."""
        router = self.node.router
        if router is None:
            return
        reverse_route = tuple(reversed(request_packet.route))
        seq = self.node.next_seq()
        reply = DataPacket(
            sip=self.node.ip,
            dip=request_packet.sip,
            seq=seq,
            route=reverse_route,
            payload=app_msg.wire_bytes(),
            sent_at=self.node.sim.now,
            hop_limit=self.cfg.hop_limit,
        )
        self.node.ctx.metrics.on_data_sent(self.node.ip, request_packet.sip)
        router._transmit(reply, None, None, retries=0)

    def _on_query(self, query: DNSQuery, packet: DataPacket) -> None:
        rec = self.table.lookup(query.domain_name)
        found = rec is not None
        ip = rec.ip if found else IPv6Address(0)
        signature = self.node.sign(
            signing.dns_response_payload(query.domain_name, ip, query.ch)
        )
        self.node.ctx.metrics.on_verdict(
            "dns.query_hit" if found else "dns.query_miss"
        )
        self._reply(packet, DNSResponse(
            domain_name=query.domain_name,
            ip=ip,
            found=found,
            ch=query.ch,
            signature=signature,
        ))

    # ------------------------------------------------------------------
    # authenticated IP change
    # ------------------------------------------------------------------
    def _on_update_request(self, req: DNSUpdateRequest, packet: DataPacket) -> None:
        if not req.signature:
            # Phase 1: intent.  Issue a fresh challenge for this name.
            ch = self._rng.nonce(64)
            self.ledger.issue_update_challenge(req.domain_name, ch, self.node.sim.now)
            self._reply(packet, DNSUpdateChallenge(domain_name=req.domain_name, ch=ch))
            return
        # Phase 2: signed response to our challenge.
        accepted, reason = self._validate_update(req)
        verdict = "dns.update.accepted" if accepted else f"dns.update.rejected.{reason}"
        self.node.verdict(verdict)
        if accepted:
            self.table.update_ip(req.domain_name, req.new_ip, req.new_rn)
            rec = self.table.lookup(req.domain_name)
            rec.public_key = req.public_key  # key observed and now pinned
            self.node.note(f"DNS moved {req.domain_name!r} -> {req.new_ip}")
        ch_echo = 0
        sig = self.node.sign(
            signing.dns_response_payload(req.domain_name, req.new_ip, ch_echo)
        )
        self._reply(packet, DNSUpdateReply(
            domain_name=req.domain_name,
            new_ip=req.new_ip,
            accepted=accepted,
            ch=ch_echo,
            signature=sig,
        ))

    def _validate_update(self, req: DNSUpdateRequest) -> tuple[bool, str]:
        """Section 3.2's checks, in order of cheapest rejection first."""
        rec = self.table.lookup(req.domain_name)
        if rec is None:
            return False, "no_such_name"
        if rec.ip != req.old_ip:
            return False, "old_ip_mismatch"
        if rec.public_key is not None and rec.public_key != req.public_key:
            return False, "key_mismatch"  # pinned key pair may not change
        ch = self.ledger.consume_update_challenge(req.domain_name, self.node.sim.now)
        if ch is None:
            return False, "no_challenge"
        # Both addresses must be CGAs of the presented key.
        if not verify_cga(req.old_ip, CGAParams(req.public_key, req.old_rn)):
            return False, "old_cga"
        if not verify_cga(req.new_ip, CGAParams(req.public_key, req.new_rn)):
            return False, "new_cga"
        payload = signing.dns_update_payload(req.old_ip, req.new_ip, ch)
        if not self.node.verify(req.public_key, payload, req.signature):
            return False, "bad_signature"
        return True, ""
