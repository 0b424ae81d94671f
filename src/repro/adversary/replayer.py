"""Replay attacks (Section 4).

The replayer records every distinct AREP, DREP, RREP, CREP and RERR it
overhears and fires the recordings back when a fresh AREQ/RREQ with
matching addresses appears.  The paper's defence is challenge/sequence
binding: the stored signature covers the *old* challenge or sequence
number, so the victim's verification finds a mismatch every time.  The
experiment asserts the acceptance count is exactly zero.
"""

from __future__ import annotations

from repro.core.node import Node
from repro.messages.bootstrap import AREP, AREQ, DREP
from repro.messages.routing import CREP, RERR, RREP, RREQ
from repro.phy.medium import Frame


class ReplayAgent:
    """Record-and-replay component; attach alongside any router.

    The host it rides on otherwise behaves normally -- replaying is a
    passive-then-active attack needing no routing misbehaviour.
    """

    def __init__(self, node: Node):
        self.node = node
        # "Adversary nodes may ... listen to others": monitor mode lets the
        # replayer record unicast replies it is not a party to.
        node.ctx.medium.set_promiscuous(node.link_id, True)
        self.recorded_areps: list[AREP] = []
        self.recorded_dreps: list[DREP] = []
        self.recorded_rreps: list[RREP] = []
        self.recorded_creps: list[CREP] = []
        self.recorded_rerrs: list[RERR] = []
        #: Every recording with its hop limit zeroed (see :meth:`_record`).
        self._recorded: set = set()
        self.replays_fired = 0

        node.register_handler(AREP, self._record_arep)
        node.register_handler(DREP, self._record_drep)
        node.register_handler(RREP, self._record_rrep)
        node.register_handler(CREP, self._record_crep)
        node.register_handler(RERR, self._record_rerr)
        node.register_handler(AREQ, self._maybe_replay_bootstrap)
        node.register_handler(RREQ, self._maybe_replay_routing)

    # -- recording ------------------------------------------------------------
    def _record(self, recordings: list, msg) -> None:
        """Keep the first copy of each distinct message.

        Copies that differ only in hop limit are one message: honest
        relays forward the replayer's own broadcast replays, and
        recording each forward again would grow the recordings (and the
        replays fired from them) geometrically within one flood.
        """
        key = msg.replace(hop_limit=0)
        if key not in self._recorded:
            self._recorded.add(key)
            recordings.append(msg)

    def _record_arep(self, frame: Frame, msg: AREP) -> None:
        self._record(self.recorded_areps, msg)

    def _record_drep(self, frame: Frame, msg: DREP) -> None:
        self._record(self.recorded_dreps, msg)

    def _record_rrep(self, frame: Frame, msg: RREP) -> None:
        self._record(self.recorded_rreps, msg)

    def _record_crep(self, frame: Frame, msg: CREP) -> None:
        self._record(self.recorded_creps, msg)

    def _record_rerr(self, frame: Frame, msg: RERR) -> None:
        self._record(self.recorded_rerrs, msg)

    # -- replaying ---------------------------------------------------------------
    def _maybe_replay_bootstrap(self, frame: Frame, msg: AREQ) -> None:
        """A new joiner probes: replay any stored reply about that address.

        A stale AREP carries a signature over an *old* challenge; if it
        were accepted the joiner would needlessly give up its address (a
        denial-of-service on bootstrap).
        """
        for old in self.recorded_areps:
            if old.sip == msg.sip and not old.to_dns:
                self.replays_fired += 1
                self.node.broadcast(old.replace(route_record=()))
        for old in self.recorded_dreps:
            if old.domain_name == msg.domain_name and msg.domain_name:
                self.replays_fired += 1
                self.node.broadcast(old.replace(route_record=()))

    def _maybe_replay_routing(self, frame: Frame, msg: RREQ) -> None:
        """A new discovery starts: replay stored replies for that destination.

        The stored RREP's signature covers the old sequence number; the
        source's stale-seq / signature check rejects it.
        """
        for old in self.recorded_rreps:
            if old.dip == msg.dip and old.sip == msg.sip:
                self.replays_fired += 1
                # Deliver straight to the victim if adjacent, else flood.
                self.node.broadcast(old)
        for old in self.recorded_rerrs:
            if old.sip == msg.sip:
                self.replays_fired += 1
                self.node.broadcast(old.replace(return_route=()))

    def replay_everything(self) -> int:
        """Fire every recording at once (stress variant used in tests)."""
        count = 0
        for msg in (
            self.recorded_areps + self.recorded_dreps
            + self.recorded_rreps + self.recorded_creps + self.recorded_rerrs
        ):
            self.node.broadcast(msg)
            count += 1
        self.replays_fired += count
        return count
