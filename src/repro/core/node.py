"""The protocol node: radio, identity, dispatch.

A :class:`Node` owns

* a radio attachment on the shared medium,
* a key pair and (after bootstrap) a CGA-derived IPv6 identity,
* a neighbour cache mapping IP -> link id, learned from overheard
  frames exactly like an ND cache (and just as spoofable -- the
  *crypto* layers catch lies, not the cache),
* a message dispatch table that protocol components register into.

Components (bootstrap manager, router, DNS client/server, adversary
behaviours) are attached by the scenario builder; the node itself knows
nothing about any specific protocol message.

Crypto delay accounting: when ``config.charge_crypto_delay`` is on,
every sign/verify executed through :meth:`sign`, :meth:`sign_on_read`
or :meth:`verify` adds the backend's simulated op cost to a debt that
is paid as extra delay on the node's *next transmission* -- modelling
"the CPU was busy verifying before it could forward", without turning
every handler into a continuation.
"""

from __future__ import annotations

import functools
import hashlib
from collections import OrderedDict
from typing import Callable, Type

from repro.core.config import NodeConfig
from repro.core.context import NetContext
from repro.crypto.keys import DEFAULT_KEYPAIR_POOL, KeyPair, PublicKey
from repro.ipv6.address import IPv6Address
from repro.ipv6.cga import CGAParams
from repro.ipv6.prefixes import UNSPECIFIED
from repro.messages.base import Message
from repro.messages.ndp import NeighborAdvertisement
from repro.phy.medium import BROADCAST_LINK, Frame


class Node:
    """One MANET host.  See module docstring."""

    def __init__(
        self,
        ctx: NetContext,
        name: str,
        position: tuple[float, float],
        config: NodeConfig | None = None,
        keypair: KeyPair | None = None,
    ):
        self.ctx = ctx
        self.sim = ctx.sim
        self.name = name
        self.config = config or NodeConfig()
        # Scenario-owned backend instance (state isolation across the
        # runs of a reused campaign worker; see NetContext.crypto_backend).
        self.backend = ctx.crypto_backend(self.config.crypto_backend)
        if keypair is not None:
            # Externally-derived pair (tests, preregistration helpers):
            # register its per-key backend state here, exactly as
            # generate_keypair would have.
            self.backend.adopt_keypair(keypair)
            self.keypair = keypair
        else:
            self.keypair = self._derive_keypair()
        self._shared_verify = (
            ctx.shared_verify_cache(self.config.shared_verify_cache_size)
            if self.config.crypto_shared_cache
            and self.config.shared_verify_cache_size > 0
            else None
        )
        #: Configured address; None until bootstrap completes.
        self.ip: IPv6Address | None = None
        #: CGA parameters proving ownership of :attr:`ip`.
        self.cga_params: CGAParams | None = None
        #: Registered domain name ("" = none requested).
        self.domain_name: str = ""
        #: Extra addresses this node answers for (the DNS server adds the
        #: well-known anycast addresses here).
        self.aliases: set[IPv6Address] = set()
        self.radio = ctx.medium.attach(position, self._on_frame)
        self.neighbor_cache: dict[IPv6Address, int] = {}
        self._handlers: dict[Type[Message], list[Callable[[Frame, Message], None]]] = {}
        #: Application-layer handlers: messages carried as DATA payloads
        #: (the DNS protocol) are dispatched here by the router.
        self._app_handlers: dict[Type[Message], list[Callable[[Message, "Message"], None]]] = {}
        self._components: dict[str, object] = {}
        self._crypto_debt = 0.0
        #: LRU memo of verify results; see NodeConfig.verify_cache_size.
        self._verify_cache: OrderedDict[tuple, bool] = OrderedDict()
        # "A unique sequence number generated by a message initiator"
        # (Table 2): start each node at a random 48-bit base so (SIP, seq)
        # pairs never collide across nodes or identities.
        self._seq = self.rng("seq").nonce(48)

    # -- identity ----------------------------------------------------------
    def _derive_keypair(self) -> KeyPair:
        seed = hashlib.sha256(
            f"{self.sim.seed}/key/{self.name}".encode()
        ).digest()
        if self.config.crypto_keypair_pool:
            # Fast path layer 3: keygen is deterministic in (backend,
            # seed), so the pooled pair is bit-identical to a fresh
            # derivation; the pool re-adopts it into this scenario's
            # backend instance.
            return DEFAULT_KEYPAIR_POOL.get(self.backend, seed)
        return self.backend.generate_keypair(seed)

    @property
    def public_key(self) -> PublicKey:
        return self.keypair.public

    @property
    def link_id(self) -> int:
        return self.radio.link_id

    @property
    def position(self) -> tuple[float, float]:
        return self.ctx.medium.position(self.link_id)

    @property
    def configured(self) -> bool:
        return self.ip is not None

    def next_seq(self) -> int:
        """Node-local unique sequence number (AREQ/RREQ/DATA initiator)."""
        self._seq += 1
        return self._seq

    def owns_address(self, ip: IPv6Address) -> bool:
        """True if ``ip`` is this node's address or one of its aliases."""
        return ip == self.ip or ip in self.aliases

    def rng(self, purpose: str):
        """A per-node deterministic RNG stream."""
        return self.sim.rng(f"node/{self.name}/{purpose}")

    def adopt_identity(self, ip: IPv6Address, params: CGAParams) -> None:
        """Install a verified CGA identity (called by the bootstrap manager)."""
        self.ip = ip
        self.cga_params = params

    def abandon_identity(self) -> None:
        """Drop the current address (DAD failure / deliberate identity change)."""
        self.ip = None
        self.cga_params = None

    # -- components ----------------------------------------------------------
    def attach_component(self, key: str, component: object) -> object:
        """Register a protocol component under ``key`` (e.g. "router")."""
        if key in self._components:
            raise ValueError(f"component {key!r} already attached on {self.name}")
        self._components[key] = component
        return component

    def component(self, key: str):
        return self._components.get(key)

    @property
    def router(self):
        return self._components.get("router")

    @property
    def bootstrap(self):
        return self._components.get("bootstrap")

    @property
    def dns_client(self):
        return self._components.get("dns_client")

    # -- crypto with accounting ------------------------------------------------
    def sign(self, payload: bytes) -> bytes:
        return self.sign_on_read(payload)()

    def sign_on_read(self, payload: bytes) -> Callable[[], bytes]:
        """Account one sign now; the returned signer computes its bytes.

        The sign op and its crypto debt are charged at this call, exactly
        as :meth:`sign` charges them.  The host work -- the backend's
        ``sign`` with this node's private key -- runs when the signer is
        called, so a signature nobody reads costs no host time (a
        relay's SRR entry; see ``SRREntry.deferred``).
        """
        self.ctx.metrics.on_crypto(self.backend.name, "sign")
        if self.config.charge_crypto_delay:
            self._crypto_debt += self.backend.op_cost("sign")
        return functools.partial(self.backend.sign, self.keypair.private, payload)

    def verify(
        self,
        public: PublicKey,
        payload: bytes,
        signature: bytes,
        _precomputed: bool | None = None,
    ) -> bool:
        """Signature check with per-node LRU memoization.

        Flooded control messages (RREQ copies over every path) make a
        node re-verify the same ``(public_key, payload, signature)``
        triple many times; a cache hit returns the memoized verdict --
        charging no crypto debt, since no public-key operation ran --
        and is counted separately as a ``verify_cached`` crypto op.

        On an LRU miss the node counts a ``verify`` op and charges debt
        exactly as always; :meth:`_compute_verify` then resolves the
        verdict through the scenario's shared cache (fast path layer 1)
        before falling back to the backend.  ``_precomputed`` carries a
        verdict :meth:`verify_batch` already obtained from a backend bulk
        pass -- it never changes observable behaviour, only skips the
        redundant recomputation.
        """
        cache_size = self.config.verify_cache_size
        if cache_size > 0:
            key = (public, payload, signature)
            cached = self._verify_cache.get(key)
            if cached is not None:
                self._verify_cache.move_to_end(key)
                self.ctx.metrics.on_crypto(self.backend.name, "verify_cached")
                return cached
        self.ctx.metrics.on_crypto(self.backend.name, "verify")
        if self.config.charge_crypto_delay:
            self._crypto_debt += self.backend.op_cost("verify")
        result = self._compute_verify(public, payload, signature, _precomputed)
        if cache_size > 0:
            self._verify_cache[key] = result
            if len(self._verify_cache) > cache_size:
                self._verify_cache.popitem(last=False)
        return result

    def _compute_verify(
        self,
        public: PublicKey,
        payload: bytes,
        signature: bytes,
        precomputed: bool | None = None,
    ) -> bool:
        """The computation behind an LRU-missed :meth:`verify`.

        Metrics and crypto debt are already accounted by the caller;
        whatever happens here is host-time execution strategy only.
        """
        shared = self._shared_verify
        if shared is not None:
            skey = (self.backend.name, public, payload, signature)
            verdict = shared.lookup(skey, self.name)
            if verdict is not None:
                return verdict
        result = (
            precomputed
            if precomputed is not None
            else self.backend.verify(public, payload, signature)
        )
        if shared is not None:
            shared.store(skey, result)
        return result

    def verify_batch(
        self, items: list[tuple[PublicKey, bytes, bytes]]
    ) -> list[bool]:
        """Verify triples as one bulk pass, stopping after the first failure.

        Observably identical to calling :meth:`verify` per item in order
        and breaking on the first ``False`` -- same metric ops in the
        same order, same crypto debt, same LRU and shared-cache
        mutations, same verdicts -- because that loop *is* phase two.
        Phase one merely precomputes, via one
        :meth:`~repro.crypto.backend.CryptoBackend.verify_batch` call,
        the verdicts for the triples no cache can answer, so the replay
        never needs a per-item backend call.  Returns the verdict list
        truncated after the first ``False``.
        """
        if not self.config.crypto_batch_verify or len(items) <= 1:
            out = []
            for public, payload, signature in items:
                verdict = self.verify(public, payload, signature)
                out.append(verdict)
                if not verdict:
                    break
            return out
        cache_size = self.config.verify_cache_size
        shared = self._shared_verify
        pending: list[tuple[PublicKey, bytes, bytes]] = []
        seen: set[tuple[PublicKey, bytes, bytes]] = set()
        for item in items:
            if cache_size > 0 and item in self._verify_cache:
                continue
            if item in seen:
                continue
            if shared is not None and shared.peek((self.backend.name,) + item) is not None:
                continue
            seen.add(item)
            pending.append(item)
        verdicts = (
            dict(zip(pending, self.backend.verify_batch(pending)))
            if pending
            else {}
        )
        out = []
        for item in items:
            verdict = self.verify(*item, _precomputed=verdicts.get(item))
            out.append(verdict)
            if not verdict:
                break
        return out

    def _take_crypto_debt(self) -> float:
        debt, self._crypto_debt = self._crypto_debt, 0.0
        return debt

    # -- receive path -------------------------------------------------------------
    def register_handler(
        self, msg_cls: Type[Message], handler: Callable[[Frame, Message], None]
    ) -> None:
        """Components call this to receive messages of ``msg_cls``."""
        self._handlers.setdefault(msg_cls, []).append(handler)

    def register_app_handler(
        self, msg_cls: Type[Message], handler: Callable[[Message, Message], None]
    ) -> None:
        """Receive application messages carried in DATA payloads.

        ``handler(app_msg, data_packet)`` runs when a DATA packet addressed
        to this node decodes to ``msg_cls``.
        """
        self._app_handlers.setdefault(msg_cls, []).append(handler)

    def deliver_app(self, packet) -> bool:
        """Router -> application handoff.  True if some handler consumed it."""
        from repro.messages.base import CodecError
        from repro.messages.codec import decode_message

        if not packet.payload:
            return False
        try:
            app_msg = decode_message(packet.payload)
        except CodecError:
            return False
        handlers = self._app_handlers.get(type(app_msg), ())
        for handler in handlers:
            handler(app_msg, packet)
        return bool(handlers)

    def _on_frame(self, frame: Frame) -> None:
        # ND-cache learning: remember which link claimed this source IP.
        if frame.src_ip != UNSPECIFIED:
            self.neighbor_cache[frame.src_ip] = frame.src_link
        msg = frame.payload
        # A Neighbor Advertisement additionally binds its *target* address
        # to the sender's link (how anycast service addresses resolve).
        if isinstance(msg, NeighborAdvertisement) and not msg.duplicate_name:
            self.neighbor_cache[msg.target] = frame.src_link
        name = type(msg).META.name
        self.ctx.metrics.on_receive(name)
        trace = self.ctx.trace
        if trace.enabled:
            trace.record(self.sim.now, self.name, "recv", name, payload=msg)
        for handler in self._handlers.get(type(msg), ()):
            handler(frame, msg)

    # -- send path ------------------------------------------------------------------
    def _src_ip(self) -> IPv6Address:
        return self.ip if self.ip is not None else UNSPECIFIED

    def _trace_send(self, msg: Message, next_hop: IPv6Address | None = None) -> int:
        name = type(msg).META.name
        # Sized once per copy: a relayed copy took its size from the copy
        # it was made from, so only originated messages encode here.
        size = msg.wire_size()
        self.ctx.metrics.on_send(name, size)
        trace = self.ctx.trace
        if trace.enabled:
            trace.record(
                self.sim.now, self.name, "send", name, payload=msg,
                next_hop=next_hop,
            )
        return size

    def broadcast(self, msg: Message, claimed_src: IPv6Address | None = None) -> None:
        """Flood ``msg`` to all neighbours (after any crypto debt delay).

        ``claimed_src`` overrides the link-layer source IP; honest code
        never sets it, adversary components do.
        """
        size = self._trace_send(msg)
        frame = Frame(
            src_link=self.link_id,
            dst_link=BROADCAST_LINK,
            src_ip=claimed_src if claimed_src is not None else self._src_ip(),
            payload=msg,
            size=size,
        )
        debt = self._take_crypto_debt()
        if debt > 0:
            self.sim.schedule(debt, self.ctx.medium.broadcast, frame)
        else:
            self.ctx.medium.broadcast(frame)

    def unicast_link(
        self,
        dst_link: int,
        msg: Message,
        on_fail: Callable[[], None] | None = None,
        on_success: Callable[[], None] | None = None,
        claimed_src: IPv6Address | None = None,
        next_hop: IPv6Address | None = None,
    ) -> None:
        """Unicast to a known link id with MAC retry/failure semantics.

        ``next_hop`` is the address the link id was resolved from; it
        only labels the trace.
        """
        size = self._trace_send(msg, next_hop)
        frame = Frame(
            src_link=self.link_id,
            dst_link=dst_link,
            src_ip=claimed_src if claimed_src is not None else self._src_ip(),
            payload=msg,
            size=size,
        )
        fail_cb = (lambda _f: on_fail()) if on_fail else None
        ok_cb = (lambda _f: on_success()) if on_success else None
        debt = self._take_crypto_debt()
        if debt > 0:
            self.sim.schedule(
                debt, self.ctx.medium.unicast, frame, fail_cb, ok_cb
            )
        else:
            self.ctx.medium.unicast(frame, fail_cb, ok_cb)

    def unicast_ip(
        self,
        next_hop: IPv6Address,
        msg: Message,
        on_fail: Callable[[], None] | None = None,
        on_success: Callable[[], None] | None = None,
        claimed_src: IPv6Address | None = None,
    ) -> None:
        """Unicast to a neighbour by IP via the ND cache.

        An unknown next hop is indistinguishable from a broken link at
        this layer, so it reports through ``on_fail`` too.
        """
        link = self.neighbor_cache.get(next_hop)
        if link is None:
            self.note(f"no ND-cache entry for {next_hop}", "L2")
            if on_fail is not None:
                self.sim.schedule(0.0, on_fail)
            return
        self.unicast_link(
            link, msg, on_fail, on_success,
            claimed_src=claimed_src, next_hop=next_hop,
        )

    def reset_soft_state(self) -> None:
        """Crash support: forget everything RAM-resident (cold boot).

        Drops the configured identity, registered name, aliases, ND
        cache, verify memo and unpaid crypto debt.  The keypair survives
        (flash, not RAM -- and regenerating it would break the
        deterministic (backend, seed) derivation), as does the radio
        attachment: the medium models the hardware, and power state is
        its ``set_enabled`` knob, driven by the fault injector.
        """
        self.abandon_identity()
        self.domain_name = ""
        self.aliases.clear()
        self.neighbor_cache.clear()
        self._verify_cache.clear()
        self._crypto_debt = 0.0

    # -- misc ------------------------------------------------------------------
    def note(self, text: str, msg_type: str = "-") -> None:
        """Drop a free-form annotation into the trace."""
        trace = self.ctx.trace
        if trace.enabled:
            trace.record(self.sim.now, self.name, "note", msg_type, text)

    def verdict(self, verdict: str) -> None:
        """Record a security accept/reject verdict (metrics + trace)."""
        self.ctx.metrics.on_verdict(verdict)
        trace = self.ctx.trace
        if trace.enabled:
            trace.record(self.sim.now, self.name, "verdict", "-", verdict)

    def __repr__(self) -> str:
        return f"Node({self.name}, ip={self.ip})"
