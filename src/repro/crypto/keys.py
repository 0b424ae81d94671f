"""Key-pair containers shared by all crypto backends.

A :class:`PublicKey` is the object that travels inside protocol messages
(``X_PK`` in Table 2); its :meth:`PublicKey.encode` form feeds both the
codec and the CGA hash.  :class:`PrivateKey` never leaves the owning node
-- the message codec refuses to serialise it, which is how the simulation
enforces "an adversary cannot learn SK".
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class PublicKey:
    """A backend-tagged public key.

    ``material`` is backend-specific (e.g. ``(n, e)`` for RSA, a 16-byte
    identifier for simulated signatures).  Equality and hashing go through
    the canonical encoding so keys can be used as dict keys.
    """

    backend: str
    material: Any

    def encode(self) -> bytes:
        """Canonical byte encoding, stable across runs; feeds H(PK, rn)."""
        from repro.crypto.backend import get_backend

        return get_backend(self.backend).encode_public_key(self)

    def __hash__(self) -> int:
        return hash((self.backend, self.encode()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PublicKey):
            return NotImplemented
        return self.backend == other.backend and self.encode() == other.encode()

    def __repr__(self) -> str:
        return f"PublicKey({self.backend}, {self.encode().hex()[:16]}...)"


@dataclass(frozen=True)
class PrivateKey:
    """A backend-tagged private key.  Never serialised, never transmitted."""

    backend: str
    material: Any = field(repr=False)

    def __repr__(self) -> str:
        return f"PrivateKey({self.backend}, <secret>)"


@dataclass(frozen=True)
class KeyPair:
    """A host's ``(PK, SK)`` pair."""

    public: PublicKey
    private: PrivateKey

    @property
    def backend(self) -> str:
        return self.public.backend

    def __repr__(self) -> str:
        return f"KeyPair({self.public!r})"


class KeypairPool:
    """Process-wide ``(backend, seed)`` -> :class:`KeyPair` memo.

    Key generation is deterministic (the :class:`CryptoBackend`
    contract), so a pair derived once can be reused by every later run
    that asks for the same ``(backend_name, seed)`` -- which is exactly
    what a batched campaign worker does: re-running the same spec at
    different parameters re-derives the same node keys, and RSA keygen
    (about 2.5 ms per 512-bit key) dwarfs everything else at N=1000.
    The pool returns **the pair the backend would have regenerated**,
    byte for byte, which is what makes reuse observationally
    transparent.

    On a hit the pair is re-adopted into the *requesting* backend
    instance (:meth:`CryptoBackend.adopt_keypair`): per-scenario backends
    each need their own simsig oracle entry even though the pair itself
    is shared.  Bounded LRU so a long-lived worker sweeping many seeds
    cannot grow without bound.
    """

    def __init__(self, capacity: int = 8192):
        if capacity < 1:
            raise ValueError("KeypairPool capacity must be >= 1")
        self.capacity = int(capacity)
        self._entries: OrderedDict[tuple[str, bytes], KeyPair] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, backend: Any, seed: bytes) -> KeyPair:
        """The pair for ``(backend.name, seed)``, deriving it on first use.

        ``backend`` is a :class:`~repro.crypto.backend.CryptoBackend`
        (duck-typed here to keep this module import-light).
        """
        key = (backend.name, seed)
        pair = self._entries.get(key)
        if pair is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            backend.adopt_keypair(pair)
            return pair
        self.misses += 1
        pair = backend.generate_keypair(seed)
        self._entries[key] = pair
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return pair

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def stats(self) -> dict:
        """JSON-clean execution counters (for crypto_stats / telemetry)."""
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:
        return (
            f"KeypairPool(size={len(self._entries)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


#: The campaign-level pool: one per process, shared by every scenario a
#: reused worker executes (gated per scenario by
#: ``NodeConfig.crypto_keypair_pool``).
DEFAULT_KEYPAIR_POOL = KeypairPool()
