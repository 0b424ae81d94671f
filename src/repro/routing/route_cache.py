"""The DSR route cache.

Stores discovered routes per destination, with TTL expiry and LRU
eviction.  For routes learned from a first-hand RREP the cache also
keeps the destination's signature materials, which is what lets the
holder answer later RREQs with a verifiable CREP (Section 3.3); routes
learned via CREP are usable but not re-shareable (their cached-leg
signature covers a different source).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.keys import PublicKey
from repro.ipv6.address import IPv6Address

Route = tuple[IPv6Address, ...]


@dataclass
class CachedRoute:
    """One cached route to ``dest`` (intermediate hops only in ``route``)."""

    dest: IPv6Address
    route: Route
    created_at: float
    #: Materials needed to hand out a CREP: the original RREP signature by
    #: the destination, over (SIP=holder, seq, route).  None for routes
    #: learned second-hand (via CREP) -- those cannot be re-shared.
    crep_seq: int | None = None
    crep_signature: bytes | None = None
    crep_public_key: PublicKey | None = None
    crep_rn: int | None = None

    @property
    def shareable(self) -> bool:
        return self.crep_signature is not None

    def hops(self) -> int:
        """Path length in hops (intermediates + final hop)."""
        return len(self.route) + 1

    def contains_link(self, a: IPv6Address, b: IPv6Address, src: IPv6Address) -> bool:
        """True if the directed link a->b appears on src -> ... -> dest."""
        path = (src,) + self.route + (self.dest,)
        for u, v in zip(path, path[1:]):
            if u == a and v == b:
                return True
        return False

    def contains_host(self, host: IPv6Address) -> bool:
        return host in self.route or host == self.dest


class RouteCache:
    """TTL + LRU cache of :class:`CachedRoute`, multiple routes per dest."""

    def __init__(self, capacity: int = 64, ttl: float = 60.0):
        if capacity <= 0 or ttl <= 0:
            raise ValueError("capacity and ttl must be positive")
        self.capacity = capacity
        self.ttl = ttl
        # Insertion order is LRU order; key is (dest, route) so alternates
        # coexist.  A plain dict: iterating an OrderedDict looks each key
        # up again, re-hashing every address of every cached route.
        self._entries: dict[tuple[IPv6Address, Route], CachedRoute] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        """Every cached route, least recently stored first."""
        return iter(self._entries.values())

    def put(self, entry: CachedRoute) -> None:
        key = (entry.dest, entry.route)
        self._entries.pop(key, None)
        self._entries[key] = entry
        while len(self._entries) > self.capacity:
            del self._entries[next(iter(self._entries))]

    def routes_to(self, dest: IPv6Address, now: float) -> list[CachedRoute]:
        """All live routes to ``dest`` (expired ones are pruned on the way)."""
        self._expire(now)
        out = []
        for (d, _r), entry in self._entries.items():
            if d == dest:
                out.append(entry)
        return out

    def best_shareable(self, dest: IPv6Address, now: float) -> CachedRoute | None:
        """Shortest live shareable route (for answering with a CREP)."""
        shareable = [e for e in self.routes_to(dest, now) if e.shareable]
        return min(shareable, key=lambda e: len(e.route)) if shareable else None

    def has_route(self, dest: IPv6Address, now: float) -> bool:
        return bool(self.routes_to(dest, now))

    def invalidate_link(self, a: IPv6Address, b: IPv6Address, src: IPv6Address) -> int:
        """Drop every route using the directed link a->b.  Returns count."""
        doomed = [
            k for k, e in self._entries.items() if e.contains_link(a, b, src)
        ]
        for k in doomed:
            del self._entries[k]
        return len(doomed)

    def invalidate_host(self, host: IPv6Address) -> int:
        """Drop every route through ``host`` (suspected hostile)."""
        doomed = [k for k, e in self._entries.items() if e.contains_host(host)]
        for k in doomed:
            del self._entries[k]
        return len(doomed)

    def invalidate_dest(self, dest: IPv6Address) -> int:
        doomed = [k for k in self._entries if k[0] == dest]
        for k in doomed:
            del self._entries[k]
        return len(doomed)

    def clear(self) -> None:
        self._entries.clear()

    def _expire(self, now: float) -> None:
        doomed = [
            k for k, e in self._entries.items() if now - e.created_at > self.ttl
        ]
        for k in doomed:
            del self._entries[k]
