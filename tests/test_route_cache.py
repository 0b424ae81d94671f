"""Unit tests for the DSR route cache."""

import pytest

from repro.ipv6.address import IPv6Address
from repro.routing.route_cache import CachedRoute, RouteCache

S = IPv6Address("fec0::5")
A = IPv6Address("fec0::a")
B = IPv6Address("fec0::b")
C = IPv6Address("fec0::c")
D = IPv6Address("fec0::d")


def entry(dest=D, route=(A, B), t=0.0, shareable=False):
    kw = {}
    if shareable:
        kw = dict(crep_seq=1, crep_signature=b"sig", crep_public_key=None, crep_rn=0)
    return CachedRoute(dest=dest, route=route, created_at=t, **kw)


def test_put_and_lookup():
    cache = RouteCache()
    cache.put(entry())
    routes = cache.routes_to(D, now=1.0)
    assert len(routes) == 1
    assert routes[0].route == (A, B)
    assert cache.has_route(D, now=1.0)
    assert not cache.has_route(A, now=1.0)


def test_multiple_routes_same_destination_coexist():
    cache = RouteCache()
    cache.put(entry(route=(A, B)))
    cache.put(entry(route=(C,)))
    assert len(cache.routes_to(D, now=0.0)) == 2


def test_duplicate_route_replaces():
    cache = RouteCache()
    cache.put(entry(t=0.0))
    cache.put(entry(t=5.0))
    routes = cache.routes_to(D, now=5.0)
    assert len(routes) == 1
    assert routes[0].created_at == 5.0


def test_ttl_expiry():
    cache = RouteCache(ttl=10.0)
    cache.put(entry(t=0.0))
    assert cache.has_route(D, now=9.0)
    assert not cache.has_route(D, now=11.0)
    assert len(cache) == 0  # pruned


def test_lru_eviction_at_capacity():
    cache = RouteCache(capacity=3)
    dests = [IPv6Address(i + 1) for i in range(4)]
    for d in dests:
        cache.put(entry(dest=d, route=(A,)))
    assert not cache.has_route(dests[0], now=0.0)  # oldest evicted
    assert all(cache.has_route(d, now=0.0) for d in dests[1:])


def test_best_shareable_prefers_shortest():
    cache = RouteCache()
    cache.put(entry(route=(A, B, C), shareable=True))
    cache.put(entry(route=(A,), shareable=True))
    cache.put(entry(route=()))  # shorter but not shareable
    best = cache.best_shareable(D, now=0.0)
    assert best.route == (A,)


def test_best_shareable_none_when_only_secondhand():
    cache = RouteCache()
    cache.put(entry(route=(A,)))
    assert cache.best_shareable(D, now=0.0) is None


def test_invalidate_link_directional():
    cache = RouteCache()
    cache.put(entry(route=(A, B)))  # path S->A->B->D
    assert cache.invalidate_link(B, A, src=S) == 0  # reverse direction: no hit
    assert cache.invalidate_link(A, B, src=S) == 1
    assert not cache.has_route(D, now=0.0)


def test_invalidate_link_first_and_last_hops():
    cache = RouteCache()
    cache.put(entry(route=(A, B)))
    assert cache.invalidate_link(S, A, src=S) == 1  # source's own first hop
    cache.put(entry(route=(A, B)))
    assert cache.invalidate_link(B, D, src=S) == 1  # final hop to dest


def test_invalidate_host():
    cache = RouteCache()
    cache.put(entry(dest=D, route=(A, B)))
    cache.put(entry(dest=C, route=(B,)))
    cache.put(entry(dest=C, route=(A,)))
    assert cache.invalidate_host(B) == 2
    assert cache.has_route(C, now=0.0)


def test_invalidate_host_as_destination():
    cache = RouteCache()
    cache.put(entry(dest=D, route=(A,)))
    assert cache.invalidate_host(D) == 1


def test_invalidate_dest():
    cache = RouteCache()
    cache.put(entry(dest=D, route=(A,)))
    cache.put(entry(dest=D, route=(B,)))
    cache.put(entry(dest=C, route=(B,)))
    assert cache.invalidate_dest(D) == 2
    assert cache.has_route(C, now=0.0)


def test_hops_and_contains():
    e = entry(route=(A, B))
    assert e.hops() == 3
    assert e.contains_host(A) and e.contains_host(D)
    assert not e.contains_host(C)
    assert e.contains_link(A, B, src=S)
    assert e.contains_link(S, A, src=S)
    assert e.contains_link(B, D, src=S)
    assert not e.contains_link(A, C, src=S)


def test_clear():
    cache = RouteCache()
    cache.put(entry())
    cache.clear()
    assert len(cache) == 0


def test_constructor_validation():
    with pytest.raises(ValueError):
        RouteCache(capacity=0)
    with pytest.raises(ValueError):
        RouteCache(ttl=0.0)


def test_lru_order_ttl_expiry_and_lookup_order_are_pinned():
    """Insertion order is LRU order: a re-put moves a route to the back,
    eviction takes the front, expiry keeps the order of the survivors,
    and routes_to lists one destination's routes in that order."""
    cache = RouteCache(capacity=4, ttl=10.0)
    r1, r2, r3 = entry(route=(A,), t=0.0), entry(route=(B,), t=1.0), entry(route=(C,), t=2.0)
    other = entry(dest=C, route=(A,), t=3.0)
    for e in (r1, r2, r3, other):
        cache.put(e)
    assert list(cache) == [r1, r2, r3, other]
    assert cache.routes_to(D, now=3.0) == [r1, r2, r3]

    r1_again = entry(route=(A,), t=4.0)
    cache.put(r1_again)  # refreshed: moves behind every other route
    assert list(cache) == [r2, r3, other, r1_again]
    assert cache.routes_to(D, now=4.0) == [r2, r3, r1_again]

    newest = entry(dest=B, route=(), t=5.0)
    cache.put(newest)  # over capacity: the least recently stored goes
    assert list(cache) == [r3, other, r1_again, newest]

    # r3 (t=2) is past its TTL at 12.5; the rest keep their order
    assert cache.routes_to(C, now=12.5) == [other]
    assert list(cache) == [other, r1_again, newest]
    assert cache.routes_to(D, now=14.5) == []
    assert list(cache) == [newest]
