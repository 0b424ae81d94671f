"""Experiment P2 -- routing overhead vs hop count.

The protocol's price over plain DSR is the per-hop identity proof in the
SRR (signature + public key + rn per intermediate) plus the signature
checks at the destination.  This sweep measures, per path length:
discovery latency, RREQ growth per hop in bytes, and crypto operations
per discovery -- and compares the secure protocol against plain DSR on
identical topologies (shape: overhead linear in hops; DSR flat).
"""

from repro.routing.dsr import PlainDSRRouter

from _harness import bootstrapped, chain, print_rows

HOPS = (2, 4, 6)


def measure(hops, router=None, seed=241):
    builder = chain(hops + 1, seed=seed)
    if router is not None:
        builder = builder.router(router)
    sc = bootstrapped(builder, settle=2.0)
    sc.trace.enabled = True
    m = sc.metrics
    sign0, verify0 = m.crypto_total("sign"), m.crypto_total("verify")

    a, b = sc.hosts[0], sc.hosts[-1]
    a.router.discover(b.ip)
    sc.run(duration=5.0)
    assert a.router.cache.has_route(b.ip, sc.sim.now)

    # RREQ byte accounting over the whole discovery flood.
    from repro.messages.codec import encode_message

    rreq_sizes = [
        len(encode_message(e.payload))
        for e in sc.trace.events
        if e.kind == "send" and e.msg_type == "RREQ"
    ]
    return {
        "hops": hops,
        "latency_ms": m.mean_discovery_latency * 1e3,
        "rreq_min": min(rreq_sizes),
        "rreq_max": max(rreq_sizes),
        "rreq_total": sum(rreq_sizes),
        "signs": m.crypto_total("sign") - sign0,
        "verifies": m.crypto_total("verify") - verify0,
    }


def test_routing_overhead_scaling(benchmark):
    secure = [measure(h) for h in HOPS]
    plain = [measure(h, router=PlainDSRRouter) for h in HOPS]

    # Shape 1: the secure flood costs strictly more bytes at every path
    # length (per-hop identity proofs vs bare route-record entries), and
    # the premium grows with hops.
    premiums = [s["rreq_total"] - p["rreq_total"] for s, p in zip(secure, plain)]
    assert all(d > 0 for d in premiums)
    assert premiums[-1] > premiums[0]
    # Shape 2: crypto work grows with path length under the secure
    # protocol; plain DSR hosts do none (the DNS node always relays
    # securely, so plain runs show only its constant contribution).
    assert secure[-1]["verifies"] > secure[0]["verifies"] > 0
    for s_, p_ in zip(secure, plain):
        assert s_["verifies"] > p_["verifies"]
        assert s_["signs"] > p_["signs"]
    # Shape 3: discovery latency grows with hops for both.
    assert secure[0]["latency_ms"] < secure[-1]["latency_ms"]

    rows = []
    for r, p in zip(secure, plain):
        rows.append([
            r["hops"],
            f'{r["latency_ms"]:.2f} / {p["latency_ms"]:.2f}',
            f'{r["rreq_max"]} / {p["rreq_max"]}',
            f'{r["signs"]} / {p["signs"]}',
            f'{r["verifies"]} / {p["verifies"]}',
        ])
    print_rows(
        "P2: discovery cost, secure / plain DSR",
        ["hops", "latency ms", "max RREQ bytes", "signs", "verifies"],
        rows,
    )

    benchmark.pedantic(lambda: measure(4)["hops"], rounds=2, iterations=1)


def test_crep_saves_a_full_discovery():
    """Cache hits answer locally: fewer flooded RREQ frames, same result."""
    sc = bootstrapped(chain(6, seed=251), settle=2.0)
    s, s_prime, d = sc.hosts[1], sc.hosts[0], sc.hosts[5]
    s.router.send_data(d.ip, b"prime")
    sc.run(duration=5.0)
    rreq_before = sc.metrics.msgs_sent["RREQ"]
    s_prime.router.send_data(d.ip, b"hit")
    sc.run(duration=10.0)
    rreq_during_hit = sc.metrics.msgs_sent["RREQ"] - rreq_before
    assert sc.metrics.creps_used >= 1
    # The flood died at the cache holder (n1): only S' and nodes the
    # flood reached before the CREP short-circuited it sent RREQs.
    assert rreq_during_hit < rreq_before
