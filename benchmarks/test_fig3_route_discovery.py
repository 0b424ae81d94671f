"""Experiment F3 -- Figure 3 (RREQ / RREP / CREP sequence).

Reproduces the figure: S floods an RREQ toward D, every intermediate
appends its signed identity to the SRR, D verifies all of them and
returns a signed RREP; later another source S' discovers the same
destination and is answered from S's cache with a two-leg CREP.  The
transcript is the figure; assertions pin the causality; the benchmark
times one full secure discovery.
"""

from repro.trace.sequence import transcript

from _harness import bootstrapped, chain


def test_fig3_rreq_rrep_sequence():
    sc = bootstrapped(chain(5, seed=173))
    sc.trace.enabled = True
    s, d = sc.hosts[0], sc.hosts[4]
    start = sc.sim.now
    s.router.discover(d.ip)
    sc.run(duration=5.0)

    events = [e for e in sc.trace.events if e.time >= start]
    rreq_relays = [e for e in events if e.kind == "send" and e.msg_type == "RREQ"
                   and e.node not in (s.name,)]
    rrep_sends = [e for e in events if e.kind == "send" and e.msg_type == "RREP"]
    verdicts = [e.detail for e in events if e.kind == "verdict"]

    assert rreq_relays                       # the flood propagated
    assert rrep_sends[0].node == d.name      # D originated the reply
    assert "rreq.accepted" in verdicts       # D verified source + all hops
    assert "rrep.accepted" in verdicts       # S verified D's signature
    route = s.router.cache.routes_to(d.ip, sc.sim.now)[0].route
    assert route == (sc.hosts[1].ip, sc.hosts[2].ip, sc.hosts[3].ip)

    # Every relayed RREQ grew the SRR by exactly one verifiable entry.
    srr_sizes = {}
    for e in rreq_relays:
        srr_sizes.setdefault(e.node, len(e.payload.srr))
    for node_name, size in srr_sizes.items():
        assert size >= 1

    print("\nFigure 3 (reproduced), discovery branch:")
    print(transcript(sc.trace, msg_types={"RREQ", "RREP"})[-2500:])


def test_fig3_cached_route_reply_sequence():
    sc = bootstrapped(chain(5, seed=179))
    sc.trace.enabled = True
    s_prime, s, d = sc.hosts[0], sc.hosts[1], sc.hosts[4]

    s.router.send_data(d.ip, b"prime the cache")
    sc.run(duration=5.0)
    assert s.router.cache.best_shareable(d.ip, sc.sim.now) is not None

    start = sc.sim.now
    delivered = []
    s_prime.router.send_data(d.ip, b"answered from cache",
                             on_delivered=lambda: delivered.append(1))
    sc.run(duration=10.0)

    events = [e for e in sc.trace.events if e.time >= start]
    crep_sends = [e for e in events if e.kind == "send" and e.msg_type == "CREP"]
    assert crep_sends and crep_sends[0].node == s.name   # cache holder answered
    assert any(e.kind == "verdict" and e.detail == "crep.accepted" for e in events)
    assert delivered == [1]
    # D itself never had to answer: no RREP originated by D this round.
    assert not any(e.kind == "send" and e.msg_type == "RREP" and e.node == d.name
                   for e in events)

    print("\nFigure 3 (reproduced), cached-route-reply branch:")
    print(transcript(sc.trace, msg_types={"RREQ", "CREP"})[-2000:])


def test_bench_secure_discovery_4hops(benchmark):
    sc = bootstrapped(chain(5, seed=181))
    s, d = sc.hosts[0], sc.hosts[4]
    counter = [0]

    def discover_fresh():
        # Clear state so every round is a full flood + verification.
        s.router.cache.clear()
        s.router._recent_discoveries.clear()
        counter[0] += 1
        s.router.discover(d.ip)
        sc.run(duration=3.0)
        assert s.router.cache.has_route(d.ip, sc.sim.now)

    benchmark.pedantic(discover_fresh, rounds=5, iterations=1)
