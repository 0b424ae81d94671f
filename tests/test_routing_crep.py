"""Integration tests for cached route replies (CREP, Section 3.3)."""

from conftest import chain_scenario


def test_crep_answers_from_cache():
    """S' learns a route to D from S's cache without reaching D."""
    sc = chain_scenario(n=5, seed=7).build()
    sc.bootstrap_all()
    s_prime, s, d = sc.hosts[0], sc.hosts[1], sc.hosts[4]

    # Step 1: S (n1) discovers D (n4) first and caches the route.
    s.router.send_data(d.ip, b"warm-up")
    sc.run(duration=5.0)
    assert s.router.cache.best_shareable(d.ip, sc.sim.now) is not None

    # Step 2: S' (n0) asks for D; S answers with a CREP.
    delivered = []
    s_prime.router.send_data(d.ip, b"via-cache", on_delivered=lambda: delivered.append(1))
    sc.run(duration=10.0)
    assert delivered == [1]
    assert sc.metrics.verdicts["crep.accepted"] >= 1
    assert sc.metrics.creps_used >= 1
    # S' cached the spliced route: n1, n2, n3 between n0 and n4.
    routes = s_prime.router.cache.routes_to(d.ip, sc.sim.now)
    assert any(r.route == (sc.hosts[1].ip, sc.hosts[2].ip, sc.hosts[3].ip)
               for r in routes)


def test_crep_learned_route_is_not_reshareable():
    sc = chain_scenario(n=5, seed=7).build()
    sc.bootstrap_all()
    s_prime, s, d = sc.hosts[0], sc.hosts[1], sc.hosts[4]
    s.router.send_data(d.ip, b"warm-up")
    sc.run(duration=5.0)
    s_prime.router.send_data(d.ip, b"via-cache")
    sc.run(duration=10.0)
    if sc.metrics.verdicts["crep.accepted"]:
        # The second-hand route must not be shareable onward.
        assert s_prime.router.cache.best_shareable(d.ip, sc.sim.now) is None


def test_crep_disabled_by_config():
    sc = chain_scenario(n=5, seed=7, enable_crep=False).build()
    sc.bootstrap_all()
    s_prime, s, d = sc.hosts[0], sc.hosts[1], sc.hosts[4]
    s.router.send_data(d.ip, b"warm-up")
    sc.run(duration=5.0)
    s_prime.router.send_data(d.ip, b"direct")
    sc.run(duration=10.0)
    assert sc.metrics.creps_used == 0
    assert sc.metrics.delivered(s_prime.ip, d.ip) == 1  # normal RREP path


def test_forged_crep_cached_leg_rejected():
    """A CREP whose cached leg is not signed by D fails verification at S'."""
    sc = chain_scenario(n=4, seed=7).build()
    sc.bootstrap_all()
    s_prime, mallory, d = sc.hosts[0], sc.hosts[1], sc.hosts[3]

    # Mallory pretends to hold a cached route to D.
    from repro.messages import signing
    from repro.messages.routing import CREP

    # Trigger a real discovery so a pending discovery exists at S'
    # (created synchronously; do not run the sim or it may complete).
    s_prime.router.discover(d.ip)
    disc = s_prime.router._pending_discovery[d.ip]

    fake_cached_route = (sc.hosts[2].ip,)
    crep = CREP(
        sprime_ip=s_prime.ip,
        sip=mallory.ip,
        dip=d.ip,
        fresh_seq=disc.seq,
        fresh_route=(),
        fresh_signature=mallory.sign(
            signing.crep_fresh_leg_payload(s_prime.ip, disc.seq, ())
        ),
        fresh_public_key=mallory.public_key,
        fresh_rn=mallory.cga_params.rn,
        cached_seq=1,
        cached_route=fake_cached_route,
        # Signed by mallory, not by D: the cached-leg CGA check must fail.
        cached_signature=mallory.sign(
            signing.crep_cached_leg_payload(mallory.ip, 1, fake_cached_route)
        ),
        cached_public_key=mallory.public_key,
        cached_rn=mallory.cga_params.rn,
    )
    mallory.unicast_ip(s_prime.ip, crep)
    sc.run(duration=1.0)
    assert sc.metrics.verdicts["crep.rejected.cached_bad_cga"] >= 1


def test_crep_with_a_fresh_leg_that_does_not_verify_is_rejected():
    """The cache holder's real cached leg, under a fresh-leg signature
    that does not verify: S' must reject the CREP and cache nothing.
    The same CREP with the holder's real fresh-leg signature is then
    accepted, so the fresh leg alone decides."""
    from repro.messages import signing
    from repro.messages.routing import CREP
    from repro.phy.medium import Frame

    sc = chain_scenario(n=5, seed=7).build()
    sc.bootstrap_all()
    s_prime, s, d = sc.hosts[0], sc.hosts[1], sc.hosts[4]
    s.router.send_data(d.ip, b"warm-up")
    sc.run(duration=5.0)
    cached = s.router.cache.best_shareable(d.ip, sc.sim.now)
    assert cached is not None
    assert not s_prime.router.cache.has_route(d.ip, sc.sim.now)

    # A live discovery at S' (its RREQ flood stays queued: the CREPs
    # below are handed to S' before the simulation runs again).
    s_prime.router.discover(d.ip)
    seq = s_prime.router._pending_discovery[d.ip].seq
    fresh_signature = s.sign(signing.crep_fresh_leg_payload(s_prime.ip, seq, ()))
    crep = CREP(
        sprime_ip=s_prime.ip,
        sip=s.ip,
        dip=d.ip,
        fresh_seq=seq,
        fresh_route=(),
        fresh_signature=bytes(b ^ 0xFF for b in fresh_signature),
        fresh_public_key=s.public_key,
        fresh_rn=s.cga_params.rn,
        cached_seq=cached.crep_seq,
        cached_route=cached.route,
        cached_signature=cached.crep_signature,
        cached_public_key=cached.crep_public_key,
        cached_rn=cached.crep_rn,
    )

    def deliver(msg):
        s_prime._on_frame(Frame(s.link_id, s_prime.link_id, s.ip, msg, msg.wire_size()))

    deliver(crep)
    assert sc.metrics.verdicts["crep.rejected.fresh_bad_signature"] == 1
    assert sc.metrics.verdicts["crep.accepted"] == 0
    assert not s_prime.router.cache.has_route(d.ip, sc.sim.now)

    deliver(crep.replace(fresh_signature=fresh_signature))
    assert sc.metrics.verdicts["crep.accepted"] == 1
    assert s_prime.router.cache.has_route(d.ip, sc.sim.now)


def test_crep_loop_splice_falls_back_to_relay():
    """If splicing would revisit a node, the holder relays instead."""
    sc = chain_scenario(n=4, seed=7).build()
    sc.bootstrap_all()
    a, b, c, d = sc.hosts
    # b discovers a: cached route at b toward a is direct (no hops).
    b.router.send_data(a.ip, b"x")
    sc.run(duration=5.0)
    # Now d discovers a; the RREQ arrives at b via c, fresh route (c, b)...
    # wait: fresh_route for b as holder = hops d->...->b = (c,). Splice:
    # (c,) + (b,) + () -> full path d, c, b, a: loop-free, CREP fires.
    delivered = []
    d.router.send_data(a.ip, b"y", on_delivered=lambda: delivered.append(1))
    sc.run(duration=10.0)
    assert delivered == [1]


def test_stale_crep_rejected():
    """A CREP answering no live discovery (wrong seq) is rejected."""
    sc = chain_scenario(n=5, seed=7).build()
    sc.trace.enabled = True
    sc.bootstrap_all()
    s_prime, s, d = sc.hosts[0], sc.hosts[1], sc.hosts[4]
    s.router.send_data(d.ip, b"warm-up")
    sc.run(duration=5.0)
    s_prime.router.send_data(d.ip, b"first")
    sc.run(duration=10.0)
    creps = [e.payload for e in sc.trace.events
             if e.kind == "recv" and e.msg_type == "CREP" and e.node == s_prime.name]
    assert creps, "no CREP captured in this topology/seed"
    # Replay the old CREP after its grace window expired.
    sc.run(duration=5.0)
    from repro.phy.medium import Frame

    s_prime._on_frame(Frame(s.link_id, s_prime.link_id, s.ip, creps[-1], 10))
    sc.run(duration=1.0)
    assert sc.metrics.verdicts["crep.rejected.stale_seq"] >= 1
