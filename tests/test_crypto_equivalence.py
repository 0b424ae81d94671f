"""Crypto fast-path equivalence: byte-identical across the 2x2x2 matrix.

The crypto fast path (scenario-wide shared verify cache, batched SRR
verification, process-wide keypair pool) must not change *anything*
observable: same seed + same scenario must yield identical metrics
summaries, identical traces, identical medium counters, and the same
number of kernel events whichever flag combination ran.  These tests
cover the full 2x2x2 matrix (``crypto_shared_cache`` x
``crypto_batch_verify`` x
``crypto_keypair_pool``) under loss, random-waypoint mobility, churn --
and, critically, under active adversaries: a cached *negative* verdict
must never mask a forged signature, and a cached *positive* verdict
must never launder a replayed or impersonated message.
"""

import itertools

from repro.phy.mobility import ChurnModel
from repro.scenarios import ScenarioBuilder
from repro.scenarios.attacks import add_dns_impersonator, add_forger, add_replayer
from conftest import chain_scenario, two_path_scenario

#: Every (shared_cache, batch_verify, keypair_pool) combination; the
#: all-off corner (the pre-fast-path behaviour) is the reference.
COMBOS = list(itertools.product((False, True), repeat=3))


def crypto_flags(combo) -> dict:
    shared, batch, pool = combo
    return {
        "crypto_shared_cache": shared,
        "crypto_batch_verify": batch,
        "crypto_keypair_pool": pool,
    }


def fingerprint(scenario) -> dict:
    """Everything observable about a finished run."""
    return {
        "summary": scenario.metrics.summary(),
        "verdicts": dict(scenario.metrics.verdicts),
        "trace": [
            (e.time, e.node, e.kind, e.msg_type, e.detail)
            for e in scenario.trace.events
        ],
        "medium": (
            scenario.medium.total_frames,
            scenario.medium.total_bytes,
            scenario.medium.dropped_frames,
        ),
        "events": scenario.sim.events_executed,
    }


def assert_all_identical(fingerprints: dict) -> None:
    (ref_combo, ref), *rest = fingerprints.items()
    assert ref["trace"], "empty trace: the comparison would be vacuous"
    for combo, fp in rest:
        for key in ref:
            assert fp[key] == ref[key], (
                f"{combo} diverges from {ref_combo} on {key!r}"
            )


def run_lossy_grid(combo) -> dict:
    """Static grid under loss with per-hop verification: multi-entry SRRs
    exercise the batched verify path at both relays and destinations."""
    sc = (
        ScenarioBuilder(seed=42)
        .grid(12, spacing=180.0)
        .radio(250.0, loss_rate=0.1)
        .with_dns()
        .config(verify_at_intermediate=True, **crypto_flags(combo))
        .build()
    )
    sc.trace.enabled = True
    sc.bootstrap_all()
    a, z = sc.hosts[0], sc.hosts[-1]
    for k in range(5):
        sc.sim.schedule(k * 1.0, sc.send_data, a, z.ip, b"x" * 32)
    sc.run(duration=20.0)
    return fingerprint(sc)


def run_mobile_with_churn(combo) -> dict:
    sc = (
        ScenarioBuilder(seed=7)
        .uniform(10, (700.0, 700.0))
        .radio(250.0, loss_rate=0.05)
        .with_dns()
        .random_waypoint(speed=(2.0, 8.0), pause=2.0)
        .config(**crypto_flags(combo))
        .build()
    )
    sc.trace.enabled = True
    churn = ChurnModel(
        sc.sim, sc.medium, [h.link_id for h in sc.hosts],
        interval=5.0, min_present=4,
    )
    churn.start()
    sc.bootstrap_all()
    a, z = sc.hosts[0], sc.hosts[1]
    for k in range(4):
        sc.sim.schedule(k * 2.0, sc.send_data, a, z.ip, b"y" * 48)
    sc.run(duration=25.0)
    return fingerprint(sc)


def run_forger(combo) -> dict:
    """Hop-identity forgery: the spoofed SRR entry must be rejected with
    ``hop_bad_cga`` in every combination -- a shared cache or batch pass
    may never let the forged hop through."""
    sc = two_path_scenario(seed=59, verify_at_intermediate=True,
                           **crypto_flags(combo)).build()
    sc.trace.enabled = True
    victim = sc.hosts[2]
    sc.bootstrap_all()
    forger = add_forger(sc, (200.0, 0.0), spoof_hop_ip=victim.ip)
    forger.bootstrap.start("")
    sc.run(duration=5.0)
    a, b = sc.hosts[0], sc.hosts[1]
    a.router.send_data(b.ip, b"x")
    sc.run(duration=15.0)
    return fingerprint(sc)


def run_replayer(combo) -> dict:
    """Replayed RREPs carry valid signatures over stale sequence numbers:
    a cached *positive* verdict must still be rejected as stale."""
    sc = chain_scenario(n=4, seed=47, **crypto_flags(combo)).build()
    sc.trace.enabled = True
    add_replayer(sc, (300.0, 120.0))
    sc.bootstrap_all()
    a, b = sc.hosts[0], sc.hosts[3]
    a.router.send_data(b.ip, b"one")
    sc.run(duration=10.0)
    a.router.cache.clear()
    a.router._recent_discoveries.clear()
    a.router.send_data(b.ip, b"two")
    sc.run(duration=10.0)
    return fingerprint(sc)


def run_dns_impersonator(combo) -> dict:
    """A rogue resolver answers name lookups with a forged binding; the
    impersonated answer fails verification identically in every combo."""
    from repro.ipv6.cga import cga_address

    sc = chain_scenario(n=4, seed=67, **crypto_flags(combo)).build()
    sc.trace.enabled = True
    sc.bootstrap_all(names={"n3": "bob.manet"})
    sc.run(duration=8.0)
    mallory_answer = cga_address(sc.hosts[1].public_key, rn=123)
    imp = add_dns_impersonator(sc, (300.0, 30.0), fake_answer=mallory_answer,
                               drop_real_query=False)
    imp.bootstrap.start("")
    sc.run(duration=5.0)
    results = []
    sc.hosts[0].dns_client.resolve("bob.manet", results.append)
    sc.run(duration=15.0)
    assert results == [sc.hosts[3].ip]  # never the poison, in any combo
    return fingerprint(sc)


def test_lossy_grid_is_byte_identical():
    assert_all_identical({c: run_lossy_grid(c) for c in COMBOS})


def test_mobile_churn_is_byte_identical():
    assert_all_identical({c: run_mobile_with_churn(c) for c in COMBOS})


def test_forger_rejected_identically_across_matrix():
    results = {c: run_forger(c) for c in COMBOS}
    # the attack actually fired and was caught in the reference...
    ref = results[COMBOS[0]]
    assert ref["verdicts"]["rreq.rejected.hop_bad_cga"] >= 1
    # ... and every fast-path combination saw the byte-identical story
    assert_all_identical(results)


def test_replayer_rejected_identically_across_matrix():
    results = {c: run_replayer(c) for c in COMBOS}
    ref = results[COMBOS[0]]
    assert ref["verdicts"]["rrep.rejected.stale_seq"] >= 1
    assert_all_identical(results)


def test_dns_impersonator_rejected_identically_across_matrix():
    results = {c: run_dns_impersonator(c) for c in COMBOS}
    assert_all_identical(results)
