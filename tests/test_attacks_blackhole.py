"""Black hole attack experiments (Section 4) as tests."""

import pytest

from repro.routing.dsr import PlainDSRRouter
from repro.scenarios.attacks import add_blackhole, add_identity_churner
from repro.scenarios.workloads import CBRTraffic
from conftest import two_path_scenario


def run_blackhole(router=None, hostile=True, seed=5, count=20, forge=False,
                  churn=False, trace=False, **config):
    builder = two_path_scenario(seed=seed, hostile_mode=hostile, **config)
    if router is not None:
        builder = builder.router(router)
    sc = builder.build()
    sc.trace.enabled = trace
    if churn:
        bh = add_identity_churner(sc, (200, 0), churn_interval=15.0)
    else:
        bh = add_blackhole(sc, (200, 0), forge_rreps=forge)
    sc.bootstrap_all()
    if churn:
        bh.router.start_churning()
    a, b = sc.hosts[0], sc.hosts[1]
    traffic = CBRTraffic(a, b.ip, interval=1.0, count=count)
    sc.run(duration=count * 1.0 + 40.0)
    return sc, bh, traffic


def test_secure_protocol_detects_and_routes_around_blackhole():
    sc, bh, traffic = run_blackhole()
    a = sc.hosts[0]
    # Losses are confined to the detection window ("after the network is
    # stable" the attack no longer succeeds -- paper, Section 4).
    assert traffic.delivered >= traffic.count - 5
    assert bh.router.packets_dropped > 0            # attack did fire
    assert a.router.credits.is_suspect(bh.ip)       # identity tracked
    assert sc.metrics.verdicts["probe.suspects_penalized"] >= 1


def test_blackhole_starved_after_detection():
    """After the penalty, the black hole stops seeing data traffic."""
    sc, bh, traffic = run_blackhole(count=30, trace=True)
    drops_by_time = [
        e.time for e in sc.trace.events
        if e.node == "blackhole" and e.kind == "note" and "dropped" in e.detail
    ]
    assert drops_by_time
    # All drops happened early (before detection), none in the last half.
    assert max(drops_by_time) < sc.sim.now / 2


def test_forged_rrep_blackhole_rejected_by_secure_protocol():
    sc, bh, traffic = run_blackhole(forge=True)
    # The forged RREPs fail the CGA check at the source...
    assert bh.router.rreps_forged > 0
    assert sc.metrics.verdicts["rrep.rejected.bad_cga"] >= 1
    # ...so the attack degenerates and traffic flows (modulo the
    # detection window).
    assert traffic.delivered >= traffic.count - 5


def test_plain_dsr_accepts_forged_rrep():
    """Against plain DSR the attraction forgery works."""
    sc, bh, traffic = run_blackhole(router=PlainDSRRouter, hostile=False, forge=True)
    assert bh.router.rreps_forged > 0
    assert bh.router.packets_dropped > 0
    # No verdicts: nothing was verified, the forged route was believed.
    assert sc.metrics.verdicts["rrep.rejected.bad_cga"] == 0


def test_identity_churner_never_accumulates_trust():
    """Fresh identities start at the credit floor: churning buys nothing."""
    sc, bh, traffic = run_blackhole(churn=True, count=30)
    a = sc.hosts[0]
    assert bh.router.identities_used >= 1           # it did churn
    assert traffic.delivered >= traffic.count - 5   # network survives
    # Whatever identity it holds now has at most the initial credit.
    if bh.ip is not None:
        assert a.router.credits.credit(bh.ip) <= a.config.credit_initial


def test_partial_dropper_also_detected():
    """A stochastic (50%) dropper is still caught by probing eventually."""
    builder = two_path_scenario(seed=9, hostile_mode=True,
                                probe_trigger_failures=2)
    sc = builder.build()
    bh = add_blackhole(sc, (200, 0), drop_probability=0.5)
    sc.bootstrap_all()
    a, b = sc.hosts[0], sc.hosts[1]
    traffic = CBRTraffic(a, b.ip, interval=1.0, count=40)
    sc.run(duration=90.0)
    assert traffic.delivered >= 36  # most packets get through
    assert bh.router.packets_dropped > 0
