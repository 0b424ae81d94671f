"""RERR spam/forgery attack experiments (Section 4) as tests."""

import pytest

from repro.scenarios.attacks import add_rerr_spammer
from repro.scenarios.workloads import CBRTraffic
from tests.conftest import two_path_scenario


def run_spammer(seed=5, also_drop=False, count=20, hostile=False, trace=False,
                **config):
    """Normal (shortest-first) mode by default: the spammer sits on the
    shortest route and keeps being re-selected after every report, which
    is the regime the paper's RERR-frequency tracking is designed for.
    (In hostile mode the detour's earned credit starves the spammer after
    a single report -- see test_hostile_mode_starves_spammer_immediately.)

    The short route-cache TTL forces periodic rediscovery; with DSR's
    default long-lived caches a single false RERR permanently deflects
    the flow and the spammer only ever gets one shot.
    """
    config.setdefault("route_cache_ttl", 4.0)
    sc = two_path_scenario(seed=seed, hostile_mode=hostile, **config).build()
    sc.trace.enabled = trace
    spammer = add_rerr_spammer(sc, (200.0, 0.0), also_drop=also_drop)
    sc.bootstrap_all()
    a, b = sc.hosts[0], sc.hosts[1]
    traffic = CBRTraffic(a, b.ip, interval=1.0, count=count)
    sc.run(duration=count + 40.0)
    return sc, spammer, traffic


def test_onpath_spam_initially_accepted_then_reporter_suspected():
    """The paper: S must accept on-path RERRs at first, but frequency
    tracking identifies and penalises the spammer."""
    sc, spammer, traffic = run_spammer()
    a = sc.hosts[0]
    assert spammer.router.rerrs_spammed >= 1
    assert sc.metrics.verdicts["rerr.accepted"] >= 1           # initial acceptance
    assert sc.metrics.verdicts["rerr.reporter_suspected"] >= 1  # then tracked
    assert a.router.credits.is_suspect(spammer.ip)


def test_traffic_mostly_recovers_despite_spam():
    """Each spam episode costs at most the packet in flight; the flow
    survives (paper: route around the hostile area)."""
    sc, spammer, traffic = run_spammer()
    assert traffic.delivered >= traffic.count - 2


def test_spam_plus_drop_still_recovers():
    sc, spammer, traffic = run_spammer(also_drop=True)
    assert traffic.delivered >= traffic.count - 2
    assert sc.hosts[0].router.credits.is_suspect(spammer.ip)


def test_spammer_starved_after_suspicion():
    """Once suspected, routes through the spammer stop being chosen."""
    sc, spammer, traffic = run_spammer(count=30, trace=True)
    spam_times = [
        e.time for e in sc.trace.events
        if e.node == "spammer" and e.kind == "send" and e.msg_type == "RERR"
    ]
    assert spam_times
    assert max(spam_times) < sc.sim.now * 0.75  # no spam opportunities late


def test_hostile_mode_with_stable_cache_starves_spammer_immediately():
    """With DSR's normal long-lived route cache, hostile mode deflects the
    flow permanently after the spammer's very first report."""
    sc, spammer, traffic = run_spammer(hostile=True, route_cache_ttl=60.0)
    assert traffic.delivered == traffic.count
    # A handful of early shots while the detour is still unproven, then
    # starved for the rest of the run.
    assert spammer.router.rerrs_spammed <= 5


def test_offpath_forged_rerr_rejected_by_on_route_check():
    sc = two_path_scenario(seed=83, hostile_mode=True).build()
    spammer = add_rerr_spammer(sc, (100.0, -140.0))  # adjacent to n0, off path
    sc.bootstrap_all()
    a, b = sc.hosts[0], sc.hosts[1]
    a.router.send_data(b.ip, b"warm-up")
    sc.run(duration=10.0)
    assert sc.metrics.delivered(a.ip, b.ip) == 1

    # The spammer (never on a->b routes) forges a report about n2->n1.
    spammer.router.forge_offpath_rerr(a.ip, sc.hosts[2].ip)
    sc.run(duration=5.0)
    assert sc.metrics.verdicts["rerr.rejected.not_on_route"] >= 1
    # Routes are untouched.
    assert a.router.cache.has_route(b.ip, sc.sim.now)


def test_rerr_threshold_config_controls_sensitivity():
    """A higher suspicion threshold tolerates more reports before penalty."""
    sc_low, spam_low, _ = run_spammer(seed=5, rerr_suspicion_threshold=2)
    sc_high, spam_high, _ = run_spammer(seed=5, rerr_suspicion_threshold=50)
    a_low = sc_low.hosts[0]
    a_high = sc_high.hosts[0]
    assert a_low.router.credits.is_suspect(spam_low.ip)
    assert not a_high.router.credits.is_suspect(spam_high.ip)
