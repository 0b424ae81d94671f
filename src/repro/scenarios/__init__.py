"""Scenario assembly: network builders, traffic workloads, attack wiring.

:class:`~repro.scenarios.builder.ScenarioBuilder` is the main entry
point for examples, tests and benchmarks::

    scenario = (
        ScenarioBuilder(seed=7)
        .grid(16, spacing=180)
        .with_dns()
        .build()
    )
    scenario.bootstrap_all()

It also holds the vocabulary of a campaign run's three run-level
entries, next to what each names: ``adversaries`` (:data:`ADVERSARIES`,
:func:`add_adversary`), ``workload`` (:data:`TRAFFIC`,
:func:`start_flows`) and ``bootstrap`` (:func:`bootstrap_keywords`).
``check_adversaries``, ``check_workload`` and ``bootstrap_keywords``
refuse an entry its run would fail on, so a campaign spec is checked
when it is loaded.
"""

from repro.scenarios.builder import (
    ROUTER_REGISTRY,
    Scenario,
    ScenarioBuilder,
    bootstrap_keywords,
    router_class,
    router_name,
)
from repro.scenarios.workloads import (
    TRAFFIC,
    CBRTraffic,
    PoissonTraffic,
    RequestResponse,
    check_workload,
    start_flows,
)
from repro.scenarios.attacks import (
    ADVERSARIES,
    add_adversary,
    add_blackhole,
    add_rerr_spammer,
    add_forger,
    add_replayer,
    add_dns_impersonator,
    add_identity_churner,
    check_adversaries,
)

__all__ = [
    "ADVERSARIES",
    "ROUTER_REGISTRY",
    "Scenario",
    "ScenarioBuilder",
    "TRAFFIC",
    "bootstrap_keywords",
    "router_class",
    "router_name",
    "CBRTraffic",
    "PoissonTraffic",
    "RequestResponse",
    "check_workload",
    "start_flows",
    "add_adversary",
    "add_blackhole",
    "add_rerr_spammer",
    "add_forger",
    "add_replayer",
    "add_dns_impersonator",
    "add_identity_churner",
    "check_adversaries",
]
