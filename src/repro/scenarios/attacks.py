"""Attack wiring: drop adversary nodes into a built scenario.

Each helper creates a node at the given position, attaches the
adversarial router/component plus the normal bootstrap and DNS client
(adversaries *participate* in the protocol -- that is what makes them
dangerous), and returns the node so tests can inspect attack counters.

These run *before* ``scenario.bootstrap_all()`` so the adversary joins
the network alongside honest hosts.

A campaign run's ``adversaries`` entries read ``{"kind": ...,
"position": [x, y], ...}``: :data:`ADVERSARIES` maps the kind to its
helper, which :func:`add_adversary` calls with the other keys.
"""

from __future__ import annotations

import inspect

from repro.adversary.blackhole import BlackholeRouter
from repro.adversary.forger import ForgingRouter
from repro.adversary.identity_churner import IdentityChurnBlackhole
from repro.adversary.impersonator import DNSImpersonatorRouter
from repro.adversary.replayer import ReplayAgent
from repro.adversary.rerr_spammer import RERRSpamRouter
from repro.core.node import Node
from repro.ipv6.address import IPv6Address
from repro.scenarios.builder import Scenario, make_node


def _make_adversary_node(scenario: Scenario, name: str, position,
                         router_factory) -> Node:
    node = make_node(scenario.ctx, name, position, router_factory,
                     scenario.hosts[0].config)
    scenario.hosts.append(node)
    return node


def add_blackhole(
    scenario: Scenario,
    position: tuple[float, float],
    name: str = "blackhole",
    forge_rreps: bool = False,
    drop_probability: float = 1.0,
) -> Node:
    """A data-dropping relay; ``forge_rreps`` adds route-attraction forgery."""
    return _make_adversary_node(
        scenario, name, position,
        lambda n: BlackholeRouter(n, forge_rreps=forge_rreps,
                                  drop_probability=drop_probability),
    )


def add_rerr_spammer(
    scenario: Scenario,
    position: tuple[float, float],
    name: str = "spammer",
    also_drop: bool = False,
) -> Node:
    return _make_adversary_node(
        scenario, name, position,
        lambda n: RERRSpamRouter(n, also_drop=also_drop),
    )


def add_forger(
    scenario: Scenario,
    position: tuple[float, float],
    name: str = "forger",
    spoof_hop_ip: IPv6Address | str | None = None,
    forge_acks: bool = False,
    drop_data: bool = False,
) -> Node:
    if spoof_hop_ip is not None:
        spoof_hop_ip = IPv6Address(spoof_hop_ip)
    return _make_adversary_node(
        scenario, name, position,
        lambda n: ForgingRouter(n, spoof_hop_ip=spoof_hop_ip,
                                forge_acks=forge_acks, drop_data=drop_data),
    )


def add_replayer(
    scenario: Scenario,
    position: tuple[float, float],
    name: str = "replayer",
) -> Node:
    """An otherwise-honest host carrying a record-and-replay component."""
    from repro.routing.secure_dsr import SecureDSRRouter

    node = _make_adversary_node(scenario, name, position, SecureDSRRouter)
    node.attach_component("replayer", ReplayAgent(node))
    return node


def add_dns_impersonator(
    scenario: Scenario,
    position: tuple[float, float],
    fake_answer: IPv6Address | str,
    name: str = "dns-imp",
    drop_real_query: bool = True,
) -> Node:
    fake_answer = IPv6Address(fake_answer)
    return _make_adversary_node(
        scenario, name, position,
        lambda n: DNSImpersonatorRouter(n, fake_answer=fake_answer,
                                        drop_real_query=drop_real_query),
    )


def add_identity_churner(
    scenario: Scenario,
    position: tuple[float, float],
    name: str = "churner",
    churn_interval: float = 20.0,
) -> Node:
    return _make_adversary_node(
        scenario, name, position,
        lambda n: IdentityChurnBlackhole(n, churn_interval=churn_interval),
    )


#: Adversary helpers by the ``kind`` a campaign run's ``adversaries``
#: entry names.
ADVERSARIES = {
    "blackhole": add_blackhole,
    "rerr_spammer": add_rerr_spammer,
    "forger": add_forger,
    "replayer": add_replayer,
    "dns_impersonator": add_dns_impersonator,
    "identity_churner": add_identity_churner,
}


def _bind(entry: dict):
    """The helper an ``adversaries`` entry names and its keywords.

    Refuses an unknown kind, and keys its helper does not take or
    leaves required (``position`` among them).
    """
    if not isinstance(entry, dict):
        raise ValueError(f"an adversary entry must be an object, got {entry!r}")
    keywords = dict(entry)
    kind = keywords.pop("kind", None)
    helper = ADVERSARIES.get(kind) if isinstance(kind, str) else None
    if helper is None:
        raise ValueError(
            f"unknown adversary kind {kind!r} "
            f"(expected one of {sorted(ADVERSARIES)})"
        )
    try:
        inspect.signature(helper).bind(None, **keywords)
    except TypeError as exc:
        raise ValueError(f"adversary {kind!r}: {exc}") from None
    return helper, keywords


def check_adversaries(entries: list) -> None:
    """Refuse an ``adversaries`` list that :func:`add_adversary` cannot wire."""
    if not isinstance(entries, list):
        raise ValueError(f"adversaries must be a list, got {entries!r}")
    for entry in entries:
        _bind(entry)


def add_adversary(scenario: Scenario, entry: dict) -> Node:
    """Wire one ``adversaries`` entry into ``scenario``; returns its node."""
    helper, keywords = _bind(entry)
    position = tuple(keywords.pop("position"))
    return helper(scenario, position, **keywords)
