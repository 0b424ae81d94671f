"""repro -- reproduction of "Secure Bootstrapping and Routing in an
IPv6-Based Ad Hoc Network" (Tseng, Jiang, Lee; ICPP 2003).

The package provides a complete, laptop-scale implementation of the
paper's protocol suite on top of a deterministic discrete-event MANET
simulator:

* :mod:`repro.sim`       -- discrete-event kernel, deterministic RNG
* :mod:`repro.phy`       -- unit-disk wireless medium, mobility, topologies
* :mod:`repro.crypto`    -- RSA (modexp in libcrypto) + simulated-signature backends
* :mod:`repro.ipv6`      -- IPv6 addresses, site-local prefix, CGAs (Fig. 1)
* :mod:`repro.messages`  -- Table 1 control messages + codec
* :mod:`repro.ndp`       -- one-hop NDP/DAD baseline (RFC 2461)
* :mod:`repro.bootstrap` -- secure address autoconfiguration (Sec. 3.1)
* :mod:`repro.dns`       -- the DNS trust anchor (Sec. 3.2)
* :mod:`repro.routing`   -- secure DSR + DSR/BSAR-like baselines (Sec. 3.3-3.4)
* :mod:`repro.credit`    -- credit management (Sec. 3.4)
* :mod:`repro.core`      -- the protocol node tying everything together
* :mod:`repro.adversary` -- the Section 4 attackers
* :mod:`repro.metrics`   -- measurement plumbing
* :mod:`repro.trace`     -- message-sequence recording (Figs. 2-3)
* :mod:`repro.scenarios` -- network builders and workloads

Quickstart::

    from repro.scenarios import ScenarioBuilder

    scenario = ScenarioBuilder(seed=7).chain(5).with_dns().build()
    scenario.bootstrap_all()
    alice, bob = scenario.hosts[0], scenario.hosts[-1]
    scenario.send_data(alice, bob.ip, b"hello over multi-hop")
    scenario.run(until=30.0)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
