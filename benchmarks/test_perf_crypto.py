"""Experiment P3 -- crypto backend microbenchmarks + fast-path scorecard.

The protocol logic is backend-independent (one CryptoBackend interface).
This file times the primitive operations of the RSA backend
against the hash-based simulated-signature backend, and asserts the
expected cost asymmetries: RSA sign >> RSA verify (small public
exponent), and simsig is orders of magnitude cheaper than both -- which
is why large sweeps run on simsig while security tests run on RSA.

It also establishes the PR 7 **crypto fast path** headline and writes
the machine-readable ``BENCH_crypto.json`` scorecard consumed across
PRs: an N = 1000 RSA bootstrap (the crypto-bound macro-workload) run
baseline (all fast-path flags off), fast-cold (flags on, empty keypair
pool -- the first campaign replicate) and fast-warm (flags on, pooled
keypairs -- every subsequent replicate), asserting **>= 3x** warm
speedup with byte-identical metrics summaries.  Equivalence across the
full 2x2x2 flag matrix, including under active adversaries, is pinned
by tests/test_crypto_equivalence.py; this experiment establishes the
speed.
"""

import time

import pytest

from repro.crypto.backend import get_backend
from repro.crypto.keys import DEFAULT_KEYPAIR_POOL
from repro.scenarios import ScenarioBuilder

from _harness import print_rows, write_bench_json

MESSAGE = b"RREQ-S|" + b"\x00" * 24

#: The macro-benchmark: a 1000-node uniform deployment at constant local
#: density, bootstrapping under the real RSA backend (hop_limit trimmed
#: so the AREQ floods stay local -- crypto, not PHY, dominates).
MACRO_N = 1000
MACRO_DENSITY = 10.0
MACRO_SEED = 101
MIN_WARM_SPEEDUP = 3.0

#: Scorecard accumulated by the tests in this file; flushed to
#: BENCH_crypto.json by whichever test runs last.
_BENCH: dict = {}


def _flush_bench() -> None:
    if {"macro_bootstrap", "simsig_batch_verify", "shared_cache_collapse"} <= set(_BENCH):
        write_bench_json("crypto", _BENCH)


@pytest.fixture(scope="module")
def rsa_keys():
    backend = get_backend("rsa")
    kp = backend.generate_keypair(b"p3")
    sig = backend.sign(kp.private, MESSAGE)
    return backend, kp, sig


@pytest.fixture(scope="module")
def sim_keys():
    backend = get_backend("simsig")
    kp = backend.generate_keypair(b"p3")
    sig = backend.sign(kp.private, MESSAGE)
    return backend, kp, sig


def test_bench_rsa_keygen(benchmark):
    backend = get_backend("rsa")
    counter = [0]

    def keygen():
        counter[0] += 1
        return backend.generate_keypair(f"p3-{counter[0]}".encode())

    benchmark.pedantic(keygen, rounds=5, iterations=1)


def test_bench_rsa_sign(benchmark, rsa_keys):
    backend, kp, _ = rsa_keys
    benchmark(lambda: backend.sign(kp.private, MESSAGE))


def test_bench_rsa_verify(benchmark, rsa_keys):
    backend, kp, sig = rsa_keys
    benchmark(lambda: backend.verify(kp.public, MESSAGE, sig))


def test_bench_simsig_sign(benchmark, sim_keys):
    backend, kp, _ = sim_keys
    benchmark(lambda: backend.sign(kp.private, MESSAGE))


def test_bench_simsig_verify(benchmark, sim_keys):
    backend, kp, sig = sim_keys
    benchmark(lambda: backend.verify(kp.public, MESSAGE, sig))


def test_rsa_cost_asymmetry(rsa_keys):
    """RSA with e=65537: verify must be much cheaper than sign (CRT or not)."""
    import time

    backend, kp, sig = rsa_keys
    n = 50
    t0 = time.perf_counter()
    for _ in range(n):
        backend.sign(kp.private, MESSAGE)
    sign_t = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        backend.verify(kp.public, MESSAGE, sig)
    verify_t = time.perf_counter() - t0
    assert sign_t > 2 * verify_t


def test_simsig_much_cheaper_than_rsa(rsa_keys, sim_keys):
    import time

    rsa_backend, rsa_kp, _ = rsa_keys
    sim_backend, sim_kp, _ = sim_keys
    n = 50
    t0 = time.perf_counter()
    for _ in range(n):
        rsa_backend.sign(rsa_kp.private, MESSAGE)
    rsa_t = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        sim_backend.sign(sim_kp.private, MESSAGE)
    sim_t = time.perf_counter() - t0
    assert rsa_t > 10 * sim_t


# -- PR 7: crypto fast path -----------------------------------------------

def _macro_run(fast: bool) -> tuple[dict, float, float]:
    """Build + bootstrap the N=1000 RSA scenario; returns
    ``(summary, build_seconds, bootstrap_seconds)``."""
    t0 = time.perf_counter()
    sc = (
        ScenarioBuilder(seed=MACRO_SEED)
        .uniform_density(MACRO_N, density=MACRO_DENSITY)
        .radio(250.0)
        .config(
            crypto_backend="rsa",
            hop_limit=3,
            crypto_shared_cache=fast,
            crypto_batch_verify=fast,
            crypto_keypair_pool=fast,
        )
        .with_dns((0.0, 0.0))
        .build()
    )
    build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    sc.bootstrap_all(stagger=0.02)
    boot_s = time.perf_counter() - t0
    assert sc.configured_count() == MACRO_N
    return sc.metrics.summary(), build_s, boot_s


def test_macro_bootstrap_speedup_and_equivalence():
    """The headline: >= 3x faster crypto-bound bootstrap at N = 1000 with
    byte-identical metrics.  Warm (pooled keypairs) is the steady-state
    campaign replicate cost; cold shows what the first replicate pays."""
    DEFAULT_KEYPAIR_POOL.clear()
    base_summary, base_build, base_boot = _macro_run(fast=False)
    assert DEFAULT_KEYPAIR_POOL.misses == 0  # pooling really was off

    cold_summary, cold_build, cold_boot = _macro_run(fast=True)   # fills pool
    warm_summary, warm_build, warm_boot = _macro_run(fast=True)   # pool hits

    assert cold_summary == base_summary
    assert warm_summary == base_summary
    assert DEFAULT_KEYPAIR_POOL.hits >= MACRO_N  # warm run reused every pair

    baseline_s = base_build + base_boot
    warm_s = warm_build + warm_boot
    speedup = baseline_s / warm_s
    if speedup < MIN_WARM_SPEEDUP:  # one retry absorbs a noisy first sample
        warm_summary, warm_build, warm_boot = _macro_run(fast=True)
        assert warm_summary == base_summary
        warm_s = warm_build + warm_boot
        speedup = baseline_s / warm_s

    print_rows(
        f"P3+: crypto fast path, N={MACRO_N} RSA bootstrap",
        ["run", "build (s)", "bootstrap (s)", "total (s)"],
        [
            ["baseline (flags off)", f"{base_build:.2f}", f"{base_boot:.2f}",
             f"{baseline_s:.2f}"],
            ["fast cold (empty pool)", f"{cold_build:.2f}", f"{cold_boot:.2f}",
             f"{cold_build + cold_boot:.2f}"],
            ["fast warm (pooled)", f"{warm_build:.2f}", f"{warm_boot:.2f}",
             f"{warm_s:.2f}"],
        ],
    )

    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm fast path {speedup:.2f}x vs baseline "
        f"(floor {MIN_WARM_SPEEDUP}x)"
    )

    _BENCH["macro_bootstrap"] = {
        "scenario": f"uniform_density n={MACRO_N} density={MACRO_DENSITY}, "
                    f"rsa, hop_limit=3, stagger=0.02",
        "configured_nodes": MACRO_N,
        "baseline_s": round(baseline_s, 2),
        "fast_cold_s": round(cold_build + cold_boot, 2),
        "fast_warm_s": round(warm_s, 2),
        "warm_speedup": round(speedup, 2),
        "summaries_identical": True,
    }
    _flush_bench()


def test_simsig_batch_verify_speedup():
    """The bulk tag pass hoists loop-invariant lookups; it must beat the
    per-item loop on a big batch and agree verdict-for-verdict."""
    backend = get_backend("simsig")
    kp = backend.generate_keypair(b"p3-batch")
    items = []
    for i in range(5000):
        payload = b"SRR|%d" % i
        sig = backend.sign(kp.private, payload)
        if i % 7 == 0:
            sig = bytes(len(sig))  # sprinkle invalid signatures
        items.append((kp.public, payload, sig))

    t0 = time.perf_counter()
    seq = [backend.verify(*item) for item in items]
    seq_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    batch = backend.verify_batch(items)
    batch_s = time.perf_counter() - t0
    assert batch == seq
    ratio = seq_s / batch_s if batch_s > 0 else float("inf")

    print_rows(
        "P3+: simsig verify_batch vs per-item loop (5000 items)",
        ["path", "seconds", "ratio"],
        [["per-item", f"{seq_s:.4f}", "1.00"],
         ["batch", f"{batch_s:.4f}", f"{ratio:.2f}"]],
    )
    assert batch_s <= seq_s * 1.25  # never meaningfully slower

    _BENCH["simsig_batch_verify"] = {
        "items": len(items),
        "per_item_s": round(seq_s, 4),
        "batch_s": round(batch_s, 4),
        "speedup": round(ratio, 2),
    }
    _flush_bench()


def test_shared_cache_collapses_repeated_verifies():
    """Deterministic collapse ratio: per-hop verification re-checks the
    same SRR identities at every relay; the scenario-wide cache computes
    each distinct triple once."""

    def discovery_run(fast: bool):
        sc = (
            ScenarioBuilder(seed=77)
            .grid(12, spacing=180.0)
            .radio(250.0)
            .with_dns()
            .config(
                verify_at_intermediate=True,
                crypto_shared_cache=fast,
                crypto_batch_verify=fast,
                crypto_keypair_pool=fast,
            )
            .build()
        )
        sc.bootstrap_all()
        a, z = sc.hosts[0], sc.hosts[-1]
        for k in range(5):
            sc.sim.schedule(k * 1.0, sc.send_data, a, z.ip, b"x" * 32)
        sc.run(duration=20.0)
        backend = sc.hosts[0].backend
        return sc.metrics.summary(), backend.verifies, sc.ctx.verify_cache

    base_summary, base_verifies, _ = discovery_run(fast=False)
    fast_summary, fast_verifies, cache = discovery_run(fast=True)
    assert fast_summary == base_summary
    assert 0 < fast_verifies < base_verifies
    collapse = base_verifies / fast_verifies

    print_rows(
        "P3+: shared verify cache, per-hop verification (grid n=12)",
        ["path", "backend verifies", "collapse"],
        [["baseline", base_verifies, "1.00"],
         ["shared cache", fast_verifies, f"{collapse:.2f}x"]],
    )

    _BENCH["shared_cache_collapse"] = {
        "scenario": "grid n=12, verify_at_intermediate, 5 flows",
        "baseline_verifies": base_verifies,
        "fast_verifies": fast_verifies,
        "collapse_ratio": round(collapse, 2),
        "shared_cache_hits": cache.hits,
    }
    _flush_bench()
