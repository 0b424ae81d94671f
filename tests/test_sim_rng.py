"""Unit tests for deterministic RNG streams."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from repro.campaign import CampaignSpec, execute_run
from repro.sim.kernel import Simulator
from repro.sim.rng import SimRNG, derive_seed, spawn_seed

ROOT = Path(__file__).resolve().parents[1]


def test_same_seed_same_stream_reproduces():
    a = SimRNG(42, "x")
    b = SimRNG(42, "x")
    assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]


def test_different_streams_are_independent():
    a = SimRNG(42, "x")
    b = SimRNG(42, "y")
    assert [a.random() for _ in range(8)] != [b.random() for _ in range(8)]


def test_different_seeds_differ():
    assert SimRNG(1, "x").random() != SimRNG(2, "x").random()


def test_derive_seed_stable():
    assert derive_seed(7, "abc") == derive_seed(7, "abc")
    assert derive_seed(7, "abc") != derive_seed(7, "abd")


def test_adding_stream_does_not_perturb_existing():
    a1 = SimRNG(9, "a")
    seq1 = [a1.random() for _ in range(5)]
    # Interleave creation/draws on another stream.
    a2 = SimRNG(9, "a")
    other = SimRNG(9, "b")
    seq2 = []
    for _ in range(5):
        other.random()
        seq2.append(a2.random())
    assert seq1 == seq2


def test_uniform_bounds():
    rng = SimRNG(1)
    for _ in range(100):
        v = rng.uniform(2.0, 3.0)
        assert 2.0 <= v < 3.0


def test_randint_inclusive_bounds():
    rng = SimRNG(1)
    values = {rng.randint(0, 3) for _ in range(200)}
    assert values == {0, 1, 2, 3}


def test_expovariate_positive_and_mean():
    rng = SimRNG(1)
    samples = [rng.expovariate(2.0) for _ in range(2000)]
    assert all(s >= 0 for s in samples)
    assert abs(np.mean(samples) - 0.5) < 0.05


def test_expovariate_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        SimRNG(1).expovariate(0.0)


def test_choice_and_empty_choice():
    rng = SimRNG(1)
    assert rng.choice([5]) == 5
    with pytest.raises(ValueError):
        rng.choice([])


def test_sample_distinct():
    rng = SimRNG(1)
    out = rng.sample(list(range(10)), 5)
    assert len(out) == len(set(out)) == 5
    with pytest.raises(ValueError):
        rng.sample([1, 2], 3)


def test_shuffle_permutes_in_place():
    rng = SimRNG(1)
    lst = list(range(20))
    rng.shuffle(lst)
    assert sorted(lst) == list(range(20))


def test_nonce_bits():
    rng = SimRNG(1)
    for _ in range(50):
        assert 0 <= rng.nonce(64) < (1 << 64)
    with pytest.raises(ValueError):
        rng.nonce(63)


def test_jitter_stays_nonnegative_and_bounded():
    rng = SimRNG(1)
    for _ in range(100):
        v = rng.jitter(10.0, 0.2)
        assert 8.0 <= v <= 12.0
    assert rng.jitter(0.0) == 0.0


def test_spawn_derives_independent_child():
    parent = SimRNG(3, "root")
    child = parent.spawn("kid")
    assert child.stream == "root/kid"
    assert SimRNG(3, "root/kid").random() == pytest.approx(child.random(), abs=0)


def test_simulator_rng_streams_cached():
    sim = Simulator(seed=5)
    assert sim.rng("a") is sim.rng("a")
    assert sim.rng("a") is not sim.rng("b")


def test_uniform_array_shape_and_bounds():
    rng = SimRNG(2)
    arr = rng.uniform_array(0.0, 5.0, (10, 2))
    assert arr.shape == (10, 2)
    assert (arr >= 0).all() and (arr < 5).all()


def test_negative_master_seed_rejected():
    with pytest.raises(ValueError):
        SimRNG(-1)


@pytest.mark.parametrize("seed", [-1, 2 ** 128])
def test_out_of_range_master_seed_fails_at_construction_not_first_draw(seed):
    with pytest.raises(ValueError, match="master_seed"):
        SimRNG(seed, "x")
    with pytest.raises(ValueError, match="master_seed"):
        derive_seed(seed, "x")
    with pytest.raises(ValueError, match="master_seed"):
        Simulator(seed=seed).rng("x")
    assert SimRNG(2 ** 128 - 1, "x").random() == SimRNG(2 ** 128 - 1, "x").random()


def test_spawn_seed_reproducible_and_distinct():
    # reproducible: depends only on (master_seed, run_index)
    assert spawn_seed(7, 0) == spawn_seed(7, 0)
    # distinct across indices and across master seeds
    seeds = [spawn_seed(7, i) for i in range(64)]
    assert len(set(seeds)) == 64
    assert spawn_seed(8, 0) != spawn_seed(7, 0)
    # each spawned seed is a usable SimRNG master seed
    assert all(s >= 0 for s in seeds)
    with pytest.raises(ValueError):
        spawn_seed(7, -1)


def test_spawn_seed_streams_independent_but_reproducible():
    draws_a = [SimRNG(spawn_seed(11, 0)).random() for _ in range(5)]
    draws_b = [SimRNG(spawn_seed(11, 1)).random() for _ in range(5)]
    assert draws_a != draws_b
    assert draws_a == [SimRNG(spawn_seed(11, 0)).random() for _ in range(5)]


def test_random_batch_is_stream_identical_to_scalar_draws():
    """The vectorised-broadcast contract: a batched draw consumes the
    PCG64 stream exactly like the same number of scalar draws."""
    scalar, batched = SimRNG(13, "loss"), SimRNG(13, "loss")
    assert scalar.random_batch(0).size == 0  # zero-size draw consumes nothing
    expected = [scalar.random() for _ in range(100)]
    got = []
    for size in (3, 0, 17, 1, 50, 29):  # mixed batch sizes, zero included
        got.extend(float(x) for x in batched.random_batch(size))
    assert got == expected
    # ... and switching back to scalar continues the same stream
    assert batched.random() == scalar.random()


def test_random_batch_shape_bounds_and_validation():
    rng = SimRNG(4, "b")
    arr = rng.random_batch(1000)
    assert arr.shape == (1000,) and arr.dtype == np.float64
    assert (arr >= 0.0).all() and (arr < 1.0).all()
    with pytest.raises(ValueError):
        rng.random_batch(-1)


# -- generators are built on the first draw ----------------------------------

#: Every drawing method, with a call on a SimRNG and the same draw made
#: straight on a numpy Generator, the way each method is specified.
POPULATION = list(range(10))
DRAWS = [
    ("random", lambda r: r.random(), lambda g: float(g.random())),
    ("uniform", lambda r: r.uniform(2.0, 5.0), lambda g: float(g.uniform(2.0, 5.0))),
    ("randint", lambda r: r.randint(3, 9), lambda g: int(g.integers(3, 10))),
    ("choice", lambda r: r.choice("abcdef"), lambda g: "abcdef"[int(g.integers(0, 6))]),
    ("sample", lambda r: r.sample(POPULATION, 4),
     lambda g: [POPULATION[int(i)] for i in g.choice(10, size=4, replace=False)]),
    ("shuffle", lambda r: _shuffled(r.shuffle), lambda g: _shuffled(g.shuffle)),
    ("nonce", lambda r: r.nonce(48), lambda g: int.from_bytes(g.bytes(6), "big")),
    ("bytes", lambda r: r.bytes(5), lambda g: g.bytes(5)),
    ("random_batch", lambda r: r.random_batch(7), lambda g: g.random(7)),
    ("uniform_array", lambda r: r.uniform_array(-1.0, 1.0, (3, 2)),
     lambda g: g.uniform(-1.0, 1.0, size=(3, 2))),
    ("normal_array", lambda r: r.normal_array(0.5, 2.0, 4),
     lambda g: g.normal(0.5, 2.0, size=4)),
    ("expovariate", lambda r: r.expovariate(4.0), lambda g: float(g.exponential(0.25))),
    ("jitter", lambda r: r.jitter(10.0, 0.2), lambda g: float(g.uniform(8.0, 12.0))),
]


def _shuffled(shuffle) -> list:
    items = list(POPULATION)
    shuffle(items)
    return items


def _same(got, want) -> bool:
    if isinstance(want, np.ndarray):
        return type(got) is np.ndarray and np.array_equal(got, want)
    return type(got) is type(want) and got == want


def _generator(seed: int, stream: str) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(derive_seed(seed, stream)))


def _built(rng: SimRNG) -> bool:
    return "_gen" in vars(rng)


@pytest.mark.parametrize("name,draw,direct", DRAWS, ids=[d[0] for d in DRAWS])
def test_first_draw_of_every_method_matches_a_direct_generator(name, draw, direct):
    rng = SimRNG(2003, f"first/{name}")
    assert not _built(rng)
    gen = _generator(2003, f"first/{name}")
    assert _same(draw(rng), direct(gen))
    assert _built(rng)
    assert _same(draw(rng), direct(gen))


def test_mixed_scalar_and_batch_draws_match_a_direct_generator():
    rng, gen = SimRNG(7919, "mixed"), _generator(7919, "mixed")
    for _ in range(3):
        for name, draw, direct in DRAWS + DRAWS[::-1]:
            assert _same(draw(rng), direct(gen)), name
    child = rng.spawn("kid")
    assert _same(child.random_batch(5), _generator(7919, "mixed/kid").random(5))


def test_creating_a_stream_builds_no_generator():
    sim = Simulator(seed=5)
    streams = [sim.rng("a"), sim.rng("b"), SimRNG(5, "c"), SimRNG(5, "c").spawn("d")]
    assert not any(_built(s) for s in streams)
    streams[1].random_batch(0)
    assert [_built(s) for s in streams] == [False, True, False, False]


def test_a_run_builds_generators_for_exactly_the_streams_it_draws_from(monkeypatch):
    created, drawn = [], set()
    init = SimRNG.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        created.append(self)

    monkeypatch.setattr(SimRNG, "__init__", tracking_init)
    for name, _, _ in DRAWS:
        def tracking_draw(self, *args, _method=getattr(SimRNG, name), **kwargs):
            drawn.add(id(self))
            return _method(self, *args, **kwargs)
        monkeypatch.setattr(SimRNG, name, tracking_draw)

    def built() -> set:
        return {id(s) for s in created if _built(s)}

    at_build = []
    spec = CampaignSpec.from_file(ROOT / "campaigns" / "reference" / "spec.json")
    run = next(r for r in spec.expand() if r.scenario["radio"]["loss_rate"] > 0)
    record = execute_run(run.to_dict(), on_build=lambda _scenario: at_build.append(
        (len(created), built(), set(drawn))))
    assert record["status"] == "ok"
    assert record["summary"]["hosts"] == 4

    streams_at_build, built_at_build, drawn_at_build = at_build[0]
    # build() draws only each node's sequence base and the DNS's own CGA
    assert built_at_build == drawn_at_build
    assert len(drawn_at_build) == 6 < streams_at_build
    # bootstrap, DNS, routing, loss and traffic draw from more streams;
    # the rest of what the run created stays unbuilt
    assert built() == drawn
    assert len(drawn_at_build) < len(drawn) < len(created)


# -- random/uniform are numpy's formulas on one raw output -------------------

#: uniform bounds: float and int, negative lo, lo == hi, wide spans, and
#: ints that round as doubles (numpy subtracts the doubles: 2**53 + 1
#: is 2**53, so the last pair is lo == hi, not hi < lo).
UNIFORM_BOUNDS = [
    (0.0, 1.0), (2.0, 5.0), (-3.5, -1.25), (-7.0, 11.0), (4.0, 4.0),
    (0, 10), (-5, 3), (7, 7), (2 ** 60, 2 ** 61 + 1), (-(2 ** 70), 3),
    (-1e300, 1e300), (0.0, 1e-300), (-0.0, 0.0), (1e-3, 1.1e-3),
    (2 ** 53 + 1, 2 ** 54), (2 ** 53 + 1, 2 ** 53),
]
#: jitter (base, fraction): fraction >= 1 clamps lo to 0; base 0 is lo == hi.
JITTERS = [(0.01, 0.1), (2.5, 0.5), (0.0, 0.1), (1.0, 1.0), (3.0, 2.0), (1e9, 1e-6)]


def test_random_uniform_and_jitter_equal_numpy_bit_for_bit():
    for seed in range(200):
        rng, gen = SimRNG(seed, "raw"), _generator(seed, "raw")
        for lo, hi in UNIFORM_BOUNDS:
            assert _same(rng.random(), float(gen.random())), seed
            assert _same(rng.uniform(lo, hi), float(gen.uniform(lo, hi))), (seed, lo, hi)
        for base, fraction in JITTERS:
            lo, hi = max(0.0, base * (1 - fraction)), base * (1 + fraction)
            assert _same(rng.jitter(base, fraction), float(gen.uniform(lo, hi)))


#: Every drawing method, plus two draws that read the stream
#: differently: a 32-bit nonce leaves half a 64-bit output buffered for
#: the next 32-bit draw (randint and choice over small ranges take 32
#: bits), which the raw draws in between must leave alone.
INTERLEAVED = DRAWS + [
    ("nonce32", lambda r: r.nonce(32), lambda g: int.from_bytes(g.bytes(4), "big")),
    ("uniform_negative_lo", lambda r: r.uniform(-2, 9.5),
     lambda g: float(g.uniform(-2, 9.5))),
]


def test_raw_draws_interleave_with_every_other_draw_as_numpy_does():
    for seed in range(200):
        rng, gen = SimRNG(seed, "mix"), _generator(seed, "mix")
        order = INTERLEAVED[seed % len(INTERLEAVED):] + INTERLEAVED[:seed % len(INTERLEAVED)]
        for name, draw, direct in order + order[::-1] + order:
            assert _same(draw(rng), direct(gen)), (seed, name)


@pytest.mark.parametrize("lo,hi", [
    (1.0, 0.0), (5, 3), (0.0, -0.0), (0.0, math.inf), (-math.inf, 0.0),
    (math.inf, 0.0), (math.inf, math.inf), (math.nan, 1.0), (0.0, math.nan),
    (-1e308, 1e308),
])
def test_uniform_raises_as_numpy_does_and_draws_nothing(lo, hi):
    rng, gen = SimRNG(5, "err"), _generator(5, "err")
    with pytest.raises((ValueError, OverflowError)) as want:
        gen.uniform(lo, hi)
    with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
        rng.uniform(lo, hi)
    assert rng.random() == float(gen.random())
