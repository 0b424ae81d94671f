"""RSA's modular exponentiation in libcrypto, against Python's ``pow``.

:class:`~repro.crypto.bignum.ModExp` computes ``pow(base, exp, mod)``
with OpenSSL's ``BN_mod_exp_mont`` on a cached Montgomery context per
odd modulus (``BN_mod_exp`` for modulus 1 and even moduli).  ``pow`` is
the oracle: the kernel must return exactly its value, whatever it has
cached, so keys, signatures and verdicts stay the ones the pure-Python
scheme gives.  The library is loaded at a backend's first RSA
operation, never at import, and never by a simsig scenario.
"""

import copy
import gc
import pickle
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.crypto import bignum
from repro.crypto.bignum import ModExp
from repro.crypto.rsa import RSABackend
from conftest import chain_scenario


@pytest.fixture(scope="module")
def modexp():
    return ModExp()


@st.composite
def operands(draw):
    """A 64- to 2048-bit modulus, odd or even, a base up to twice it."""
    bits = draw(st.integers(64, 2048))
    mod = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    base = draw(st.integers(0, 2 * mod))
    exp = draw(st.integers(0, (1 << draw(st.integers(0, bits))) - 1))
    return base, exp, mod


@settings(max_examples=150, deadline=None)
@given(operands())
def test_modexp_equals_pow(modexp, args):
    assert modexp(*args) == pow(*args)


@pytest.mark.parametrize("base,exp,mod", [
    (0, 0, 1), (5, 0, 1), (7, 3, 1), (0, 0, 7), (0, 5, 7), (5, 0, 7),
    (7, 3, 7), (8, 3, 7), (10**30, 3, 7),          # base >= modulus
    (2, 100, 2), (3, 10**20, 2**64), (2**64, 2, 2**64 + 1),
    (2**2048 + 1, 2**2048 - 1, 2**2048 - 159),
], ids=lambda v: f"{v.bit_length()}b")
def test_modexp_edges_equal_pow(modexp, base, exp, mod):
    assert modexp(base, exp, mod) == pow(base, exp, mod)


@st.composite
def call_sequences(draw):
    """Calls on a few moduli -- odd, even and 1 -- each with a few
    exponents, so the sequence revisits moduli, repeats and changes the
    exponent on a cached modulus, and holds more odd moduli than the
    shrunken cache of ``test_call_sequences_on_one_kernel_equal_pow``."""
    moduli = draw(st.lists(
        st.one_of(st.just(1), st.integers(2, 2**300)), min_size=1, max_size=10,
    ))
    exps = {mod: draw(st.lists(st.integers(0, 2**300), min_size=1, max_size=3))
            for mod in moduli}
    calls = []
    for _ in range(draw(st.integers(1, 40))):
        mod = draw(st.sampled_from(moduli))
        base = draw(st.one_of(
            st.integers(0, 50), st.integers(0, 3 * mod), st.integers(0, 2**600),
        ))
        calls.append((base, draw(st.sampled_from(exps[mod])), mod))
    return calls


@settings(max_examples=150, deadline=None)
@given(call_sequences())
def test_call_sequences_on_one_kernel_equal_pow(calls):
    with mock.patch.object(bignum, "MONT_CACHE_SIZE", 3):
        kernel = ModExp()
        for base, exp, mod in calls:
            assert kernel(base, exp, mod) == pow(base, exp, mod)
        assert len(kernel._entries) <= 3
        assert len(kernel._monts) == len(kernel._entries)


def test_more_moduli_than_the_cache_holds_reuse_its_handles():
    """Past the bound a miss takes the least recently used entry's
    handles: cycling through more odd moduli than the cache holds
    allocates no handle beyond it, and every result still equals pow."""
    kernel = ModExp()
    size = bignum.MONT_CACHE_SIZE
    moduli = [(1 << 127) + 2 * i + 1 for i in range(size + 44)]
    for rnd in range(2):
        for i, mod in enumerate(moduli):
            base, exp = 3 + i + rnd, (1 << 100) + i
            assert kernel(base, exp, mod) == pow(base, exp, mod)
    assert len(kernel._monts) == len(kernel._entries) == size
    assert len(kernel._bignums) == 4 + 2 * size
    assert list(kernel._entries) == moduli[-size:]  # least recently used first out
    hot = moduli[-size]
    assert kernel(2, 5, hot) == pow(2, 5, hot)
    assert list(kernel._entries)[-1] == hot


@pytest.mark.parametrize("base,exp,mod", [
    (-1, 3, 7), (3, -1, 7), (3, 3, 0), (3, 3, -7),
])
def test_modexp_rejects_negative_operands_and_nonpositive_moduli(modexp, base, exp, mod):
    with pytest.raises(ValueError):
        modexp(base, exp, mod)


def pow_reference(bits):
    """The same RSA scheme on pure-Python ``pow``: the kernel's oracle."""
    ref = RSABackend(bits=bits)
    ref._modexp = pow
    return ref


@pytest.mark.parametrize("bits,seeds", [(512, 20), (1024, 3)])
def test_keys_and_signatures_equal_the_pow_reference(bits, seeds):
    backend, ref = RSABackend(bits=bits), pow_reference(bits)
    for i in range(seeds):
        seed = f"kernel-oracle/{bits}/{i}".encode()
        keys, ref_keys = backend.generate_keypair(seed), ref.generate_keypair(seed)
        assert keys.public == ref_keys.public
        mine, theirs = keys.private.material, ref_keys.private.material
        assert all(getattr(mine, f) == getattr(theirs, f) for f in mine.__slots__)
        for msg in (b"", b"[I_IP, seq]", bytes(range(256))):
            sig = backend.sign(keys.private, msg)
            assert sig == ref.sign(ref_keys.private, msg)
            assert backend.verify(keys.public, msg, sig)
            tampered = bytes([sig[0] ^ 1]) + sig[1:]
            assert backend.verify(keys.public, msg, tampered) is False
            assert ref.verify(keys.public, msg, tampered) is False


def test_keys_stay_picklable_and_a_copied_backend_gets_its_own_kernel():
    backend = RSABackend(bits=512)
    keys = backend.generate_keypair(b"picklable")
    sig = backend.sign(keys.private, b"m")
    private = pickle.loads(pickle.dumps(keys)).private
    assert backend.sign(private, b"m") == sig
    for clone in (copy.deepcopy(backend), pickle.loads(pickle.dumps(backend))):
        assert clone._modexp is not backend._modexp
        assert clone.sign(keys.private, b"m") == sig


def test_the_library_loads_at_the_first_rsa_operation_and_is_freed_with_the_backend(
    monkeypatch,
):
    """Every handle the kernel allocated -- its BN_CTX, its scratch
    BIGNUMs, and each cached Montgomery context with its modulus and
    exponent BIGNUMs, including those of entries evicted and reused --
    is freed once, when the backend is collected."""
    freed = []
    free = bignum._free

    def recording_free(lib, ctx, bignums, monts):
        freed.append((ctx, list(bignums), list(monts)))
        free(lib, ctx, bignums, monts)

    monkeypatch.setattr(bignum, "_free", recording_free)
    monkeypatch.setattr(bignum, "MONT_CACHE_SIZE", 8)  # keygen overflows it
    backend = RSABackend(bits=512)
    assert "_modexp" not in vars(backend)
    keys = backend.generate_keypair(b"freed")
    assert backend.verify(keys.public, b"m", backend.sign(keys.private, b"m"))
    kernel = backend._modexp
    assert kernel.version.startswith("OpenSSL")
    entries = list(kernel._entries.values())
    assert len(entries) == 8
    # The finalizer's lists hold the scratch BIGNUMs and each cached
    # entry's handles, nothing else: evicted entries were reused, not lost.
    scratch = [kernel._r, kernel._a, kernel._p, kernel._m]
    cached = [bn for e in entries for bn in (e.m, e.p)]
    assert sorted(kernel._bignums) == sorted(scratch + cached)
    assert sorted(kernel._monts) == sorted(e.mont for e in entries)
    assert kernel._ctx and all(kernel._bignums) and all(kernel._monts)
    handles = (kernel._ctx, list(kernel._bignums), list(kernel._monts))
    del backend, kernel, entries
    gc.collect()
    assert freed == [handles]


def test_a_missing_libcrypto_fails_the_first_rsa_operation_by_name(monkeypatch):
    import ctypes.util

    monkeypatch.setattr(bignum, "_SONAMES", ("libcrypto-absent.so.0",))
    monkeypatch.setattr(ctypes.util, "find_library", lambda name: None)
    backend = RSABackend(bits=512)  # constructing loads nothing
    with pytest.raises(OSError, match="libcrypto-absent.so.0.*find_library"):
        backend.generate_keypair(b"x")


def test_a_simsig_scenario_never_loads_libcrypto(monkeypatch):
    loads = []

    def refuse():
        loads.append(1)
        raise AssertionError("a simsig scenario loaded libcrypto")

    monkeypatch.setattr(bignum, "_load_libcrypto", refuse)
    sc = chain_scenario(n=4, seed=3).build()
    assert {h.backend.name for h in sc.hosts} == {"simsig"}
    sc.bootstrap_all()
    a, d = sc.hosts[0], sc.hosts[-1]
    a.router.discover(d.ip)
    sc.run(duration=5.0)
    assert sc.metrics.discoveries_succeeded >= 1
    assert loads == []
    with pytest.raises(AssertionError):
        RSABackend().generate_keypair(b"the hook is live")
