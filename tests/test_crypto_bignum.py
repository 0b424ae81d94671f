"""RSA's modular exponentiation in libcrypto, against Python's ``pow``.

:class:`~repro.crypto.bignum.ModExp` computes ``pow(base, exp, mod)``
with OpenSSL's ``BN_mod_exp``.  ``pow`` is the oracle: the kernel must
return exactly its value, so keys, signatures and verdicts stay the ones
the pure-Python scheme gives.  The library is loaded at a backend's
first RSA operation, never at import, and never by a simsig scenario.
"""

import copy
import gc
import pickle

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


@pytest.mark.parametrize("bits,seeds", [(512, 6), (1024, 3)])
def test_keys_and_signatures_equal_the_pow_reference(bits, seeds):
    backend, ref = RSABackend(bits=bits), pow_reference(bits)
    for i in range(seeds):
        seed = f"kernel-oracle/{bits}/{i}".encode()
        keys, ref_keys = backend.generate_keypair(seed), ref.generate_keypair(seed)
        assert keys.public.material == ref_keys.public.material
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
    freed = []
    free = bignum._free

    def recording_free(lib, ctx, bignums):
        freed.append((ctx, list(bignums)))
        free(lib, ctx, bignums)

    monkeypatch.setattr(bignum, "_free", recording_free)
    backend = RSABackend(bits=512)
    assert "_modexp" not in vars(backend)
    backend.generate_keypair(b"freed")
    kernel = backend._modexp
    assert kernel.version.startswith("OpenSSL")
    handles = (kernel._ctx, [kernel._r, kernel._a, kernel._p, kernel._m])
    assert all(handles[1]) and handles[0]
    del backend, kernel
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
