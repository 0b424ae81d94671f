"""Unit tests for the RSA backend."""

import pytest

from repro.crypto import rsa
from repro.crypto.bignum import ModExp
from repro.crypto.rsa import (
    RSABackend,
    _candidate_from_seed,
    generate_prime,
    is_probable_prime,
    modinv,
)


@pytest.fixture(scope="module")
def modexp():
    return ModExp()


def test_is_probable_prime_small_values(modexp):
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}
    for n in range(2, 38):
        assert is_probable_prime(n, modexp) == (n in primes)
    assert not is_probable_prime(0, modexp)
    assert not is_probable_prime(1, modexp)
    assert not is_probable_prime(-7, modexp)


def test_is_probable_prime_known_larger_values(modexp):
    assert is_probable_prime(104729, modexp)       # 10000th prime
    assert not is_probable_prime(104730, modexp)
    assert is_probable_prime(2**61 - 1, modexp)     # Mersenne prime
    assert not is_probable_prime(2**62 - 1, modexp)


def test_carmichael_numbers_rejected(modexp):
    # Carmichael numbers fool Fermat tests; Miller-Rabin must not be fooled.
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265):
        assert not is_probable_prime(n, modexp)


def test_generate_prime_deterministic_and_sized(modexp):
    p1 = generate_prime(b"seed", b"p", 256, modexp)
    p2 = generate_prime(b"seed", b"p", 256, modexp)
    assert p1 == p2
    assert p1.bit_length() == 256
    assert is_probable_prime(p1, modexp)
    assert generate_prime(b"seed", b"q", 256, modexp) != p1


def sequential_prime(seed, label, bits):
    """The prime search without a sieve or a kernel: ``is_probable_prime``
    on ``pow``, on each odd candidate in turn."""
    n = _candidate_from_seed(seed, label, bits)
    while not is_probable_prime(n, pow):
        n += 2
    return n


@pytest.mark.parametrize("window", [rsa._SIEVE_WINDOW, 5])
def test_generate_prime_equals_a_sequential_scan_on_pow(modexp, monkeypatch, window):
    """The sieve skips exactly what trial division rejects and the
    survivors run the same rounds in the same order, so the sieved
    search finds the sequential scan's prime; a 5-candidate window (the
    production one rarely ends before a 64- to 160-bit prime) puts most
    primes past the first window."""
    monkeypatch.setattr(rsa, "_SIEVE_WINDOW", window)
    past_first_window = 0
    for i in range(300):
        seed, bits = f"sieve-oracle/{i}".encode(), 64 + i % 97
        expected = sequential_prime(seed, b"p", bits)
        assert generate_prime(seed, b"p", bits, modexp) == expected
        start = _candidate_from_seed(seed, b"p", bits)
        past_first_window += expected >= start + 2 * window
    if window == 5:
        assert past_first_window > 250


def test_generate_prime_past_the_first_production_window(modexp):
    """Seeds whose 160-bit prime lies past the first production window."""
    span = 2 * rsa._SIEVE_WINDOW
    found = 0
    for i in range(2000):
        seed = f"sieve-gap/{i}".encode()
        expected = sequential_prime(seed, b"q", 160)
        if expected - _candidate_from_seed(seed, b"q", 160) >= span:
            assert generate_prime(seed, b"q", 160, modexp) == expected
            found += 1
            if found == 3:
                break
    assert found == 3


@pytest.mark.parametrize("bits", range(2, 13))
def test_generate_prime_at_tiny_sizes_scans_the_small_primes(modexp, bits):
    """A candidate <= 251 may itself be one of the small primes: the
    search tests it in turn with ``is_probable_prime``, then sieves."""
    for i in range(40):
        seed = f"tiny/{i}".encode()
        assert generate_prime(seed, b"p", bits, modexp) == sequential_prime(
            seed, b"p", bits
        )


def test_modinv():
    assert modinv(3, 11) == 4
    assert (modinv(65537, 100000007 - 1) * 65537) % (100000007 - 1) == 1
    with pytest.raises(ValueError):
        modinv(6, 9)  # gcd != 1


@pytest.fixture(scope="module")
def backend():
    return RSABackend(bits=512)


@pytest.fixture(scope="module")
def keypair(backend):
    return backend.generate_keypair(b"test-node")


def test_keygen_deterministic(backend):
    k1 = backend.generate_keypair(b"abc")
    k2 = backend.generate_keypair(b"abc")
    assert k1.public == k2.public
    assert backend.generate_keypair(b"abd").public != k1.public


def test_modulus_size(backend, keypair):
    n, e = keypair.public.material
    assert n.bit_length() == 512
    assert e == 65537


def test_sign_verify_roundtrip(backend, keypair):
    msg = b"the quick brown fox"
    sig = backend.sign(keypair.private, msg)
    assert len(sig) == backend.signature_size() == 64
    assert backend.verify(keypair.public, msg, sig)


def test_verify_rejects_tampered_message(backend, keypair):
    sig = backend.sign(keypair.private, b"original")
    assert not backend.verify(keypair.public, b"tampered", sig)


def test_verify_rejects_tampered_signature(backend, keypair):
    sig = bytearray(backend.sign(keypair.private, b"msg"))
    sig[5] ^= 0xFF
    assert not backend.verify(keypair.public, b"msg", bytes(sig))


def test_verify_rejects_wrong_key(backend, keypair):
    other = backend.generate_keypair(b"other-node")
    sig = backend.sign(keypair.private, b"msg")
    assert not backend.verify(other.public, b"msg", sig)


def test_verify_rejects_wrong_length_signature(backend, keypair):
    assert not backend.verify(keypair.public, b"msg", b"short")
    assert not backend.verify(keypair.public, b"msg", b"\x00" * 128)


def test_verify_rejects_signature_ge_modulus(backend, keypair):
    n, _ = keypair.public.material
    too_big = (n + 1).to_bytes(64, "big") if (n + 1).bit_length() <= 512 else b"\xff" * 64
    assert not backend.verify(keypair.public, b"msg", too_big)


def test_public_key_encode_decode_roundtrip(backend, keypair):
    data = backend.encode_public_key(keypair.public)
    assert len(data) == backend.public_key_size() == 68
    decoded = backend.decode_public_key(data)
    assert decoded == keypair.public


def test_decode_public_key_rejects_bad_length(backend):
    with pytest.raises(ValueError):
        backend.decode_public_key(b"\x00" * 10)


def test_signature_deterministic(backend, keypair):
    assert backend.sign(keypair.private, b"m") == backend.sign(keypair.private, b"m")


def test_sign_rejects_foreign_key(backend):
    from repro.crypto.simsig import SimSigBackend

    sim_kp = SimSigBackend().generate_keypair(b"x")
    with pytest.raises(ValueError):
        backend.sign(sim_kp.private, b"m")


def test_crt_power_matches_plain_pow(backend, keypair):
    mat = keypair.private.material
    m = 0x1234567890ABCDEF
    assert mat.power(m, backend._modexp) == pow(m, mat.d, mat.n)


def test_distinct_bit_sizes_have_distinct_names():
    assert RSABackend(bits=512).name == "rsa"
    assert RSABackend(bits=768).name == "rsa768"
    with pytest.raises(ValueError):
        RSABackend(bits=100)
    with pytest.raises(ValueError):
        RSABackend(bits=513)


def test_every_rsa_size_has_a_backend_and_only_one_name():
    from repro.crypto.backend import create_backend, get_backend

    for name, bits in (("rsa", 512), ("rsa1024", 1024), ("rsa768", 768)):
        assert get_backend(name).bits == bits
        assert create_backend(name).bits == bits
        assert create_backend(name) is not get_backend(name)
    # a size has one name, so a name read off the wire decodes canonically
    for name in ("rsa512", "rsa0512", "rsa1023", "rsa126", "rsa+1024",
                 "rsa\u0661\u0660\u0662\u0664", "rsa" + "2" * 5000, "rsx1024"):
        with pytest.raises(KeyError):
            get_backend(name)
        with pytest.raises(KeyError):
            create_backend(name)


def test_1024_bit_keys_compare_hash_and_encode():
    backend = RSABackend(bits=1024)
    keys = backend.generate_keypair(b"rsa1024-keys")
    same = RSABackend(bits=1024).generate_keypair(b"rsa1024-keys")
    other = backend.generate_keypair(b"rsa1024-other")
    assert keys.public == same.public and hash(keys.public) == hash(same.public)
    assert keys.public != other.public
    assert len(keys.public.encode()) == 1024 // 8 + 4
    assert backend.decode_public_key(keys.public.encode()) == keys.public
    # a 512-bit key with the same material bytes is another key
    assert keys.public != RSABackend().generate_keypair(b"rsa1024-keys").public


def test_rsa1024_chain_bootstraps():
    from repro.scenarios import ScenarioBuilder

    sc = (ScenarioBuilder(seed=3).chain(3, spacing=200.0).with_dns((200.0, 60.0))
          .config(crypto_backend="rsa1024").build())
    sc.bootstrap_all()
    assert sc.configured_count() == 3
    assert {h.public_key.backend for h in sc.all_nodes} == {"rsa1024"}
    assert sc.ctx.crypto_backends["rsa1024"].bits == 1024
