"""From-scratch textbook RSA: Miller-Rabin keygen, CRT signing.

This is a real (if small-key) RSA implementation built on Python integer
arithmetic -- no external crypto library.  Signing is hash-then-pad-then
``m^d mod n`` with CRT acceleration; verification is ``s^e mod n`` and a
digest comparison.  The padding is a fixed-prefix scheme (a simplified
PKCS#1 v1.5 layout): adequate here because the adversary model lives
*inside* the simulation and only interacts through sign/verify.

Default modulus is 512 bits, a deliberate trade-off: the algebra and the
cost asymmetry between sign and verify are authentic, while keygen for a
few hundred simulated nodes stays in the low seconds.  Pass ``bits=1024``
or more for slower, larger-key runs.

Keygen is fully deterministic from the caller's seed (Miller-Rabin bases
are derived from the candidate, prime search is sequential), so seeded
simulations always hand node *k* the same key pair.
"""

from __future__ import annotations

import hashlib

from repro.crypto.backend import CryptoBackend
from repro.crypto.keys import KeyPair, PrivateKey, PublicKey

# Deterministic Miller-Rabin: for n < 3.3 * 10^24 the first 13 primes are a
# proven-complete base set; above that we add bases derived from the
# candidate itself, giving error probability < 4^-40 per extra base.
_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
    227, 229, 233, 239, 241, 251,
]
_MR_BASES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
_EXTRA_MR_ROUNDS = 16

_PAD_PREFIX = b"\x00\x01"
_PAD_SEPARATOR = b"\x00"
_DIGEST_TAG = b"repro/rsa-digest/v1"


def _miller_rabin_witness(n: int, a: int, d: int, r: int) -> bool:
    """Return True if ``a`` witnesses that ``n`` is composite."""
    x = pow(a, d, n)
    if x in (1, n - 1):
        return False
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return False
    return True


def is_probable_prime(n: int) -> bool:
    """Deterministic-in-practice Miller-Rabin primality test."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        if _miller_rabin_witness(n, a % n, d, r):
            return False
    # Extra bases derived from n itself keep the test deterministic while
    # covering moduli beyond the proven range of the fixed base set.
    seed = hashlib.sha256(n.to_bytes((n.bit_length() + 7) // 8, "big")).digest()
    for i in range(_EXTRA_MR_ROUNDS):
        a = int.from_bytes(hashlib.sha256(seed + bytes([i])).digest(), "big") % (n - 3) + 2
        if _miller_rabin_witness(n, a, d, r):
            return False
    return True


def _candidate_from_seed(seed: bytes, label: bytes, bits: int) -> int:
    """Expand ``seed`` into an odd ``bits``-bit candidate with both top bits set.

    Setting the two top bits guarantees p*q reaches the full modulus size.
    """
    out = b""
    counter = 0
    while len(out) * 8 < bits:
        out += hashlib.sha256(seed + label + counter.to_bytes(4, "big")).digest()
        counter += 1
    x = int.from_bytes(out, "big") >> (len(out) * 8 - bits)
    x |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
    return x


def generate_prime(seed: bytes, label: bytes, bits: int) -> int:
    """Find the first probable prime at/above a seed-derived candidate."""
    n = _candidate_from_seed(seed, label, bits)
    while True:
        if is_probable_prime(n):
            return n
        n += 2


def modinv(a: int, m: int) -> int:
    """Modular inverse of ``a`` mod ``m``, in ``[0, m)``.

    Raises ``ValueError`` if gcd(a, m) != 1.
    """
    return pow(a, -1, m)


class RSAPrivateMaterial:
    """CRT-form private key: (n, d, p, q, dp, dq, qinv)."""

    __slots__ = ("n", "d", "p", "q", "dp", "dq", "qinv")

    def __init__(self, n: int, d: int, p: int, q: int):
        self.n = n
        self.d = d
        self.p = p
        self.q = q
        self.dp = d % (p - 1)
        self.dq = d % (q - 1)
        self.qinv = modinv(q, p)

    def power(self, m: int) -> int:
        """``m^d mod n`` via the Chinese Remainder Theorem (~4x speedup)."""
        mp = pow(m % self.p, self.dp, self.p)
        mq = pow(m % self.q, self.dq, self.q)
        h = (self.qinv * (mp - mq)) % self.p
        return mq + h * self.q


class RSABackend(CryptoBackend):
    """Textbook RSA signatures with deterministic keygen.

    Parameters
    ----------
    bits:
        Modulus size.  512 by default (see module docstring for rationale).
    public_exponent:
        Standard F4 = 65537.
    """

    def __init__(self, bits: int = 512, public_exponent: int = 65537):
        if bits < 128 or bits % 2:
            raise ValueError("bits must be an even integer >= 128")
        self.bits = bits
        self.e = public_exponent
        self.name = "rsa" if bits == 512 else f"rsa{bits}"
        self._key_bytes = bits // 8
        # Execution-only op counters (crypto_stats / scorecards); RSA
        # charges no simulated op_cost, so these never touch sim state.
        self.signs = 0
        self.verifies = 0

    # -- key management -------------------------------------------------
    def generate_keypair(self, seed: bytes) -> KeyPair:
        half = self.bits // 2
        attempt = 0
        while True:
            tag = attempt.to_bytes(4, "big")
            p = generate_prime(seed, b"p" + tag, half)
            q = generate_prime(seed, b"q" + tag, half)
            if p == q:
                attempt += 1
                continue
            phi = (p - 1) * (q - 1)
            try:
                d = modinv(self.e, phi)
            except ValueError:
                attempt += 1
                continue
            n = p * q
            if n.bit_length() != self.bits:
                attempt += 1
                continue
            public = PublicKey(self.name, (n, self.e))
            private = PrivateKey(self.name, RSAPrivateMaterial(n, d, p, q))
            return KeyPair(public, private)

    def encode_public_key(self, key: PublicKey) -> bytes:
        n, e = key.material
        return n.to_bytes(self._key_bytes, "big") + e.to_bytes(4, "big")

    def decode_public_key(self, data: bytes) -> PublicKey:
        if len(data) != self._key_bytes + 4:
            raise ValueError(
                f"bad RSA public key length {len(data)}, "
                f"expected {self._key_bytes + 4}"
            )
        n = int.from_bytes(data[: self._key_bytes], "big")
        e = int.from_bytes(data[self._key_bytes:], "big")
        return PublicKey(self.name, (n, e))

    # -- signatures ------------------------------------------------------
    def _pad(self, digest: bytes) -> int:
        """Fixed-prefix padding: 0x00 0x01 FF..FF 0x00 || digest."""
        pad_len = self._key_bytes - len(_PAD_PREFIX) - len(_PAD_SEPARATOR) - len(digest)
        if pad_len < 8:
            raise ValueError("modulus too small for digest padding")
        em = _PAD_PREFIX + b"\xff" * pad_len + _PAD_SEPARATOR + digest
        return int.from_bytes(em, "big")

    def _digest(self, message: bytes) -> bytes:
        return hashlib.sha256(_DIGEST_TAG + message).digest()

    def sign(self, private: PrivateKey, message: bytes) -> bytes:
        if private.backend != self.name:
            raise ValueError(f"key backend {private.backend!r} != {self.name!r}")
        self.signs += 1
        m = self._pad(self._digest(message))
        s = private.material.power(m)
        return s.to_bytes(self._key_bytes, "big")

    def verify(self, public: PublicKey, message: bytes, signature: bytes) -> bool:
        self.verifies += 1
        if public.backend != self.name or len(signature) != self._key_bytes:
            return False
        n, e = public.material
        s = int.from_bytes(signature, "big")
        if s >= n:
            return False
        m = pow(s, e, n)
        try:
            expected = self._pad(self._digest(message))
        except ValueError:
            return False
        return m == expected

    # -- bookkeeping -----------------------------------------------------
    def reset(self) -> None:
        self.signs = 0
        self.verifies = 0

    def signature_size(self) -> int:
        return self._key_bytes

    def public_key_size(self) -> int:
        return self._key_bytes + 4
