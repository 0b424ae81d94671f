"""Cryptographic substrate.

The paper assumes each host owns a public/private key pair ``(PK, SK)``
and writes ``[msg]_{X_SK}`` for "the ciphertext of *msg* encrypted by
X's private key", verified by "decrypting" with ``X_PK`` and comparing
with the plaintext.  That construction is a *signature with message
recovery*; we model it as an ordinary hash-then-sign signature, which
preserves exactly the authenticity/challenge-response semantics the
protocol relies on.

Two interchangeable backends implement :class:`CryptoBackend`:

* :class:`~repro.crypto.rsa.RSABackend` -- textbook RSA: the scheme
  in Python (Miller-Rabin keygen, CRT private exponentiation), its
  modular exponentiation in OpenSSL's libcrypto
  (:mod:`repro.crypto.bignum`).  Used in security-focused tests; small
  keys keep laptop runs fast while the algebra is the real thing.
* :class:`~repro.crypto.simsig.SimSigBackend` -- hash-based simulated
  signatures with a configurable artificial cost, for large parameter
  sweeps where thousands of nodes sign per second.  Unforgeable only
  against adversaries *inside the simulation* (they cannot see secrets
  through the API), which is the property the experiments need.

``H(PK, rn)`` from the paper (the CGA hash) lives in
:mod:`repro.crypto.hashes`.
"""

from repro.crypto.backend import (
    CryptoBackend,
    SignatureInvalid,
    create_backend,
    get_backend,
    register_backend,
)
from repro.crypto.keys import (
    DEFAULT_KEYPAIR_POOL,
    KeyPair,
    KeypairPool,
    PublicKey,
    PrivateKey,
)
from repro.crypto.hashes import cga_hash, sha256_int, H
from repro.crypto.rsa import RSABackend
from repro.crypto.simsig import SimSigBackend
from repro.crypto.verify_cache import SharedVerifyCache

__all__ = [
    "CryptoBackend",
    "SignatureInvalid",
    "create_backend",
    "get_backend",
    "register_backend",
    "DEFAULT_KEYPAIR_POOL",
    "KeyPair",
    "KeypairPool",
    "PublicKey",
    "PrivateKey",
    "cga_hash",
    "sha256_int",
    "H",
    "RSABackend",
    "SimSigBackend",
    "SharedVerifyCache",
]
