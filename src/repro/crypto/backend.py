"""The :class:`CryptoBackend` interface and backend registry.

The protocol layer is backend-agnostic: it calls ``sign``/``verify`` and
``encode_public_key`` and never looks inside key material.  Experiments
pick the backend per scenario -- real RSA for security-focused runs,
simulated signatures for thousand-node sweeps -- without touching
protocol code (ablation P3 in DESIGN.md).
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod

from repro.crypto.keys import KeyPair, PrivateKey, PublicKey


class SignatureInvalid(Exception):
    """Raised by :meth:`CryptoBackend.verify_strict` on a bad signature."""


class CryptoBackend(ABC):
    """Abstract signature backend.

    Implementations must be deterministic given their seed material so
    that simulation runs reproduce exactly.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    # -- key management -------------------------------------------------
    @abstractmethod
    def generate_keypair(self, seed: bytes) -> KeyPair:
        """Deterministically derive a key pair from ``seed``.

        Determinism matters: node k in a seeded simulation always gets
        the same keys, making failures reproducible.
        """

    @abstractmethod
    def encode_public_key(self, key: PublicKey) -> bytes:
        """Canonical byte encoding of a public key (feeds CGA hash + codec)."""

    @abstractmethod
    def decode_public_key(self, data: bytes) -> PublicKey:
        """Inverse of :meth:`encode_public_key`."""

    # -- signatures ------------------------------------------------------
    @abstractmethod
    def sign(self, private: PrivateKey, message: bytes) -> bytes:
        """Produce ``[message]_SK`` -- the paper's private-key encryption."""

    @abstractmethod
    def verify(self, public: PublicKey, message: bytes, signature: bytes) -> bool:
        """Check a signature; returns True/False, never raises."""

    def verify_batch(
        self, items: list[tuple[PublicKey, bytes, bytes]]
    ) -> list[bool]:
        """Verify ``(public, message, signature)`` triples in one pass.

        Verdicts are element-wise identical to calling :meth:`verify` on
        each triple -- this hook exists purely so backends can amortise
        per-call overhead (simsig hoists the tag recomputation into one
        bulk loop).  The default delegates to :meth:`verify` one by one.
        """
        return [self.verify(public, message, signature) for public, message, signature in items]

    # -- lifecycle --------------------------------------------------------
    def adopt_keypair(self, keypair: KeyPair) -> None:
        """Install a key pair generated by *another* instance of this backend.

        Per-scenario backend instances (see
        :meth:`repro.core.context.NetContext.crypto_backend`) and the
        process-wide :class:`~repro.crypto.keys.KeypairPool` hand finished
        pairs to fresh backends; stateful backends must register whatever
        per-key state :meth:`generate_keypair` would have created (simsig's
        public->secret oracle entry).  Stateless backends inherit this no-op.
        """
        if keypair.backend != self.name:
            raise ValueError(
                f"keypair backend {keypair.backend!r} != {self.name!r}"
            )

    def reset(self) -> None:
        """Clear accumulated per-run state (counters, key oracles).

        Scenario isolation normally comes from fresh per-scenario
        instances instead; this remains for callers holding a registry
        singleton (:func:`get_backend`) across in-process runs.
        """

    # -- bookkeeping -----------------------------------------------------
    @abstractmethod
    def signature_size(self) -> int:
        """Size in bytes of an encoded signature (for overhead accounting)."""

    @abstractmethod
    def public_key_size(self) -> int:
        """Size in bytes of an encoded public key."""

    def op_cost(self, op: str) -> float:
        """Simulated-time cost of a crypto op ('sign' / 'verify').

        Zero by default: backends whose real CPU cost is paid in host
        time (RSA) do not additionally charge simulated time unless a
        scenario overrides this.  :class:`~repro.crypto.simsig.SimSigBackend`
        overrides it to model the asymmetric-crypto delay it avoids paying.
        """
        if op not in ("sign", "verify"):
            raise ValueError(f"unknown crypto op {op!r}")
        return 0.0

    # -- conveniences ------------------------------------------------------
    def verify_strict(self, public: PublicKey, message: bytes, signature: bytes) -> None:
        """Like :meth:`verify` but raises :class:`SignatureInvalid` on failure."""
        if not self.verify(public, message, signature):
            raise SignatureInvalid(
                f"signature check failed under backend {self.name!r}"
            )


_REGISTRY: dict[str, CryptoBackend] = {}


def register_backend(backend: CryptoBackend) -> None:
    """Register (or replace) a backend instance under ``backend.name``."""
    _REGISTRY[backend.name] = backend


def _builtin_backend(name: str) -> CryptoBackend | None:
    """A fresh instance of the built-in backend called ``name``, else None.

    The built-ins are ``simsig``, ``rsa`` (512-bit) and ``rsa<bits>``
    for any other size :class:`~repro.crypto.rsa.RSABackend` takes.  A
    name is accepted only if the backend it builds carries that same
    name, so a size has one name (``rsa0512`` and ``rsa512`` are
    refused): the codec reads names off the wire and decodes
    canonically.  Lazy imports avoid a circular dependency at package
    import time.
    """
    if name == "simsig":
        from repro.crypto.simsig import SimSigBackend

        return SimSigBackend()
    # at most 7 digits, so int() never meets a string past its limit
    if name == "rsa" or re.fullmatch(r"rsa[0-9]{3,7}", name):
        from repro.crypto.rsa import RSABackend

        bits = int(name[3:] or 512)
        if bits >= 128 and bits % 2 == 0:
            backend = RSABackend(bits)
            if backend.name == name:
                return backend
    return None


def get_backend(name: str) -> CryptoBackend:
    """Look up a registered backend; lazily creates the built-in ones."""
    if name not in _REGISTRY:
        backend = _builtin_backend(name)
        if backend is None:
            raise KeyError(f"unknown crypto backend {name!r}")
        register_backend(backend)
    return _REGISTRY[name]


def create_backend(name: str) -> CryptoBackend:
    """A **fresh** instance of a built-in backend.

    :func:`get_backend` returns process-wide singletons, which is fine
    for stateless uses (``PublicKey.encode``) but leaks state across
    in-process runs for stateful backends: a reused campaign worker kept
    growing the simsig singleton's ``_oracle`` and sign/verify counters
    run after run.  Scenario construction goes through this factory (via
    ``NetContext.crypto_backend``) so each scenario owns its backend
    state.  Custom backends installed with :func:`register_backend` have
    no known constructor, so they fall back to the registry instance and
    manage their own state.
    """
    backend = _builtin_backend(name)
    if backend is not None:
        return backend
    if name in _REGISTRY:
        return _REGISTRY[name]
    raise KeyError(f"unknown crypto backend {name!r}")


def available_backends() -> list[str]:
    """Names of the built-in backends (registered or not)."""
    return sorted(set(_REGISTRY) | {"rsa", "simsig"})
