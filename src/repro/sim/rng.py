"""Deterministic, named random-number streams.

Every source of randomness in the stack (jitter, mobility, traffic,
key generation for simulated identities...) draws from a :class:`SimRNG`
stream.  Streams are derived from ``(master_seed, stream_name)`` via
SHA-256, so

* the same seed reproduces a run exactly, and
* adding a new stream never perturbs draws on existing streams
  (unlike sharing one ``random.Random``).

``SimRNG`` wraps :class:`numpy.random.Generator` for bulk vectorised
draws and exposes a few protocol-centric helpers (nonce, jitter).  Its
scalar :meth:`SimRNG.random` and :meth:`SimRNG.uniform` compute numpy's
own formulas from one raw PCG64 output, bit for bit, without numpy's
per-call dispatch: every relay's jitter draws one.  A stream builds its
generator on its first draw: a run creates many streams it never draws
from, and creating one costs only the SHA-256 of :func:`derive_seed`.
"""

from __future__ import annotations

import functools
import hashlib
import math

import numpy as np

#: numpy's ``next_double`` scale, 2**-53: a double in [0, 1) is the top
#: 53 bits of one 64-bit output times this.
_DOUBLE_UNIT = 1.0 / 9007199254740992.0


def check_seed(seed: int, name: str = "master_seed") -> None:
    """Raise ``ValueError`` naming ``name`` unless ``0 <= seed < 2**128``.

    :func:`derive_seed` packs a master seed into 16 unsigned bytes.
    """
    if not 0 <= seed < 2 ** 128:
        raise ValueError(f"{name} must be in [0, 2**128), got {seed}")


def derive_seed(master_seed: int, stream: str) -> int:
    """Derive a 64-bit child seed from ``(master_seed, stream)``.

    Uses SHA-256 over a canonical encoding; collision-free in practice
    and stable across platforms and Python versions.  A master seed
    outside ``[0, 2**128)`` raises ``ValueError``.
    """
    check_seed(master_seed)
    payload = master_seed.to_bytes(16, "big", signed=False) + b"/" + stream.encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


def spawn_seed(master_seed: int, run_index: int) -> int:
    """Derive an independent master seed for replicate run ``run_index``.

    Campaign sweeps give every run its own 64-bit master seed so that
    replicates are statistically independent yet exactly reproducible:
    the result depends only on ``(master_seed, run_index)``, never on
    which worker process executes the run or in what order.
    """
    if run_index < 0:
        raise ValueError("run_index must be non-negative")
    return derive_seed(master_seed, f"spawn/{run_index}")


def _check_span(span: float) -> None:
    """numpy's checks on ``Generator.uniform``'s ``high - low``, in its
    order and with its messages (a zero span passes)."""
    if not math.isfinite(span):
        raise OverflowError("high - low range exceeds valid bounds")
    if math.copysign(1.0, span) < 0.0:
        raise ValueError("high - low < 0")


class SimRNG:
    """A named deterministic random stream.

    Parameters
    ----------
    master_seed:
        The simulator-wide seed.
    stream:
        Name of this stream, e.g. ``"mobility"`` or ``"node/3/jitter"``.
    """

    def __init__(self, master_seed: int, stream: str = "default"):
        self.master_seed = master_seed
        self.stream = stream
        # checks the master seed here, not at the first draw
        self._child_seed = derive_seed(master_seed, stream)

    @functools.cached_property
    def _gen(self) -> np.random.Generator:
        """The stream's generator, built on the first draw.

        Once built it sits in the instance dict, which shadows this
        descriptor, so later draws read it there: no branch, no call.
        """
        return np.random.Generator(np.random.PCG64(self._child_seed))

    # -- scalar draws ---------------------------------------------------
    def random(self) -> float:
        """Uniform float in [0, 1): ``Generator.random()``, bit for bit.

        numpy's ``next_double`` is ``(raw >> 11) * 2**-53`` on one 64-bit
        PCG64 output.  The shift leaves an integer below 2**53, which
        converts to a double exactly, and scaling by a power of two is
        exact, so this is numpy's value.  It consumes the same one
        output and, like numpy's, leaves the buffered 32-bit half-word
        that :meth:`nonce`/:meth:`randint` may hold alone.
        """
        return (self._gen.bit_generator.random_raw() >> 11) * _DOUBLE_UNIT

    def uniform(self, lo: float, hi: float) -> float:
        """Uniform float in [lo, hi): ``Generator.uniform``, bit for bit.

        numpy's ``random_uniform`` is ``lo + (hi - lo) * u`` on ``lo``
        and ``hi`` as doubles, with ``u`` drawn as :meth:`random` draws
        it; the same IEEE operations in the same order give the same
        value.  numpy's errors are kept, raised before anything is
        drawn: ``OverflowError`` when ``hi - lo`` is not finite,
        ``ValueError`` when it is negative (``-0.0`` included).
        """
        lo = float(lo)
        hi = float(hi)
        span = hi - lo
        if not 0.0 < span < math.inf:
            _check_span(span)
        return lo + span * self.random()

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        return int(self._gen.integers(lo, hi + 1))

    def expovariate(self, rate: float) -> float:
        """Exponential inter-arrival sample with the given rate (1/mean)."""
        if rate <= 0:
            raise ValueError("rate must be positive")
        return float(self._gen.exponential(1.0 / rate))

    def choice(self, seq):
        """Uniformly choose one element of a non-empty sequence."""
        if len(seq) == 0:
            raise ValueError("cannot choose from an empty sequence")
        return seq[int(self._gen.integers(0, len(seq)))]

    def sample(self, seq, k: int) -> list:
        """Sample ``k`` distinct elements (order randomised)."""
        if k > len(seq):
            raise ValueError("sample larger than population")
        idx = self._gen.choice(len(seq), size=k, replace=False)
        return [seq[int(i)] for i in idx]

    def shuffle(self, lst: list) -> None:
        """In-place Fisher-Yates shuffle."""
        self._gen.shuffle(lst)

    # -- vector draws ---------------------------------------------------
    def random_batch(self, n: int) -> np.ndarray:
        """``n`` uniform floats in [0, 1) in one vectorised draw.

        Stream-identical to ``n`` successive :meth:`random` calls: PCG64
        consumes 64 bits per double either way, so a consumer may switch
        between scalar and batched draws (or mix batch sizes) without
        perturbing the stream.  This is the contract that lets the
        medium's vectorised broadcast path reproduce the scalar path's
        loss draws byte-for-byte (pinned by tests/test_sim_rng.py).
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        return self._gen.random(n)

    def uniform_array(self, lo: float, hi: float, size) -> np.ndarray:
        """Vectorised uniform draws; preferred for bulk placement/mobility."""
        return self._gen.uniform(lo, hi, size=size)

    def normal_array(self, mean: float, std: float, size) -> np.ndarray:
        return self._gen.normal(mean, std, size=size)

    # -- protocol helpers -----------------------------------------------
    def nonce(self, bits: int = 64) -> int:
        """A random ``bits``-bit integer, for challenges and sequence seeds."""
        if bits <= 0 or bits % 8:
            raise ValueError("bits must be a positive multiple of 8")
        raw = self._gen.bytes(bits // 8)
        return int.from_bytes(raw, "big")

    def bytes(self, n: int) -> bytes:
        return self._gen.bytes(n)

    def jitter(self, base: float, fraction: float = 0.1) -> float:
        """``base`` perturbed by up to ±``fraction``, never negative.

        Protocol broadcasts are jittered to avoid synchronised collisions,
        mirroring real MANET implementations.
        """
        lo = max(0.0, base * (1 - fraction))
        hi = base * (1 + fraction)
        return self.uniform(lo, hi)

    def spawn(self, substream: str) -> "SimRNG":
        """Derive an independent child stream, e.g. per node."""
        return SimRNG(self.master_seed, f"{self.stream}/{substream}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimRNG(seed={self.master_seed}, stream={self.stream!r})"
