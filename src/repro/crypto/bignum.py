"""``pow(base, exp, mod)`` computed by OpenSSL's bignum library, through ctypes.

Every modular exponentiation of :mod:`repro.crypto.rsa` -- the
Miller-Rabin rounds of keygen, the two CRT halves of a signature and a
verify -- goes through a :class:`ModExp`.  For an odd modulus > 1 it
runs ``BN_mod_exp_mont`` on a Montgomery context (``BN_MONT_CTX``) that
the kernel keeps for that modulus; modulus 1 and even moduli take
``BN_mod_exp``.  Both return exactly ``pow(base, exp, mod)`` for a
non-negative base and exponent and a positive modulus, so keys,
signatures and verdicts are bit-identical to Python's ``pow``; only the
host time differs.

Building a Montgomery context costs about a third of a 256-bit
exponentiation, and ``BN_mod_exp`` builds one on every call.  RSA uses
few moduli many times over: the 29 Miller-Rabin rounds on a prime
candidate share its modulus and exponent ``d``, every signature reuses
its key's ``p`` and ``q`` with ``dp`` and ``dq``, and every verify under
a key reuses its ``n`` with ``e``.  So each kernel keeps the contexts of
the last :data:`MONT_CACHE_SIZE` odd moduli it used, each with its
loaded modulus and the exponent it last loaded, and a call that repeats
both loads only the base.

The library is the ``libcrypto`` that CPython's ``ssl`` and ``hashlib``
modules already link.  It is found by soname (``libcrypto.so.3``, then
``libcrypto.so.1.1``) and, failing both, by
``ctypes.util.find_library("crypto")``, which runs ``ldconfig``.
Importing this module loads nothing: each :class:`ModExp` loads the
library when it is created.
"""

from __future__ import annotations

import ctypes
import weakref

_SONAMES = ("libcrypto.so.3", "libcrypto.so.1.1")
_INT_MAX = 2**31 - 1  # BN_bin2bn and BN_bn2binpad take C int lengths

#: Odd moduli whose Montgomery context one kernel keeps, least recently
#: used first out.  A ``secure_routing`` run signs under 122 primes and
#: verifies under 50 moduli, so a scenario's key moduli all fit.
MONT_CACHE_SIZE = 256

_vp = ctypes.c_void_p
_PROTOTYPES = {
    "OpenSSL_version": ([ctypes.c_int], ctypes.c_char_p),
    "BN_CTX_new": ([], _vp),
    "BN_CTX_free": ([_vp], None),
    "BN_new": ([], _vp),
    "BN_clear_free": ([_vp], None),
    "BN_bin2bn": ([ctypes.c_char_p, ctypes.c_int, _vp], _vp),
    "BN_bn2binpad": ([_vp, ctypes.c_char_p, ctypes.c_int], ctypes.c_int),
    "BN_mod_exp": ([_vp, _vp, _vp, _vp, _vp], ctypes.c_int),
    "BN_MONT_CTX_new": ([], _vp),
    "BN_MONT_CTX_free": ([_vp], None),
    "BN_MONT_CTX_set": ([_vp, _vp, _vp], ctypes.c_int),
    "BN_mod_exp_mont": ([_vp, _vp, _vp, _vp, _vp, _vp], ctypes.c_int),
}


def _load_libcrypto() -> ctypes.CDLL:
    """Open libcrypto and declare the functions :class:`ModExp` calls."""
    errors = []
    lib = None
    for name in _SONAMES:
        try:
            lib = ctypes.CDLL(name)
            break
        except OSError as exc:
            errors.append(str(exc))
    else:
        from ctypes.util import find_library  # imports subprocess: this path only

        name = find_library("crypto")
        if name is None:
            errors.append("find_library('crypto') found nothing")
        else:
            try:
                lib = ctypes.CDLL(name)
            except OSError as exc:
                errors.append(str(exc))
    if lib is None:
        raise OSError(
            "RSA needs OpenSSL's libcrypto (tried "
            + ", ".join(_SONAMES) + " and find_library('crypto')): "
            + "; ".join(errors)
        )
    for fname, (argtypes, restype) in _PROTOTYPES.items():
        try:
            fn = getattr(lib, fname)
        except AttributeError:
            raise OSError(
                f"libcrypto {name!r} has no {fname} (OpenSSL >= 1.1 is needed)"
            ) from None
        fn.argtypes = argtypes
        fn.restype = restype
    return lib


def _free(lib: ctypes.CDLL, ctx: int, bignums: list[int], monts: list[int]) -> None:
    for mont in monts:
        lib.BN_MONT_CTX_free(mont)
    for bn in bignums:
        lib.BN_clear_free(bn)
    lib.BN_CTX_free(ctx)


class _Entry:
    """One cached odd modulus: its Montgomery context ``mont``, the
    modulus loaded in ``m``, the exponent last loaded into ``p`` (None:
    none yet) and a result buffer of the modulus's byte length."""

    __slots__ = ("mont", "m", "p", "exp", "size", "out")

    def __init__(self, mont: int, m: int, p: int):
        self.mont = mont
        self.m = m
        self.p = p
        self.size = 0


class ModExp:
    """``pow(base, exp, mod)`` by libcrypto, on a ``BN_CTX`` of its own.

    An odd modulus > 1 runs ``BN_mod_exp_mont`` on its cached
    :class:`_Entry`; a miss loads the modulus and builds its context
    with ``BN_MONT_CTX_set``.  Below :data:`MONT_CACHE_SIZE` entries a
    miss allocates a context and two ``BIGNUM``\\s; at the bound it
    takes the least recently used entry and reuses its handles, so a
    keygen that tries thousands of candidate moduli allocates no more
    than that.  Modulus 1 and even moduli take ``BN_mod_exp`` on
    scratch ``BIGNUM``\\s.

    The context, the scratch ``BIGNUM``\\s and every cached handle are
    freed when the object is collected.  Not thread-safe: each thread
    needs its own instance.  Raises ``OSError`` naming the library when
    libcrypto cannot be loaded.
    """

    def __init__(self):
        lib = _load_libcrypto()
        self._lib = lib
        #: ``OpenSSL_version(OPENSSL_VERSION)`` of the loaded library.
        self.version = lib.OpenSSL_version(0).decode()
        ctx = lib.BN_CTX_new()
        if not ctx:
            raise MemoryError("libcrypto: BN_CTX_new failed")
        # Every handle goes into these lists as it is allocated, so the
        # finalizer frees the cache's handles too.
        self._bignums: list[int] = []
        self._monts: list[int] = []
        self._finalizer = weakref.finalize(
            self, _free, lib, ctx, self._bignums, self._monts
        )
        self._ctx = ctx
        self._r, self._a, self._p, self._m = (self._new_bn() for _ in range(4))
        self._entries: dict[int, _Entry] = {}

    def __reduce__(self):
        # The handles are scratch space: a copy or an unpickled kernel
        # (say, inside a pickled backend) gets handles of its own.
        return (type(self), ())

    def _new_bn(self) -> int:
        bn = self._lib.BN_new()
        if not bn:
            raise MemoryError("libcrypto: BN_new failed")
        self._bignums.append(bn)
        return bn

    def _load(self, bn: int, value: int) -> None:
        data = value.to_bytes((value.bit_length() + 7) // 8, "big")
        if len(data) > _INT_MAX:
            raise ValueError("operand too large for libcrypto")
        if not self._lib.BN_bin2bn(data, len(data), bn):
            raise RuntimeError("libcrypto: BN_bin2bn failed")

    def _admit(self, mod: int) -> _Entry:
        """A fresh entry for odd ``mod``: new handles below the bound, the
        least recently used entry's handles at it."""
        entries = self._entries
        if len(entries) < MONT_CACHE_SIZE:
            mont = self._lib.BN_MONT_CTX_new()
            if not mont:
                raise MemoryError("libcrypto: BN_MONT_CTX_new failed")
            self._monts.append(mont)
            entry = _Entry(mont, self._new_bn(), self._new_bn())
        else:
            entry = entries.pop(next(iter(entries)))
        entry.exp = None
        self._load(entry.m, mod)
        if not self._lib.BN_MONT_CTX_set(entry.mont, entry.m, self._ctx):
            raise RuntimeError("libcrypto: BN_MONT_CTX_set failed")
        size = (mod.bit_length() + 7) // 8
        if size != entry.size:
            entry.size = size
            entry.out = ctypes.create_string_buffer(size)
        return entry

    def __call__(self, base: int, exp: int, mod: int) -> int:
        """``base ** exp % mod``; ``base`` may be ``>= mod``, as with ``pow``."""
        if base < 0 or exp < 0:
            raise ValueError("base and exponent must be non-negative")
        if mod <= 0:
            raise ValueError("modulus must be positive")
        if not mod & 1 or mod == 1:
            return self._mod_exp(base, exp, mod)
        entries = self._entries
        entry = entries.pop(mod, None) or self._admit(mod)
        entries[mod] = entry  # now the most recently used
        if exp != entry.exp:
            entry.exp = None  # until ``p`` holds ``exp``
            self._load(entry.p, exp)
            entry.exp = exp
        self._load(self._a, base)
        lib = self._lib
        if not lib.BN_mod_exp_mont(self._r, self._a, entry.p, entry.m, self._ctx,
                                   entry.mont):
            raise RuntimeError("libcrypto: BN_mod_exp_mont failed")
        if lib.BN_bn2binpad(self._r, entry.out, entry.size) != entry.size:
            raise RuntimeError("libcrypto: BN_bn2binpad failed")
        return int.from_bytes(entry.out.raw, "big")

    def _mod_exp(self, base: int, exp: int, mod: int) -> int:
        """Modulus 1 or even: ``BN_mod_exp`` (``BN_mod_exp_mont`` needs an odd one)."""
        self._load(self._a, base)
        self._load(self._p, exp)
        self._load(self._m, mod)
        lib = self._lib
        if not lib.BN_mod_exp(self._r, self._a, self._p, self._m, self._ctx):
            raise RuntimeError("libcrypto: BN_mod_exp failed")
        size = (mod.bit_length() + 7) // 8
        out = ctypes.create_string_buffer(size)
        if lib.BN_bn2binpad(self._r, out, size) != size:
            raise RuntimeError("libcrypto: BN_bn2binpad failed")
        return int.from_bytes(out.raw, "big")
