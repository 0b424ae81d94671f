"""``pow(base, exp, mod)`` computed by OpenSSL's ``BN_mod_exp``, through ctypes.

Every modular exponentiation of :mod:`repro.crypto.rsa` -- the
Miller-Rabin rounds of keygen, the two CRT halves of a signature and a
verify -- goes through a :class:`ModExp`.  ``BN_mod_exp`` returns
exactly ``pow(base, exp, mod)`` for a non-negative base and exponent and
a positive modulus, so keys, signatures and verdicts are bit-identical
to Python's ``pow``; only the host time differs.

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


def _free(lib: ctypes.CDLL, ctx: int, bignums: list[int]) -> None:
    for bn in bignums:
        lib.BN_clear_free(bn)
    lib.BN_CTX_free(ctx)


class ModExp:
    """``pow(base, exp, mod)`` by ``BN_mod_exp``, on a ``BN_CTX`` of its own.

    The context and the four scratch ``BIGNUM``\\s every call reuses are
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
        bignums = []
        self._finalizer = weakref.finalize(self, _free, lib, ctx, bignums)
        for _ in range(4):
            bn = lib.BN_new()
            if not bn:
                raise MemoryError("libcrypto: BN_new failed")
            bignums.append(bn)
        self._ctx = ctx
        self._r, self._a, self._p, self._m = bignums

    def __reduce__(self):
        # The handles are scratch space: a copy or an unpickled kernel
        # (say, inside a pickled backend) gets handles of its own.
        return (type(self), ())

    def _load(self, bn: int, value: int) -> None:
        data = value.to_bytes((value.bit_length() + 7) // 8, "big")
        if len(data) > _INT_MAX:
            raise ValueError("operand too large for libcrypto")
        if not self._lib.BN_bin2bn(data, len(data), bn):
            raise RuntimeError("libcrypto: BN_bin2bn failed")

    def __call__(self, base: int, exp: int, mod: int) -> int:
        """``base ** exp % mod``; ``base`` may be ``>= mod``, as with ``pow``."""
        if base < 0 or exp < 0:
            raise ValueError("base and exponent must be non-negative")
        if mod <= 0:
            raise ValueError("modulus must be positive")
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
