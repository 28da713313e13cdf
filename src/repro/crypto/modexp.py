"""Modular exponentiation through OpenSSL's ``BN_mod_exp``, or ``pow``.

:func:`powmod` returns exactly ``pow(base, exp, mod)``.  When
``libcrypto.so.3`` loads it computes through OpenSSL's bignum
arithmetic, which is several times faster than CPython's ``pow`` for
the 256-bit and larger moduli of Miller-Rabin and RSA; otherwise it is
``pow``.  The integers are the same either way, so
which backend ran never shows in any key, signature or digest, and it
enters no cache key or config.

Where ``hashlib`` is built on OpenSSL 3 it has already mapped this
library into the process, so reaching it costs no extra load.  It is loaded by its exact soname:
``ctypes.util.find_library`` can resolve an unversioned system
libcrypto on macOS, and loading that aborts the process.  It is loaded
as a :class:`ctypes.PyDLL`, so every call keeps the GIL.  Each thread
converts through its own scratch BIGNUMs and ``BN_CTX``, so threads
never share one and a forked child keeps a private copy of its parent
thread's.
"""

from __future__ import annotations

import ctypes
import threading
from typing import Optional

#: The OpenSSL 3 shared library, by exact soname.
SONAME = "libcrypto.so.3"

_PTR = ctypes.c_void_p


def _bind(lib: ctypes.PyDLL, name: str, restype, *argtypes):
    function = getattr(lib, name)
    function.restype = restype
    function.argtypes = list(argtypes)
    return function


class _Library:
    """The seven libcrypto entry points, with declared signatures."""

    def __init__(self, lib: ctypes.PyDLL) -> None:
        self.bn_new = _bind(lib, "BN_new", _PTR)
        self.bn_free = _bind(lib, "BN_free", None, _PTR)
        self.ctx_new = _bind(lib, "BN_CTX_new", _PTR)
        self.ctx_free = _bind(lib, "BN_CTX_free", None, _PTR)
        self.bin2bn = _bind(lib, "BN_bin2bn", _PTR,
                            ctypes.c_char_p, ctypes.c_int, _PTR)
        self.bn2binpad = _bind(lib, "BN_bn2binpad", ctypes.c_int,
                               _PTR, ctypes.c_char_p, ctypes.c_int)
        self.mod_exp = _bind(lib, "BN_mod_exp", ctypes.c_int,
                             _PTR, _PTR, _PTR, _PTR, _PTR)


def _load(soname: str = SONAME) -> Optional[_Library]:
    """libcrypto's bignum functions, or None when it cannot be loaded."""
    try:
        return _Library(ctypes.PyDLL(soname))  # repro: allow-effect[ENV] -- the backend only changes speed: powmod returns pow's integers whichever library loads, and the choice enters no output, cache key or config
    except (OSError, AttributeError):
        return None


class _Bignums:
    """Four scratch BIGNUMs and a ``BN_CTX``, freed with their owner."""

    def __init__(self, library: _Library) -> None:
        self._library = library
        self.base, self.exp, self.mod, self.result = (
            library.bn_new() for _ in range(4))
        self.ctx = library.ctx_new()
        if not all((self.base, self.exp, self.mod, self.result, self.ctx)):
            raise MemoryError("libcrypto could not allocate scratch BIGNUMs")

    def __del__(self) -> None:
        library = self._library
        for bignum in (self.base, self.exp, self.mod, self.result):
            if bignum:
                library.bn_free(bignum)
        if self.ctx:
            library.ctx_free(self.ctx)


class _Native(threading.local):
    """The loaded library, with one :class:`_Bignums` per thread."""

    def __init__(self, library: _Library) -> None:
        self.library = library
        self.scratch = _Bignums(library)

    def powmod(self, base: int, exp: int, mod: int) -> int:
        """``pow(base, exp, mod)`` for ``0 <= base < mod``, ``exp >= 0``
        and ``mod > 1``."""
        library, scratch = self.library, self.scratch
        size = (mod.bit_length() + 7) >> 3
        exp_size = (exp.bit_length() + 7) >> 3
        library.bin2bn(base.to_bytes(size, "big"), size, scratch.base)
        library.bin2bn(exp.to_bytes(exp_size, "big"), exp_size, scratch.exp)
        library.bin2bn(mod.to_bytes(size, "big"), size, scratch.mod)
        out = ctypes.create_string_buffer(size)
        if not library.mod_exp(scratch.result, scratch.base, scratch.exp,
                               scratch.mod, scratch.ctx) or \
                library.bn2binpad(scratch.result, out, size) != size:
            raise RuntimeError("libcrypto BN_mod_exp failed")
        return int.from_bytes(out.raw, "big")


_library = _load()
_BACKEND: Optional[_Native] = None if _library is None else _Native(_library)

#: True when :func:`powmod` computes through libcrypto.
NATIVE = _BACKEND is not None


def powmod(base: int, exp: int, mod: int) -> int:
    """Exactly ``pow(base, exp, mod)``; through libcrypto when loaded.

    The base is reduced modulo *mod* first, as ``pow`` does.  A
    negative exponent, a modulus below 2, or a missing library goes
    to ``pow`` itself, so its results and errors are ``pow``'s.
    """
    backend = _BACKEND
    if backend is None or exp < 0 or mod < 2:
        return pow(base, exp, mod)
    return backend.powmod(base % mod, exp, mod)
