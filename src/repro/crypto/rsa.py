"""RSA key generation and the raw RSA primitives.

Key sizes default to 512 bits in the simulation (the corpus generator
creates thousands of keys; semantics, not strength, is what the
reproduction needs).  2048-bit keys work identically and are exercised
by the key-size ablation benchmark.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .modexp import powmod
from .prime import generate_prime

#: Standard public exponent.
F4 = 65537


@dataclass(frozen=True)
class RSAPublicKey:
    """An RSA public key ``(n, e)``."""

    n: int
    e: int

    @property
    def byte_length(self) -> int:
        """The modulus size in octets (= signature size)."""
        return (self.n.bit_length() + 7) // 8

    def raw_verify(self, signature_int: int) -> int:
        """Apply the public operation ``s^e mod n``."""
        return powmod(signature_int, self.e, self.n)


@dataclass(frozen=True)
class RSAPrivateKey:
    """An RSA private key with CRT parameters for fast signing."""

    n: int
    e: int
    d: int
    p: int
    q: int

    @property
    def public_key(self) -> RSAPublicKey:
        """The matching public key."""
        return RSAPublicKey(self.n, self.e)

    @property
    def byte_length(self) -> int:
        """The modulus size in octets."""
        return (self.n.bit_length() + 7) // 8

    def _crt_params(self) -> tuple:
        cached = getattr(self, "_crt_cache", None)
        if cached is None:
            cached = (
                self.d % (self.p - 1),
                self.d % (self.q - 1),
                pow(self.q, -1, self.p),
            )
            # frozen dataclass: bypass the immutability guard for the cache
            object.__setattr__(self, "_crt_cache", cached)
        return cached

    def raw_sign(self, message_int: int) -> int:
        """Apply the private operation ``m^d mod n`` using the CRT."""
        if not 0 <= message_int < self.n:
            raise ValueError("message representative out of range")
        dp, dq, q_inv = self._crt_params()
        s1 = powmod(message_int, dp, self.p)
        s2 = powmod(message_int, dq, self.q)
        h = (q_inv * (s1 - s2)) % self.p
        return s2 + self.q * h


def generate_keypair(bits: int = 512, rng: "random.Random | int | None" = None) -> RSAPrivateKey:
    """Generate an RSA keypair of *bits* modulus bits.

    *rng* may be a ``random.Random``, an integer seed, or None (fresh
    nondeterministic seed).
    """
    if isinstance(rng, int):
        rng = random.Random(rng)
    elif rng is None:
        rng = random.Random()  # repro: allow-effect[AMBIENT_RNG] -- convenience default for interactive use; every reproducible caller passes a seed
    if bits < 128:
        raise ValueError(f"modulus too small to hold a PKCS#1 digest: {bits} bits")
    half = bits // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        if math.gcd(F4, phi) != 1:
            continue
        d = pow(F4, -1, phi)
        return RSAPrivateKey(n=n, e=F4, d=d, p=p, q=q)
