"""Probabilistic prime generation for RSA key material.

Uses deterministic trial division over small primes followed by
Miller-Rabin, with a cheap small-modulus pre-check in each round.  All
randomness flows through a caller-supplied ``random.Random`` so corpus
generation is reproducible; the witnesses for Miller-Rabin come from
the same stream.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional

from .modexp import powmod


def _primes_below(limit: int) -> List[int]:
    """The primes below *limit* (sieve of Eratosthenes)."""
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
    return [p for p in range(limit) if sieve[p]]


_PRIMES = _primes_below(4096)
#: Trial division: the 54 primes below 256 and their product.
_SMALL_PRIMES = frozenset(p for p in _PRIMES if p < 256)
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)
#: The product of the primes 257..4095.  A candidate sharing a factor
#: with it is composite or one of those primes; Miller-Rabin rounds
#: then test the witness modulo that small factor first.
_SIEVE_PRODUCT = math.prod(p for p in _PRIMES if p > 256)


def is_probable_prime(candidate: int, rng: Optional[random.Random] = None,
                      rounds: int = 24) -> bool:
    """Return True if *candidate* passes trial division and Miller-Rabin.

    Each round draws its witness exactly as plain Miller-Rabin does.
    When *candidate* shares a factor ``f`` with :data:`_SIEVE_PRODUCT`,
    the round first checks ``witness^(candidate-1) == 1 (mod f)``, a
    modexp over a tiny modulus: every round that passes Miller-Rabin
    satisfies ``witness^(candidate-1) == 1 (mod candidate)`` and hence
    modulo any divisor, so a failure here is exactly a round that would
    have failed.  The verdict and the draws from *rng* are the same as
    without the check.
    """
    if candidate < 2:
        return False
    if candidate < 256:
        return candidate in _SMALL_PRIMES
    if math.gcd(candidate, _SMALL_PRODUCT) != 1:
        return False
    rng = rng or random.Random(candidate)
    divisor = math.gcd(candidate, _SIEVE_PRODUCT)
    # Write candidate - 1 as d * 2^r with d odd.
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        witness = rng.randrange(2, candidate - 1)
        if divisor != 1 and pow(witness, candidate - 1, divisor) != 1:
            return False
        x = powmod(witness, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, candidate)
            if x == candidate - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: random.Random) -> int:
    """Generate a probable prime of exactly *bits* bits."""
    if bits < 8:
        raise ValueError(f"prime size too small: {bits} bits")
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | 1  # force top bit and oddness
        if is_probable_prime(candidate, rng):
            return candidate
