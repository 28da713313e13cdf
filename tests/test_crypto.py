"""Unit tests for the crypto substrate: primes, RSA, PKCS#1, SPKI."""

import hashlib
import random
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import (
    KeyPool,
    SignatureError,
    decode_rsa_public_key,
    decode_spki,
    encode_rsa_public_key,
    encode_spki,
    generate_keypair,
    generate_prime,
    is_probable_prime,
    is_valid,
    sign,
    verify,
)
from repro.crypto import modexp


class TestPrimes:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 97, 251):
            assert is_probable_prime(p)

    def test_small_composites(self):
        for c in (0, 1, 4, 9, 100, 561, 8911):  # includes Carmichael numbers
            assert not is_probable_prime(c)

    def test_known_large_prime(self):
        # 2^127 - 1 is a Mersenne prime.
        assert is_probable_prime(2 ** 127 - 1)

    def test_known_large_composite(self):
        assert not is_probable_prime((2 ** 127 - 1) * 7)

    def test_generate_prime_has_exact_bits(self):
        rng = random.Random(1)
        for bits in (64, 128, 256):
            p = generate_prime(bits, rng)
            assert p.bit_length() == bits
            assert is_probable_prime(p)

    def test_generate_prime_too_small(self):
        with pytest.raises(ValueError):
            generate_prime(4, random.Random(0))

    def test_deterministic_given_seed(self):
        assert generate_prime(128, random.Random(42)) == generate_prime(128, random.Random(42))


_REFERENCE_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
    227, 229, 233, 239, 241, 251,
]


def _reference_is_probable_prime(candidate: int,
                                 rng: Optional[random.Random] = None,
                                 rounds: int = 24) -> bool:
    """Plain trial division + Miller-Rabin, as it was before the
    small-modulus pre-check: the oracle the fast path must match."""
    if candidate < 2:
        return False
    for prime in _REFERENCE_SMALL_PRIMES:
        if candidate == prime:
            return True
        if candidate % prime == 0:
            return False
    rng = rng or random.Random(candidate)
    # Write candidate - 1 as d * 2^r with d odd.
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        witness = rng.randrange(2, candidate - 1)
        x = pow(witness, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, candidate)
            if x == candidate - 1:
                break
        else:
            return False
    return True


_SIEVE_PRIMES = [p for p in range(257, 4096)
                 if all(p % q for q in range(2, int(p ** 0.5) + 1))]

#: Carmichael numbers: Fermat liars for every coprime witness.  The
#: first three fall to trial division; the Chernick ones
#: (6k+1)(12k+1)(18k+1) have every factor in 257..4095, so every
#: round passes the small-modulus check and Miller-Rabin decides.
_CARMICHAEL = [561, 41041, 825265, 118901521, 172947529, 216821881,
               228842209, 1299963601, 2301745249, 9624742921]

_CANDIDATES = st.one_of(
    st.integers(min_value=-3, max_value=251),
    st.sampled_from(_SIEVE_PRIMES),
    st.builds(lambda p, k: p * k, st.sampled_from(_SIEVE_PRIMES),
              st.integers(min_value=2, max_value=2 ** 240)),
    st.sampled_from(_CARMICHAEL),
    st.integers(min_value=2 ** 255, max_value=2 ** 256 - 1).map(
        lambda n: n | 1),
)


def _assert_same_verdict_and_draws(candidate: int, seed: int) -> None:
    fast_rng, reference_rng = random.Random(seed), random.Random(seed)
    assert is_probable_prime(candidate, fast_rng) == \
        _reference_is_probable_prime(candidate, reference_rng)
    assert fast_rng.getstate() == reference_rng.getstate()


def _assert_same_verdict(candidate: int) -> None:
    assert is_probable_prime(candidate) == \
        _reference_is_probable_prime(candidate)


class TestPrimeSieveExactness:
    """The pre-checked Miller-Rabin gives the same verdict after the
    same draws from the caller's RNG, so every generated key is
    unchanged."""

    @settings(max_examples=300, deadline=None)
    @given(candidate=_CANDIDATES, seed=st.integers(0, 2 ** 32))
    def test_matches_reference_verdict_and_draws(self, candidate, seed):
        _assert_same_verdict_and_draws(candidate, seed)

    @settings(max_examples=100, deadline=None)
    @given(candidate=_CANDIDATES)
    def test_matches_reference_with_default_rng(self, candidate):
        _assert_same_verdict(candidate)

    @pytest.mark.parametrize("candidate", _CARMICHAEL)
    def test_carmichael_numbers_rejected(self, candidate):
        assert not is_probable_prime(candidate, random.Random(0))

    def test_every_small_answer_unchanged(self):
        for candidate in range(-3, 4096 * 2):
            assert is_probable_prime(candidate, random.Random(1)) == \
                _reference_is_probable_prime(candidate, random.Random(1))


class TestKeygen:
    def test_keypair_consistency(self):
        key = generate_keypair(512, rng=7)
        assert key.n == key.p * key.q
        assert key.n.bit_length() == 512
        # d inverts e mod phi.
        phi = (key.p - 1) * (key.q - 1)
        assert (key.d * key.e) % phi == 1

    def test_seed_determinism(self):
        assert generate_keypair(512, rng=3).n == generate_keypair(512, rng=3).n

    def test_different_seeds_differ(self):
        assert generate_keypair(512, rng=3).n != generate_keypair(512, rng=4).n

    def test_too_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            generate_keypair(64)

    def test_raw_sign_verify_inverse(self):
        key = generate_keypair(512, rng=11)
        message = 123456789
        assert key.public_key.raw_verify(key.raw_sign(message)) == message

    def test_raw_sign_range_check(self):
        key = generate_keypair(512, rng=11)
        with pytest.raises(ValueError):
            key.raw_sign(key.n)


class TestPKCS1:
    @pytest.fixture(scope="class")
    def key(self):
        return generate_keypair(512, rng=20)

    def test_sign_verify(self, key):
        signature = sign(key, b"hello world")
        verify(key.public_key, b"hello world", signature)

    def test_signature_length_is_modulus_length(self, key):
        assert len(sign(key, b"x")) == 64

    def test_tampered_message_fails(self, key):
        signature = sign(key, b"hello world")
        with pytest.raises(SignatureError):
            verify(key.public_key, b"hello worle", signature)

    def test_tampered_signature_fails(self, key):
        signature = bytearray(sign(key, b"m"))
        signature[10] ^= 0x01
        assert not is_valid(key.public_key, b"m", bytes(signature))

    def test_wrong_key_fails(self, key):
        other = generate_keypair(512, rng=21)
        signature = sign(key, b"m")
        assert not is_valid(other.public_key, b"m", signature)

    def test_wrong_length_fails(self, key):
        with pytest.raises(SignatureError):
            verify(key.public_key, b"m", b"\x00" * 63)

    def test_sha1_mode(self, key):
        signature = sign(key, b"legacy", hash_name="sha1")
        verify(key.public_key, b"legacy", signature, hash_name="sha1")
        # Cross-hash verification fails.
        assert not is_valid(key.public_key, b"legacy", signature, hash_name="sha256")

    def test_unsupported_hash(self, key):
        with pytest.raises(ValueError):
            sign(key, b"m", hash_name="md5")

    def test_empty_message(self, key):
        signature = sign(key, b"")
        verify(key.public_key, b"", signature)

    def test_signature_deterministic(self, key):
        assert sign(key, b"m") == sign(key, b"m")

    def test_out_of_range_signature_rejected(self, key):
        too_big = (key.n).to_bytes(64, "big")
        with pytest.raises(SignatureError):
            verify(key.public_key, b"m", too_big)


class TestKeySerialization:
    def test_rsa_public_key_round_trip(self):
        key = generate_keypair(512, rng=30).public_key
        assert decode_rsa_public_key(encode_rsa_public_key(key)) == key

    def test_spki_round_trip(self):
        key = generate_keypair(512, rng=31).public_key
        assert decode_spki(encode_spki(key)) == key

    def test_spki_rejects_non_rsa(self):
        from repro.asn1 import encoder, oid
        bogus = encoder.encode_sequence(
            encoder.encode_sequence(encoder.encode_oid(oid.SHA1), encoder.encode_null()),
            encoder.encode_bit_string(b"\x00"),
        )
        with pytest.raises(ValueError):
            decode_spki(bogus)


class TestKeyPool:
    def test_lazy_generation(self):
        pool = KeyPool(size=3, seed=1)
        assert len(pool) == 0
        pool.take()
        assert len(pool) == 1

    def test_round_robin_after_fill(self):
        pool = KeyPool(size=2, seed=1)
        first, second = pool.take(), pool.take()
        assert pool.take() is first
        assert pool.take() is second

    def test_fresh_not_in_pool(self):
        pool = KeyPool(size=1, seed=1)
        a = pool.take()
        b = pool.fresh()
        assert a.n != b.n
        assert len(pool) == 1

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            KeyPool(size=0)

    def test_deterministic_across_instances(self):
        assert KeyPool(size=2, seed=5).take().n == KeyPool(size=2, seed=5).take().n

    @pytest.mark.parametrize("seed, digest", [
        (0, "f3e97c2a03f15984edd7b8bcde23567f5c4f766b3a76d223c57d2b8fd6a94ab7"),
        (11, "c6cc02d2babb13a580d6f60e83fdde8b4872aaaef89afc9593448890baaf444c"),
        (2018, "16280119d8453627a21cf987c2385d7ee6e496ce7a4bc6cf0fd90afb1f1f29ab"),
    ])
    def test_moduli_frozen(self, seed, digest):
        """Key material is part of every recorded output: the moduli a
        seeded pool generates must never change."""
        pool = KeyPool(size=4, bits=512, seed=seed)
        moduli = b"".join(pool.take().n.to_bytes(64, "big") for _ in range(4))
        assert hashlib.sha256(moduli).hexdigest() == digest


@pytest.fixture(scope="class")
def pow_backend():
    """Every ``powmod`` of the class runs on builtin ``pow``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modexp, "_BACKEND", None)
        yield


@pytest.mark.usefixtures("pow_backend")
class TestPrimeSieveExactnessOnPow:
    """The same verdicts after the same draws without libcrypto.

    New property tests over the shared checks, not a subclass:
    Hypothesis refuses one ``@given`` test run from two classes.
    """

    @settings(max_examples=300, deadline=None)
    @given(candidate=_CANDIDATES, seed=st.integers(0, 2 ** 32))
    def test_matches_reference_verdict_and_draws(self, candidate, seed):
        _assert_same_verdict_and_draws(candidate, seed)

    @settings(max_examples=100, deadline=None)
    @given(candidate=_CANDIDATES)
    def test_matches_reference_with_default_rng(self, candidate):
        _assert_same_verdict(candidate)

    test_carmichael_numbers_rejected = \
        TestPrimeSieveExactness.test_carmichael_numbers_rejected
    test_every_small_answer_unchanged = \
        TestPrimeSieveExactness.test_every_small_answer_unchanged


@pytest.mark.usefixtures("pow_backend")
class TestKeyPoolOnPow(TestKeyPool):
    """The same frozen moduli without libcrypto."""
