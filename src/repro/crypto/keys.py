"""DER serialization of RSA public keys and key-pool management.

Public keys serialize as SubjectPublicKeyInfo (RFC 5280 section
4.1.2.7): an AlgorithmIdentifier for rsaEncryption plus the PKCS#1
RSAPublicKey SEQUENCE inside a BIT STRING.

The :class:`KeyPool` exists because pure-Python keygen dominates corpus
generation time; the simulated PKI issues many certificates from a
bounded pool of distinct keys, mirroring (deliberately, see DESIGN.md)
the real-world key sharing the authors' earlier CCS'16 paper measured.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..asn1 import Reader, UnsupportedAlgorithmError, encoder, oid
from .rsa import RSAPrivateKey, RSAPublicKey, generate_keypair


def encode_rsa_public_key(key: RSAPublicKey) -> bytes:
    """Encode the PKCS#1 RSAPublicKey SEQUENCE."""
    return encoder.encode_sequence(
        encoder.encode_integer(key.n),
        encoder.encode_integer(key.e),
    )


def decode_rsa_public_key(der: bytes) -> RSAPublicKey:
    """Decode a PKCS#1 RSAPublicKey SEQUENCE."""
    seq = Reader(der).read_sequence()
    n = seq.read_integer()
    e = seq.read_integer()
    seq.expect_end()
    return RSAPublicKey(n=n, e=e)


def encode_spki(key: RSAPublicKey) -> bytes:
    """Encode SubjectPublicKeyInfo for an RSA key."""
    algorithm = encoder.encode_sequence(
        encoder.encode_oid(oid.RSA_ENCRYPTION),
        encoder.encode_null(),
    )
    return encoder.encode_sequence(
        algorithm,
        encoder.encode_bit_string(encode_rsa_public_key(key)),
    )


def decode_spki(der: bytes) -> RSAPublicKey:
    """Decode SubjectPublicKeyInfo; only rsaEncryption is supported."""
    spki = Reader(der).read_sequence()
    algorithm = spki.read_sequence()
    algorithm_oid = algorithm.read_oid()
    if algorithm_oid != oid.RSA_ENCRYPTION:
        raise UnsupportedAlgorithmError(
            f"unsupported public key algorithm: {algorithm_oid}")
    algorithm.read_null()
    algorithm.expect_end()
    key_bits = spki.read_bit_string()
    spki.expect_end()
    return decode_rsa_public_key(key_bits)


class KeyPool:
    """A bounded, seeded pool of RSA keypairs.

    ``take()`` returns keys round-robin so large corpora amortize the
    keygen cost while still exercising many distinct keys.
    """

    def __init__(self, size: int = 32, bits: int = 512, seed: int = 0) -> None:
        if size < 1:
            raise ValueError("pool size must be positive")
        self._bits = bits
        self._rng = random.Random(seed)
        self._size = size
        self._keys: List[RSAPrivateKey] = []
        self._cursor = 0

    def take(self) -> RSAPrivateKey:
        """Return the next key, generating lazily up to the pool size."""
        if len(self._keys) < self._size:
            key = generate_keypair(self._bits, self._rng)
            self._keys.append(key)
            return key
        key = self._keys[self._cursor]
        self._cursor = (self._cursor + 1) % self._size
        return key

    def fresh(self) -> RSAPrivateKey:
        """Return a key that is never shared (used for CA roots)."""
        return generate_keypair(self._bits, self._rng)

    def __len__(self) -> int:
        return len(self._keys)
