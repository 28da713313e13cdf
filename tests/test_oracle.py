"""Differential checks against an independent implementation.

The reproduction's RSA is its own (``repro.crypto``, with modular
exponentiation through :func:`repro.crypto.modexp.powmod`).  Here every
private key the default measurement world holds signs one fixed
message, PKCS#1 v1.5 over SHA-256, once through ``repro.crypto`` and
once through ``cryptography``'s OpenSSL-backed ``RSAPrivateNumbers``;
the two signatures must be the same bytes.  PKCS#1 v1.5 signing is
deterministic, so any difference is a defect in one of them.
"""

from __future__ import annotations

import pytest

from repro.crypto import RSAPrivateKey, sign
from repro.datasets.world import MeasurementWorld, WorldConfig

rsa = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.rsa")
padding = pytest.importorskip(
    "cryptography.hazmat.primitives.asymmetric.padding")
hashes = pytest.importorskip("cryptography.hazmat.primitives.hashes")

MESSAGE = b"Is the Web Ready for OCSP Must-Staple?"


def _private_keys(root) -> list:
    """Every distinct :class:`RSAPrivateKey` reachable from *root*."""
    keys, seen, stack = {}, set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (str, bytes, int, float, type)):
            continue
        seen.add(id(obj))
        if isinstance(obj, RSAPrivateKey):
            keys[obj.n] = obj
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            stack.extend(getattr(obj, "__dict__", {}).values())
            stack.extend(getattr(obj, slot) for slot in
                         getattr(type(obj), "__slots__", ())
                         if hasattr(obj, slot))
    return [keys[n] for n in sorted(keys)]


def _independent_sign(key: RSAPrivateKey, message: bytes) -> bytes:
    numbers = rsa.RSAPrivateNumbers(
        p=key.p, q=key.q, d=key.d,
        dmp1=rsa.rsa_crt_dmp1(key.d, key.p),
        dmq1=rsa.rsa_crt_dmq1(key.d, key.q),
        iqmp=rsa.rsa_crt_iqmp(key.p, key.q),
        public_numbers=rsa.RSAPublicNumbers(key.e, key.n))
    return numbers.private_key().sign(message, padding.PKCS1v15(),
                                      hashes.SHA256())


def test_default_world_signatures_match_an_independent_signer():
    keys = _private_keys(MeasurementWorld(WorldConfig()))
    assert len(keys) > 50       # CA, responder and pool keys were all found
    mismatched = [hex(key.n)[:18] for key in keys
                  if sign(key, MESSAGE) != _independent_sign(key, MESSAGE)]
    assert not mismatched, f"{len(mismatched)} keys sign differently"
