"""RSA crypto substrate (keygen, PKCS#1 v1.5 signatures).

Everything a CA, web server, or OCSP responder in the simulation signs
or verifies goes through this package.  It is Python over integers,
except that the full-size modular exponentiations of Miller-Rabin and
of RSA signing and verification go through :func:`.modexp.powmod`:
OpenSSL's ``BN_mod_exp`` when ``libcrypto.so.3`` loads (``hashlib``
has already loaded it), and builtin ``pow`` otherwise, with the same
integers either way.  There is no dependency on the ``cryptography``
package.
"""

from .prime import generate_prime, is_probable_prime
from .rsa import F4, RSAPrivateKey, RSAPublicKey, generate_keypair
from .pkcs1 import SignatureError, is_valid, sign, verify
from .keys import (
    KeyPool,
    decode_rsa_public_key,
    decode_spki,
    encode_rsa_public_key,
    encode_spki,
)

__all__ = [
    "F4",
    "KeyPool",
    "RSAPrivateKey",
    "RSAPublicKey",
    "SignatureError",
    "decode_rsa_public_key",
    "decode_spki",
    "encode_rsa_public_key",
    "encode_spki",
    "generate_keypair",
    "generate_prime",
    "is_probable_prime",
    "is_valid",
    "sign",
    "verify",
]
