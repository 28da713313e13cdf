"""Seed documents and mutant classification for the hostile corpus.

:func:`seed_world` mints one canonical well-formed document per kind
(leaf certificate, OCSP response, CRL) from the simulated PKI — the
same recipe the lint self-test uses, under a hostile-specific seed —
and :func:`classify_mutant` pushes a mutated document through the full
consumer stack in pipeline order:

1. **parse** — the scanner-layer entrypoint for the kind
   (``Certificate.from_der`` / ``OCSPResponse.from_der`` /
   ``CertificateList.from_der``);
2. **lint** — :class:`repro.lint.LintEngine` with full context;
3. **verify** — signature/window verification
   (:func:`repro.ocsp.verify.verify_response` for OCSP, which is the
   scanner's verification layer, and ``verify_signature`` for
   certificates/CRLs).

The outcome taxonomy deliberately separates ``parse_error`` (a typed
:class:`~repro.asn1.errors.ASN1Error` — the hardened pipeline working
as designed) from ``unexpected_exception`` (any other exception type —
the bug class this experiment exists to hunt; the acceptance criterion
is that its count is zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from ..asn1.errors import ASN1Error
from ..ca import CertificateAuthority, OCSPResponder
from ..crypto import KeyPool
from ..lint.engine import (
    KIND_CERTIFICATE,
    KIND_CRL,
    KIND_OCSP,
    LintContext,
    LintEngine,
)
from ..lint.findings import Severity
from ..memo import BoundedMemo
from ..ocsp import CertID, OCSPRequest
from ..ocsp.verify import verify_response
from ..simnet.clock import DAY, MEASUREMENT_START

from ..x509 import Certificate, CertificateList
from .tlv import tlv_fixed_point

#: Document kinds, in shard-plan order.
KINDS: Tuple[str, ...] = ("certificate", "ocsp", "crl")

#: Classification outcomes, in pipeline order.
OUTCOMES: Tuple[str, ...] = (
    "parse_error",
    "lint_error",
    "verify_failed",
    "survived",
    "unexpected_exception",
)

#: The reference time every hostile run pins (mutants carry real
#: validity windows minted relative to it).
DEFAULT_REFERENCE_TIME = MEASUREMENT_START + DAY

_LINT_KIND = {
    "certificate": KIND_CERTIFICATE,
    "ocsp": KIND_OCSP,
    "crl": KIND_CRL,
}

@dataclass
class SeedWorld:
    """The well-formed originals plus the context needed to verify them."""

    reference_time: int
    documents: Dict[str, bytes]
    leaf: Certificate
    issuer: Certificate
    cert_id: CertID

    @property
    def donors(self) -> Tuple[bytes, ...]:
        """Splice donors, in stable kind order."""
        return tuple(self.documents[kind] for kind in KINDS)

#: Per-process memo — shard workers re-enter with the same reference
#: time, and 512-bit keygen is the expensive part.
_SEED_MEMO: BoundedMemo[int, SeedWorld] = BoundedMemo(4)

def seed_world(reference_time: int = DEFAULT_REFERENCE_TIME) -> SeedWorld:
    """Mint (once per process) the canonical seed documents."""
    return _SEED_MEMO.lookup(reference_time, _mint_seed_world)


def _mint_seed_world(reference_time: int) -> SeedWorld:
    pool = KeyPool(size=4, bits=512, seed=11)
    url = "http://ocsp.hostile.test"
    root = CertificateAuthority.create_root(
        "Hostile Root", ocsp_url=url, key_pool=pool,
        not_before=reference_time - 3 * 365 * DAY)
    issuing = root.create_intermediate("Hostile CA", url, key_pool=pool)
    issuing.crl_url = "http://crl.hostile.test/ca.crl"
    leaf = issuing.issue_leaf("mutant.hostile.example", pool.take(),
                              not_before=reference_time - DAY,
                              must_staple=True)
    cert_id = CertID.for_certificate(leaf, issuing.certificate)
    responder = OCSPResponder(issuing, url,
                              epoch_start=reference_time - 30 * DAY)
    response_der = responder.handle(
        OCSPRequest.for_single(cert_id).encode(), reference_time).body
    crl = issuing.build_crl(reference_time)
    return SeedWorld(
        reference_time=reference_time,
        documents={
            "certificate": leaf.der,
            "ocsp": response_der,
            "crl": crl.der,
        },
        leaf=leaf,
        issuer=issuing.certificate,
        cert_id=cert_id,
    )

def _parse(kind: str, der: bytes):
    if kind == "certificate":
        return Certificate.from_der(der)
    if kind == "ocsp":
        from ..ocsp import OCSPResponse
        return OCSPResponse.from_der(der)
    if kind == "crl":
        return CertificateList.from_der(der)
    raise KeyError(f"unknown document kind: {kind!r}")

def classify_mutant(kind: str, der: bytes, world: SeedWorld) -> Dict[str, Any]:
    """Classify one mutant through parse → lint → verify.

    Returns a JSON-ready row: ``outcome`` plus attribution
    (``error_class``/``error_detail``/``error_offset``), the input
    size, and — for documents that parsed — whether the TLV
    decode→re-encode→decode fixed point holds.
    """
    row: Dict[str, Any] = {
        "outcome": "survived",
        "error_class": None,
        "error_detail": None,
        "error_offset": None,
        "size": len(der),
        "fixed_point": None,
    }

    # 1. parse (the scanner layer's entrypoint for this kind).
    try:
        parsed = _parse(kind, der)
    except ASN1Error as exc:
        row.update(outcome="parse_error", error_class=type(exc).__name__,
                   error_detail=str(exc)[:200],
                   error_offset=getattr(exc, "offset", None))
        return row
    except Exception as exc:  # repro: allow-broad-except -- non-ASN1Error escapes from the parser are the bug class this experiment hunts; they become classified rows
        row.update(outcome="unexpected_exception",
                   error_class=type(exc).__name__,
                   error_detail=f"parse: {exc}"[:200])
        return row

    row["fixed_point"] = tlv_fixed_point(der)

    # 2. lint, with the full issuer/cert-id context.
    try:
        context = LintContext(reference_time=world.reference_time,
                              issuer=world.issuer, cert_id=world.cert_id)
        findings = LintEngine().lint_der(der, _LINT_KIND[kind],
                                         f"hostile/{kind}", context,
                                         parsed=parsed)
        lint_errors = [f for f in findings if f.severity >= Severity.ERROR]
    except Exception as exc:  # repro: allow-broad-except -- lint-layer escapes on hostile input are findings, not failures; classified as unexpected_exception rows
        row.update(outcome="unexpected_exception",
                   error_class=type(exc).__name__,
                   error_detail=f"lint: {exc}"[:200])
        return row

    # 3. verify (the scanner's verification layer).
    try:
        verified = _verify(kind, der, parsed, world)
    except ASN1Error as exc:
        # Lazily-decoded substructure failed during verification: the
        # document is malformed, just discovered late.
        row.update(outcome="parse_error", error_class=type(exc).__name__,
                   error_detail=f"verify: {exc}"[:200],
                   error_offset=getattr(exc, "offset", None))
        return row
    except Exception as exc:  # repro: allow-broad-except -- verifier escapes on hostile input are findings, not failures; classified as unexpected_exception rows
        row.update(outcome="unexpected_exception",
                   error_class=type(exc).__name__,
                   error_detail=f"verify: {exc}"[:200])
        return row

    if lint_errors:
        first = lint_errors[0]
        row.update(outcome="lint_error", error_class=first.rule_id,
                   error_detail=first.message[:200])
    elif not verified:
        row["outcome"] = "verify_failed"
    return row

def _verify(kind: str, der: bytes, parsed, world: SeedWorld) -> bool:
    if kind == "certificate":
        return parsed.verify_signature(world.issuer.public_key)
    if kind == "ocsp":
        check = verify_response(der, world.cert_id, world.issuer,
                                world.reference_time)
        return check.ok
    # CRL: signature plus freshness at the pinned reference time.
    return (parsed.verify_signature(world.issuer.public_key)
            and parsed.is_fresh(world.reference_time))
