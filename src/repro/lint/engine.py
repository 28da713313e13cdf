"""The pluggable rule engine of ``repro.lint``.

Rules register themselves into a module-level registry with a stable
id, a severity, the artifact kind they apply to, and the RFC clause
they enforce.  The engine parses an artifact (certificate, OCSP
response, or CRL), builds an :class:`Artifact` carrying the DER bytes,
the parsed object, and a byte-offset span map, and runs every
registered rule of that kind.  Parsing failures are themselves rules
(``*_PARSE``) — exactly the "malformed" class of the paper's Figure 5.

No rule touches the network or the wall clock: the reference time is
an explicit input on :class:`LintContext`, which is what makes a lint
run reproducible byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..asn1.errors import ASN1Error
from ..ocsp import CertID
from ..ocsp.response import OCSPResponse
from ..simnet.clock import DAY, MEASUREMENT_START
from ..x509 import Certificate, CertificateList
from ..x509.pem import CERTIFICATE_LABEL, CRL_LABEL, OCSP_RESPONSE_LABEL, decode_pem
from . import provenance
from .findings import Finding, LintReport, Severity, Span

#: Artifact kinds the engine understands.
KIND_CERTIFICATE = "certificate"
KIND_OCSP = "ocsp"
KIND_CRL = "crl"
KINDS = (KIND_CERTIFICATE, KIND_OCSP, KIND_CRL)

_PEM_LABEL_TO_KIND = {
    CERTIFICATE_LABEL: KIND_CERTIFICATE,
    OCSP_RESPONSE_LABEL: KIND_OCSP,
    CRL_LABEL: KIND_CRL,
}


@dataclass
class LintContext:
    """Explicit inputs of a lint run (no ambient clock, no network).

    *issuer* / *cert_id* / *expected_nonce* enable the relational
    rules (signature verification, CertID consistency, nonce echo);
    rules that need missing context simply do not fire.
    """

    #: The "now" every freshness rule judges against (POSIX seconds).
    reference_time: int = MEASUREMENT_START
    #: The issuer certificate of the artifact being linted.
    issuer: Optional[Certificate] = None
    #: The CertID the client asked about (OCSP request context).
    cert_id: Optional[CertID] = None
    #: The nonce sent with the request, when replay protection is on.
    expected_nonce: Optional[bytes] = None
    #: Clock tolerance for freshness comparisons.
    clock_skew: int = 0
    #: thisUpdate margins below this count as "zero margin" (Figure 9).
    zero_margin_threshold: int = 60
    #: Validity windows beyond this are flagged (Figure 8's ">1 month").
    max_validity: int = 30 * DAY


@dataclass
class Artifact:
    """One parsed artifact handed to rules."""

    kind: str
    der: bytes
    parsed: object
    source: str
    spans: Dict[str, Span] = field(default_factory=dict)

    def span(self, *names: str) -> Span:
        """The first known span among *names*, else the whole artifact."""
        for name in names:
            hit = self.spans.get(name)
            if hit is not None:
                return hit
        return self.spans.get(provenance.WHOLE, Span(0, len(self.der)))


#: What a rule callable yields: (message, span-or-None).
Violation = Tuple[str, Optional[Span]]
CheckFn = Callable[[Artifact, LintContext], Iterator[Violation]]


@dataclass(frozen=True)
class Rule:
    """One registered conformance rule."""

    rule_id: str
    severity: Severity
    kind: str
    reference: str
    summary: str
    check: Optional[CheckFn] = None  # None = engine-fired (parse rules)

    def finding(self, artifact_kind: str, source: str, message: str,
                span: Optional[Span] = None) -> Finding:
        """Materialize one Finding for this rule."""
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            message=message,
            kind=artifact_kind,
            source=source,
            span=span,
            reference=self.reference,
        )


#: The global registry: rule id -> Rule, insertion-ordered.
RULES: Dict[str, Rule] = {}


def register(rule_id: str, severity: Severity, kind: str, reference: str,
             summary: str) -> Callable[[CheckFn], CheckFn]:
    """Decorator registering a rule callable under *rule_id*."""
    def wrap(check: CheckFn) -> CheckFn:
        _add_rule(Rule(rule_id, severity, kind, reference, summary, check))
        return check
    return wrap


def register_structural(rule_id: str, severity: Severity, kind: str,
                        reference: str, summary: str) -> Rule:
    """Register an engine-fired rule (parse failures) with no callable."""
    rule = Rule(rule_id, severity, kind, reference, summary, None)
    _add_rule(rule)
    return rule


def _add_rule(rule: Rule) -> None:
    if rule.rule_id in RULES:
        raise ValueError(f"duplicate rule id: {rule.rule_id}")
    if rule.kind not in KINDS:
        raise ValueError(f"unknown artifact kind: {rule.kind}")
    RULES[rule.rule_id] = rule


def rules_for(kind: str) -> List[Rule]:
    """All registered rules applying to *kind* (registration order)."""
    return [rule for rule in RULES.values() if rule.kind == kind]


def catalogue() -> List[Rule]:
    """Every registered rule, sorted by id (the documented catalogue)."""
    return sorted(RULES.values(), key=lambda rule: rule.rule_id)


def render_catalogue() -> str:
    """The rule catalogue as a text table (ID, severity, RFC, summary)."""
    rows = [(r.rule_id, r.severity.label, r.reference, r.summary)
            for r in catalogue()]
    widths = [max(len(row[i]) for row in rows + [("rule", "sev", "reference", "summary")])
              for i in range(4)]
    header = ("rule", "sev", "reference", "summary")
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    lines.append("  ".join("-" * widths[i] for i in range(4)))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


# -- parse (structural) rules; fired by the engine itself ---------------------

PARSE_RULES: Dict[str, Rule] = {
    KIND_CERTIFICATE: register_structural(
        "X509_PARSE", Severity.ERROR, KIND_CERTIFICATE, "RFC 5280 §4.1",
        "certificate bytes must parse as a DER Certificate"),
    KIND_OCSP: register_structural(
        "OCSP_PARSE", Severity.ERROR, KIND_OCSP, "RFC 6960 §4.2.1",
        "response bytes must parse as a DER OCSPResponse"),
    KIND_CRL: register_structural(
        "CRL_PARSE", Severity.ERROR, KIND_CRL, "RFC 5280 §5.1",
        "CRL bytes must parse as a DER CertificateList"),
}

_PARSERS = {
    KIND_CERTIFICATE: Certificate.from_der,
    KIND_OCSP: OCSPResponse.from_der,
    KIND_CRL: CertificateList.from_der,
}

_SPAN_WALKERS = {
    KIND_CERTIFICATE: provenance.certificate_spans,
    KIND_OCSP: provenance.ocsp_spans,
    KIND_CRL: provenance.crl_spans,
}


def sniff_kind(der: bytes) -> Optional[str]:
    """Guess the artifact kind of raw DER by attempting each parser."""
    for kind in (KIND_CERTIFICATE, KIND_CRL, KIND_OCSP):
        try:
            _PARSERS[kind](der)
            return kind
        except (ASN1Error, ValueError):
            continue
    # Unparseable: an OCSPResponse is the only artifact whose first
    # element is an ENUMERATED, which identifies broken responses.
    if len(der) > 2 and der[0] == 0x30:
        try:
            from ..asn1 import Reader, tags
            if Reader(der).read_sequence().peek_tag() == tags.ENUMERATED:
                return KIND_OCSP
        except (ASN1Error, ValueError):
            pass
    return None


class LintEngine:
    """Runs registered rules over artifacts and collects findings."""

    def __init__(self, context: Optional[LintContext] = None) -> None:
        self.context = context or LintContext()

    # -- single artifacts ----------------------------------------------------

    def lint_der(self, der: bytes, kind: str, source: str = "<der>",
                 context: Optional[LintContext] = None,
                 parsed: object = None) -> List[Finding]:
        """Lint one DER artifact of a known *kind*.

        A caller that already parsed *der* with the *kind*'s parser
        (``Certificate.from_der``, ``OCSPResponse.from_der``,
        ``CertificateList.from_der``, strict) may pass the result as
        *parsed*; parsing is a pure function of the bytes, so the
        findings are the ones a fresh parse would give.
        """
        ctx = context or self.context
        if kind not in KINDS:
            raise ValueError(f"unknown artifact kind: {kind}")
        if parsed is None:
            try:
                parsed = _PARSERS[kind](der)
            except (ASN1Error, ValueError) as exc:
                rule = PARSE_RULES[kind]
                return [rule.finding(kind, source, f"does not parse: {exc}",
                                     Span(0, len(der)))]
        spans = _SPAN_WALKERS[kind](der)
        artifact = Artifact(kind=kind, der=der, parsed=parsed,
                            source=source, spans=spans)
        findings: List[Finding] = []
        for rule in rules_for(kind):
            if rule.check is None:
                continue
            try:
                for message, span in rule.check(artifact, ctx):
                    findings.append(rule.finding(kind, source, message,
                                                 span or artifact.span()))
            except (ASN1Error, ValueError) as exc:
                # Lazily-decoded substructure (extension values, embedded
                # certificates) can be malformed even when the outer
                # artifact parses; degrade to a parse finding instead of
                # letting the rule's exception escape the engine.
                offset = getattr(exc, "offset", None)
                span = (Span(offset, offset + 1) if isinstance(offset, int)
                        else Span(0, len(der)))
                findings.append(PARSE_RULES[kind].finding(
                    kind, source,
                    f"lazy decode failed in {rule.rule_id}: {exc}", span))
        return findings

    # -- files / bundles -----------------------------------------------------

    def lint_blob(self, raw: bytes, source: str, kind: str = "auto",
                  context: Optional[LintContext] = None) -> LintReport:
        """Lint a file blob: PEM bundle (any mix of labels) or raw DER."""
        report = LintReport(reference_time=(context or self.context).reference_time)
        blocks: List[Tuple[str, bytes, str]] = []
        text: Optional[str] = None
        try:
            text = raw.decode("ascii")
        except UnicodeDecodeError:
            pass
        if text is not None and "-----BEGIN " in text:
            try:
                decoded = decode_pem(text)
            except ValueError:
                decoded = []  # bad base64: fall through to the raw path
            for index, (label, der) in enumerate(decoded):
                block_kind = (_PEM_LABEL_TO_KIND.get(label) or
                              (kind if kind != "auto" else None))
                if block_kind is None:
                    continue  # keys and other non-lintable PEM blocks
                blocks.append((block_kind, der, f"{source}#{index}"))
            if not blocks:
                # PEM armor with no complete lintable block (e.g. a
                # truncated bundle) is a malformed artifact, not a
                # clean empty report.
                fallback = kind if kind != "auto" else KIND_CERTIFICATE
                blocks.append((fallback, raw, source))
        else:
            der_kind = kind if kind != "auto" else sniff_kind(raw)
            if der_kind is None:
                der_kind = KIND_CERTIFICATE  # deterministic fallback
            blocks.append((der_kind, raw, source))
        for block_kind, der, block_source in blocks:
            report.artifacts += 1
            report.extend(self.lint_der(der, block_kind, block_source, context))
        return report.sort()

    def lint_path(self, path: str, kind: str = "auto",
                  context: Optional[LintContext] = None) -> LintReport:
        """Lint one file from disk (PEM bundle or raw DER)."""
        with open(path, "rb") as stream:
            raw = stream.read()
        return self.lint_blob(raw, source=path, kind=kind, context=context)

