"""Finding and report types for the static conformance analyzer.

A :class:`Finding` is one rule violation observed in one artifact,
carrying byte-offset provenance (a :class:`Span` into the artifact's
DER encoding) so a report consumer can point at the exact octets that
triggered the rule — the same way ``openssl asn1parse`` offsets do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Dict, Iterable, List, Optional


class Severity(IntEnum):
    """Rule severity; ordering allows ``>=`` threshold filters."""

    INFO = 10
    WARN = 20
    ERROR = 30

    @property
    def label(self) -> str:
        """Lower-case label used in reports ("error"/"warn"/"info")."""
        return self.name.lower()

    @property
    def sarif_level(self) -> str:
        """The SARIF 2.1.0 ``level`` value for this severity."""
        return {"ERROR": "error", "WARN": "warning", "INFO": "note"}[self.name]


@dataclass(frozen=True)
class Span:
    """A byte range (offset, length) into one artifact's DER encoding."""

    offset: int
    length: int

    @property
    def end(self) -> int:
        """Offset one past the last covered byte."""
        return self.offset + self.length


@dataclass(frozen=True)
class Finding:
    """One rule violation in one artifact."""

    rule_id: str
    severity: Severity
    message: str
    #: "certificate" | "ocsp" | "crl" | "unknown".
    kind: str
    #: Where the artifact came from (file path, PEM block index, corpus id).
    source: str
    #: DER byte range the finding points at (None = whole artifact).
    span: Optional[Span] = None
    #: The RFC clause (or paper figure) the rule enforces.
    reference: str = ""

    def render(self) -> str:
        """One-line human rendering."""
        where = f"@{self.span.offset}+{self.span.length}" if self.span else ""
        ref = f" [{self.reference}]" if self.reference else ""
        return (f"{self.severity.label:5s} {self.rule_id:28s} "
                f"{self.source}{where}: {self.message}{ref}")

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready dict (deterministic key set)."""
        out: Dict[str, object] = {
            "rule": self.rule_id,
            "severity": self.severity.label,
            "message": self.message,
            "kind": self.kind,
            "source": self.source,
            "reference": self.reference,
        }
        if self.span is not None:
            out["byteOffset"] = self.span.offset
            out["byteLength"] = self.span.length
        return out


@dataclass
class LintReport:
    """All findings from one lint run, with aggregation helpers."""

    findings: List[Finding] = field(default_factory=list)
    #: Number of artifacts examined (clean artifacts contribute 0 findings).
    artifacts: int = 0
    #: The reference time every time-sensitive rule judged against.
    reference_time: int = 0

    def extend(self, findings: Iterable[Finding]) -> None:
        """Append findings."""
        self.findings.extend(findings)

    def sort(self) -> "LintReport":
        """Sort findings deterministically (source, offset, rule id)."""
        self.findings.sort(key=lambda f: (
            f.source, f.span.offset if f.span else -1, f.rule_id, f.message
        ))
        return self

    def at_least(self, severity: Severity) -> List[Finding]:
        """Findings at or above *severity*."""
        return [f for f in self.findings if f.severity >= severity]

    @property
    def errors(self) -> List[Finding]:
        """ERROR findings only."""
        return self.at_least(Severity.ERROR)

    @property
    def clean(self) -> bool:
        """True when no ERROR finding was raised."""
        return not self.errors

    def by_rule(self) -> Dict[str, int]:
        """Finding counts per rule id (sorted by id)."""
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return dict(sorted(counts.items()))

    def by_severity(self) -> Dict[str, int]:
        """Finding counts per severity label."""
        counts = {s.label: 0 for s in (Severity.ERROR, Severity.WARN, Severity.INFO)}
        for finding in self.findings:
            counts[finding.severity.label] += 1
        return counts

    def render(self) -> str:
        """Multi-line human rendering."""
        lines = [finding.render() for finding in self.findings]
        counts = self.by_severity()
        lines.append(
            f"{self.artifacts} artifact(s): {counts['error']} error(s), "
            f"{counts['warn']} warning(s), {counts['info']} info"
        )
        return "\n".join(lines)
