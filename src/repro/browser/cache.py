"""Client-side OCSP response caching.

The paper's Section 5.4 flags the hazard this module makes
measurable: "if the certificate were compromised, there could be some
clients who cache the previous response and would not obtain a fresh
revocation status for up to 1,251 days!" — and blank-nextUpdate
responses are "technically always regarded as valid, which could
potentially raise security vulnerabilities with cached responses".

:class:`ClientOCSPCache` caches verified responses keyed by CertID and
honours nextUpdate, with a configurable ceiling (``max_age``) standing
in for sane client policy, and an opt-in ``cache_blank`` mode
reproducing the risky behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..ocsp import CertID, CertStatus, OCSPCheckResult


@dataclass
class CachedResult:
    """A cached verification outcome."""

    cert_status: CertStatus
    this_update: int
    next_update: Optional[int]
    stored_at: int


class ClientOCSPCache:
    """An in-client OCSP result cache.

    * ``max_age`` bounds how long any entry lives regardless of
      nextUpdate (None = trust nextUpdate completely — the hazard).
    * ``cache_blank`` controls whether blank-nextUpdate responses are
      cached at all; when cached they only expire through ``max_age``.
    """

    def __init__(self, max_age: Optional[int] = 7 * 86400,
                 cache_blank: bool = False) -> None:
        self.max_age = max_age
        self.cache_blank = cache_blank
        self._entries: Dict[Tuple[bytes, bytes, int], CachedResult] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(cert_id: CertID) -> Tuple[bytes, bytes, int]:
        return (cert_id.issuer_name_hash, cert_id.issuer_key_hash,
                cert_id.serial_number)

    def store(self, cert_id: CertID, check: OCSPCheckResult, now: int) -> bool:
        """Cache a *verified* result; returns True when stored."""
        if not check.ok or check.single is None or check.cert_status is None:
            return False
        if check.single.next_update is None and not self.cache_blank:
            return False
        self._entries[self._key(cert_id)] = CachedResult(
            cert_status=check.cert_status,
            this_update=check.single.this_update,
            next_update=check.single.next_update,
            stored_at=now,
        )
        return True

    def lookup(self, cert_id: CertID, now: int) -> Optional[CachedResult]:
        """Return a still-fresh cached result, or None."""
        entry = self._entries.get(self._key(cert_id))
        if entry is None:
            self.misses += 1
            return None
        if entry.next_update is not None and now > entry.next_update:
            del self._entries[self._key(cert_id)]
            self.misses += 1
            return None
        if self.max_age is not None and now - entry.stored_at > self.max_age:
            del self._entries[self._key(cert_id)]
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def staleness_window(validity_period: Optional[int],
                     max_age: Optional[int]) -> Optional[int]:
    """Worst-case seconds a client may trust a pre-revocation status.

    None means unbounded — the blank-nextUpdate + no-max-age case the
    paper warns about.
    """
    if validity_period is None:
        return max_age
    if max_age is None:
        return validity_period
    return min(validity_period, max_age)
