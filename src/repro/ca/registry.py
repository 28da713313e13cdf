"""Revocation bookkeeping for a CA.

A CA keeps *two* revocation databases — one feeding its CRLs and one
feeding its OCSP responder.  They are updated together by default, but
the coupling is configurable because the paper found exactly this
split in the wild: "Quovadis and Camerfirma responded that they
maintain two different databases for revocation status of CRL and OCSP
server, which might cause inconsistent revocation status" (Table 1),
and ocsp.msocsp.com's OCSP revocation times lagged its CRL "by between
7 hours and 9 days" (Figure 10).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional


@dataclass(frozen=True)
class RevocationRecord:
    """One revocation: when and (optionally) why.

    ``revoked_at`` is the *reported* revocation time (what CRL entries
    and OCSP RevokedInfo carry); ``visible_from`` is when the record
    entered the database and became answerable.  They differ exactly
    for the paper's discrepancy cases — msocsp reported times 7h-9d
    later than the CRL's, without the certificates ever reading as
    unrevoked.
    """

    serial_number: int
    revoked_at: int
    reason: Optional[int] = None
    visible_from: Optional[int] = None

    @property
    def effective_visible_from(self) -> int:
        """When this record starts answering (defaults to revoked_at)."""
        return self.revoked_at if self.visible_from is None else self.visible_from


class RevocationDatabase:
    """A map from serial number to revocation record."""

    def __init__(self) -> None:
        self._records: Dict[int, RevocationRecord] = {}

    def add(self, record: RevocationRecord) -> None:
        """Insert or overwrite a record."""
        self._records[record.serial_number] = record

    def remove(self, serial_number: int) -> None:
        """Drop a record (e.g. expired certificates pruned from CRLs)."""
        self._records.pop(serial_number, None)

    def lookup(self, serial_number: int) -> Optional[RevocationRecord]:
        """The record for a serial, or None."""
        return self._records.get(serial_number)

    def __contains__(self, serial_number: int) -> bool:
        return serial_number in self._records

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> List[RevocationRecord]:
        """All records, ordered by serial for determinism."""
        return [self._records[serial] for serial in sorted(self._records)]


@dataclass
class RevocationPolicy:
    """How a revocation propagates to the two databases.

    * ``ocsp_delay`` — seconds between the CRL learning of a revocation
      and the OCSP database recording it (0 = simultaneous, the 99.85%
      case the paper measured).  Negative values model OCSP-first.
    * ``ocsp_drops_entry`` — the OCSP database silently rejects the
      entry (the Quovadis max-character-size failure), so the responder
      will keep answering Good/Unknown for a revoked certificate.
    * ``ocsp_drops_reason`` — the OCSP side stores no reason code; the
      paper found 15% of reason codes differ and "the vast majority
      (99.99%) is due to cases where the CRL contains a reason code but
      the OCSP server does not".
    * ``ocsp_time_offset`` — constant difference applied to the OCSP
      revocation time (msocsp-style lateness when positive).
    """

    ocsp_delay: int = 0
    ocsp_drops_entry: bool = False
    ocsp_drops_reason: bool = True
    ocsp_time_offset: int = 0


class RevocationRegistry:
    """The CA-facing API tying both databases together."""

    def __init__(self, policy: Optional[RevocationPolicy] = None) -> None:
        self.policy = policy or RevocationPolicy()
        self.crl_db = RevocationDatabase()
        self.ocsp_db = RevocationDatabase()
        # Deliveries pending the ocsp_delay, as (visible_at, record).
        self._pending: List[tuple] = []
        #: Bumped on every change to what the OCSP side will answer (a
        #: record added, queued, or delivered), so a responder may
        #: memoize its view of the database per (now, revision).
        self.revision = 0

    def revoke(self, serial_number: int, revoked_at: int,
               reason: Optional[int] = None, *,
               ocsp_visible: Optional[bool] = None,
               ocsp_time_offset: Optional[int] = None,
               keep_reason: Optional[bool] = None) -> RevocationRecord:
        """Record a revocation, propagating per the policy.

        The keyword overrides replace the policy defaults for this one
        revocation — the Table-1 discrepancies affect only *some* of a
        CA's certificates (e.g. Quovadis dropped just the certificates
        whose SAN lists overflowed its OCSP database schema).
        """
        record = RevocationRecord(serial_number, revoked_at, reason)
        self.crl_db.add(record)
        drops = self.policy.ocsp_drops_entry if ocsp_visible is None else not ocsp_visible
        if drops:
            return record
        offset = self.policy.ocsp_time_offset if ocsp_time_offset is None else ocsp_time_offset
        drop_reason = self.policy.ocsp_drops_reason if keep_reason is None else not keep_reason
        ocsp_record = RevocationRecord(
            serial_number=serial_number,
            revoked_at=revoked_at + offset,
            reason=None if drop_reason else reason,
            # The record answers from the true revocation moment even
            # when the *reported* time is skewed.
            visible_from=revoked_at,
        )
        if self.policy.ocsp_delay > 0:
            self._pending.append((revoked_at + self.policy.ocsp_delay, ocsp_record))
        else:
            self.ocsp_db.add(ocsp_record)
        self.revision += 1
        return record

    def settle(self, now: int) -> None:
        """Apply pending OCSP-database deliveries whose time has come."""
        still_pending = []
        for visible_at, record in self._pending:
            if visible_at <= now:
                self.ocsp_db.add(record)
                self.revision += 1
            else:
                still_pending.append((visible_at, record))
        self._pending = still_pending

    def crl_entries(self, now: Optional[int] = None) -> Iterable[RevocationRecord]:
        """Records as the CRL would list them.

        With *now*, only revocations that have already happened are
        listed — a CRL published today cannot contain tomorrow's
        revocation.
        """
        records = self.crl_db.records()
        if now is None:
            return records
        return [record for record in records if record.revoked_at <= now]

    def ocsp_lookup(self, serial_number: int, now: int) -> Optional[RevocationRecord]:
        """What the OCSP responder believes at *now*.

        Revocations are invisible before their ``revoked_at`` time, so
        scans that replay history see statuses flip at the right
        moment.
        """
        self.settle(now)
        record = self.ocsp_db.lookup(serial_number)
        if record is not None and record.effective_visible_from > now:
            return None
        return record

    def visible_ocsp_count(self, now: int) -> int:
        """Number of OCSP-visible revocations at *now* (cache-key aid)."""
        self.settle(now)
        times = sorted(r.effective_visible_from for r in self.ocsp_db.records())
        return bisect.bisect_right(times, now)

    def crl_is_revoked(self, serial_number: int) -> bool:
        """True when the CRL database lists the serial."""
        return serial_number in self.crl_db
