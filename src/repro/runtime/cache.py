"""Content-addressed artifact cache for shard outputs.

Each shard's output (a list of JSON-able row dicts) is stored under a
key derived from the shard's *content*: the worker entrypoint, the
full shard payload (which embeds the experiment's config), and the
code version.  Any change to the experiment id's config, the worker,
or the code yields a different key — invalidation is automatic and
there is nothing to expire.

Files are JSON-lines in the same spirit as :mod:`repro.scanner.io`'s
scan files: a header object first, then one row per line.  Writes are
atomic (temp file + rename) so concurrent workers can share a cache
directory.

Integrity: the header carries the row count *and* a SHA-256 digest of
the payload lines, both checked on every load.  A truncated, tampered,
or otherwise malformed entry is never silently served as fewer rows —
it is moved into a ``corrupt/`` quarantine directory (preserving the
evidence for post-mortems) and reported as a miss, so the shard simply
recomputes.  ``repro cache stats|verify|gc`` exposes the same
machinery from the command line.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .. import __version__
from ..canon import stable_digest

#: Bump the schema component when the shard row format changes — old
#: cache entries become unreachable rather than misread.  v2 added the
#: payload digest to the header.
SCHEMA_VERSION = 2
CODE_VERSION = f"{__version__}+shard{SCHEMA_VERSION}"

_HEADER_FORMAT = "repro-shard"

#: Quarantine subdirectory for entries that failed integrity checks.
CORRUPT_DIR = "corrupt"


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro-experiments``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache",
                        "repro-experiments")


def shard_key(worker: str, payload: Dict[str, Any]) -> str:
    """The content address of one shard's output."""
    return stable_digest({
        "worker": worker,
        "payload": payload,
        "code": CODE_VERSION,
    }, length=32)


def write_atomic(path: str, text: str) -> None:
    """Publish *text* at *path* via temp file + rename, so readers
    only ever see whole files."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as stream:
            stream.write(text)
        os.replace(tmp, path)
    except BaseException:  # repro: allow-broad-except -- tmp-file cleanup must run even on KeyboardInterrupt; the exception is re-raised
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


#: One decoder and one encoder for every row line.  ``_decode_row`` is
#: ``raw_decode``: it stops at the end of the first JSON value, so
#: :meth:`ArtifactCache._parse` accepts its result only when that value
#: ends the line.  ``_encode_row`` writes exactly the bytes of
#: ``json.dumps(row, sort_keys=True)``.
_decode_row = json.JSONDecoder().raw_decode
_encode_row = json.JSONEncoder(sort_keys=True).encode


def _payload_digest(lines: List[str]) -> str:
    """The integrity digest over an entry's serialized row lines."""
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:32]


@dataclass
class CacheStats:
    """What ``repro cache stats`` reports."""

    root: str
    entries: int = 0
    bytes: int = 0
    rows: int = 0
    corrupt_entries: int = 0
    corrupt_bytes: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """Stable field mapping."""
        return {
            "root": self.root,
            "entries": self.entries,
            "bytes": self.bytes,
            "rows": self.rows,
            "corrupt_entries": self.corrupt_entries,
            "corrupt_bytes": self.corrupt_bytes,
        }


@dataclass
class VerifyReport:
    """What ``repro cache verify`` reports."""

    checked: int = 0
    ok: int = 0
    #: Keys whose entries failed an integrity check (now quarantined).
    corrupt: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.corrupt

    def to_dict(self) -> Dict[str, Any]:
        """Stable field mapping."""
        return {"checked": self.checked, "ok": self.ok,
                "corrupt": list(self.corrupt)}


class ArtifactCache:
    """Store and retrieve shard outputs by content address."""

    def __init__(self, root: Optional[str] = None, enabled: bool = True) -> None:
        self.root = root or default_cache_dir()
        self.enabled = enabled

    def _path(self, key: str) -> str:
        # Two-level fanout keeps directory listings sane at scale.
        return os.path.join(self.root, key[:2], f"{key}.jsonl")

    def _corrupt_dir(self) -> str:
        return os.path.join(self.root, CORRUPT_DIR)

    def _quarantine(self, path: str) -> None:
        """Move a bad entry into ``corrupt/`` instead of deleting it —
        the bytes are evidence, and leaving them in place would make
        every future load re-fail the same checks."""
        corrupt_dir = self._corrupt_dir()
        try:
            os.makedirs(corrupt_dir, exist_ok=True)
            os.replace(path, os.path.join(corrupt_dir,
                                          os.path.basename(path)))
        except OSError:
            # Quarantine is best-effort: a concurrent recompute may
            # have already overwritten (or another process moved) it.
            pass

    @staticmethod
    def _parse(raw: str) -> Optional[List[Dict[str, Any]]]:
        """Parse and integrity-check one entry; None means corrupt.

        A well-formed entry has a valid header whose ``rows`` count
        matches the number of payload lines and whose ``digest``
        matches their bytes.  Anything else — truncation at a line
        boundary or nesting too deep to parse included — is
        corruption, never a short read.
        """
        lines = raw.split("\n")
        try:
            header = json.loads(lines[0])
        except (ValueError, RecursionError):
            return None
        if not isinstance(header, dict):
            return None
        if header.get("format") != _HEADER_FORMAT:
            return None
        if header.get("version") != SCHEMA_VERSION:
            return None
        body = [line for line in lines[1:] if line.strip()]
        if header.get("rows") != len(body):
            return None
        if header.get("digest") != _payload_digest(body):
            return None
        rows = []
        append = rows.append
        try:
            for line in body:
                try:
                    row, end = _decode_row(line)
                except ValueError:
                    end = -1
                if end != len(line):
                    # Leading or trailing whitespace, trailing data, or
                    # no value at all: json.loads decides, as it always
                    # has (accept the padding, reject the rest).
                    row = json.loads(line)
                append(row)
        except (ValueError, RecursionError):
            return None
        return rows

    def load(self, key: str) -> Optional[List[Dict[str, Any]]]:
        """The cached rows for *key*, or None on a miss.

        A missing file is a plain miss.  A file that fails any
        integrity check is quarantined into ``corrupt/`` and reported
        as a miss — the shard recomputes and stores a fresh entry.
        """
        if not self.enabled:
            return None
        path = self._path(key)
        try:
            with open(path) as stream:
                raw = stream.read()
        except OSError:
            return None
        rows = self._parse(raw)
        if rows is None:
            self._quarantine(path)
            return None
        return rows

    def store(self, key: str, worker: str,
              rows: List[Dict[str, Any]]) -> None:
        """Persist *rows* under *key* (atomic; no-op when disabled, or
        when the entry exists: keys are content addresses, and a
        corrupt entry was already quarantined by :meth:`load`)."""
        if not self.enabled:
            return
        path = self._path(key)
        if os.path.exists(path):
            return
        os.makedirs(os.path.dirname(path), exist_ok=True)
        lines = [_encode_row(row) for row in rows]
        header = {"format": _HEADER_FORMAT, "version": SCHEMA_VERSION,
                  "key": key, "worker": worker, "rows": len(rows),
                  "digest": _payload_digest(lines)}
        write_atomic(path, "".join(line + "\n" for line in
                                   [json.dumps(header)] + lines))

    # -- maintenance (the `repro cache` CLI sits on these) ------------

    def entries(self) -> Iterator[Tuple[str, str]]:
        """Yield ``(key, path)`` for every live entry, sorted by key."""
        try:
            fanout = sorted(os.listdir(self.root))
        except OSError:
            return
        for sub in fanout:
            if sub == CORRUPT_DIR:
                continue
            subdir = os.path.join(self.root, sub)
            if not os.path.isdir(subdir):
                continue
            for name in sorted(os.listdir(subdir)):
                if name.endswith(".jsonl"):
                    yield name[:-len(".jsonl")], os.path.join(subdir, name)

    def stats(self) -> CacheStats:
        """Entry/byte/row totals, live and quarantined."""
        report = CacheStats(root=self.root)
        for _key, path in self.entries():
            # Entries are ASCII (json.dumps escapes the rest), so the
            # file size is the byte count; only the header is read.
            try:
                size = os.path.getsize(path)
                with open(path) as stream:
                    first = stream.readline()
            except OSError:
                continue
            report.entries += 1
            report.bytes += size
            try:
                header = json.loads(first)
                report.rows += int(header.get("rows", 0))
            except (ValueError, TypeError, AttributeError, RecursionError):
                pass  # a malformed header counts no rows; verify flags it
        corrupt_dir = self._corrupt_dir()
        if os.path.isdir(corrupt_dir):
            for name in os.listdir(corrupt_dir):
                path = os.path.join(corrupt_dir, name)
                try:
                    report.corrupt_bytes += os.path.getsize(path)
                    report.corrupt_entries += 1
                except OSError:
                    pass
        return report

    def verify(self) -> VerifyReport:
        """Integrity-check every live entry; quarantine failures."""
        report = VerifyReport()
        for key, path in self.entries():
            report.checked += 1
            try:
                with open(path) as stream:
                    raw = stream.read()
            except OSError:
                report.corrupt.append(key)
                continue
            if self._parse(raw) is None:
                self._quarantine(path)
                report.corrupt.append(key)
            else:
                report.ok += 1
        return report

    def gc(self, everything: bool = False,
           max_age_s: Optional[float] = None,
           dry_run: bool = False,
           now: Optional[float] = None) -> Tuple[int, int]:
        """Collect the ``corrupt/`` quarantine (and, with *everything*,
        all live entries too); returns ``(files removed, bytes freed)``.

        By default every quarantined entry goes; with *max_age_s* only
        quarantined entries older than that many seconds (by mtime,
        against *now*) are removed, so fresh evidence survives routine
        collections while the quarantine can no longer grow without
        bound.  *now* must accompany *max_age_s* — this module never
        reads the wall clock itself (pass
        :func:`repro.runtime.dist.now_s`, as the CLI does).  With
        *dry_run* nothing is deleted; the returned totals are what a
        real collection would have removed.
        """
        if max_age_s is not None and now is None:
            raise ValueError("gc(max_age_s=...) needs an explicit 'now' "
                             "(this module never reads the wall clock)")
        removed = 0
        freed = 0

        def _unlink(path: str) -> None:
            nonlocal removed, freed
            try:
                size = os.path.getsize(path)
                if not dry_run:
                    os.unlink(path)
                freed += size
                removed += 1
            except OSError:
                pass

        corrupt_dir = self._corrupt_dir()
        if os.path.isdir(corrupt_dir):
            for name in sorted(os.listdir(corrupt_dir)):
                path = os.path.join(corrupt_dir, name)
                if max_age_s is not None:
                    try:
                        age = now - os.path.getmtime(path)
                    except OSError:
                        continue
                    if age < max_age_s:
                        continue
                _unlink(path)
        if everything:
            for _key, path in list(self.entries()):
                _unlink(path)
        return removed, freed
