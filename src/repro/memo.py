"""The one bounded memo type behind every per-process memo.

DESIGN.md section 5.1 lists the instances, their keys and caps; the
one that no single module owns, :data:`DECODED_ENTRIES`, lives here.  The
effect analyzer records a call on a module-level ``BoundedMemo`` as an
allowed global mutation under one justification
(:data:`repro.analyze.effects.MEMO_GRANT`), so memo sites need no pragma.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generic, Hashable, Iterable, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

_ABSENT = object()


class BoundedMemo(Generic[K, V]):
    """At most *cap* values of a pure function of their key.

    The oldest insertion is evicted first, and ``hits``, ``misses`` and
    ``evictions`` are counted.  A hit returns the very value stored, so
    values must be immutable or mutated only by the memo's one owner.
    """

    __slots__ = ("cap", "_entries", "hits", "misses", "evictions")

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self._entries: Dict[K, V] = {}
        self.hits = self.misses = self.evictions = 0

    def lookup(self, key: K, build: Callable[[K], V]) -> V:
        """The value stored for *key*, else ``build(key)``, stored.

        A hit does not refresh the entry's age.  If *build* raises,
        nothing is stored and the next lookup builds again.
        """
        entries = self._entries
        value = entries.get(key, _ABSENT)
        if value is not _ABSENT:
            self.hits += 1
            return value
        self.misses += 1
        value = build(key)
        if len(entries) >= self.cap:
            del entries[next(iter(entries))]
            self.evictions += 1
        entries[key] = value
        return value

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def values(self) -> Iterable[V]:
        """The stored values, oldest first."""
        return self._entries.values()


#: Decoded artifact-cache entries, keyed by ``(decode, payload digest)``:
#: the digest of the row bytes :meth:`repro.runtime.cache.ArtifactCache.
#: load` just read and verified, never a shard key or a config.  Every
#: scan-family experiment decodes the same campaign entries; 8 holds one
#: campaign's ``target_chunks`` at any scale.
DECODED_ENTRIES: BoundedMemo[tuple, Any] = BoundedMemo(8)
