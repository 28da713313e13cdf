"""Deterministic building blocks shared by configs and the runtime.

Everything the experiment runner relies on for reproducibility lives
here:

* :func:`canonical` — collapse configs/dataclasses into a canonical,
  JSON-serializable structure with stable key ordering, so two equal
  configs always serialize identically regardless of dict insertion
  order or repr details;
* :func:`stable_digest` — the content address derived from that
  canonical form (cache keys, shard identities, provenance records);
* :func:`derived_rng` — a seeded RNG stream keyed by explicit string
  parts, so independent shards can draw from non-overlapping,
  position-independent streams;
* :func:`split_ranges` — contiguous, gap-free partitioning of an index
  space into shard ranges;
* :class:`FieldCodec` — the one ``to_dict``/``from_dict``/
  ``config_digest`` codec every run config derives from its fields.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import random
import typing
from typing import Any, Dict, List, Tuple


#: Exact types :func:`canonical` returns unchanged.
_PLAIN = (str, int, float, bool, type(None))


def canonical(obj: Any) -> Any:
    """Collapse *obj* into a canonical JSON-serializable structure.

    Dataclasses become ``{"__type__": name, **fields}``; mappings sort
    by key; sets sort by repr; tuples become lists; enums become their
    values.  Objects exposing ``to_dict()`` use it (tagged with their
    type name so two config classes with identical fields don't
    collide).
    """
    # Plain dicts and lists (rows, frame bodies) skip the checks below.
    kind = type(obj)
    if kind in _PLAIN:
        return obj
    if kind is dict:
        return {str(k): obj[k] if type(obj[k]) in _PLAIN
                else canonical(obj[k]) for k in sorted(obj, key=str)}
    if kind is list:
        return [v if type(v) in _PLAIN else canonical(v) for v in obj]
    if isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return canonical(obj.value)
    to_dict = getattr(obj, "to_dict", None)
    if callable(to_dict) and not isinstance(obj, type):
        data = to_dict()
        tagged = {"__type__": type(obj).__name__}
        tagged.update({str(k): canonical(v) for k, v in data.items()})
        return {k: tagged[k] for k in sorted(tagged)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        tagged = {"__type__": type(obj).__name__}
        for field in dataclasses.fields(obj):
            tagged[field.name] = canonical(getattr(obj, field.name))
        return {k: tagged[k] for k in sorted(tagged)}
    if isinstance(obj, dict):
        return {str(k): canonical(obj[k]) for k in sorted(obj, key=str)}
    if isinstance(obj, (set, frozenset)):
        return sorted(canonical(v) for v in obj)
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, bytes):
        return obj.hex()
    raise TypeError(f"cannot canonicalize {type(obj).__name__}: {obj!r}")


def canonical_json(obj: Any) -> str:
    """The canonical JSON text of *obj* (sorted keys, no whitespace)."""
    return json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))


def stable_digest(obj: Any, length: int = 16) -> str:
    """A stable hex content address for *obj* (first *length* hex chars)."""
    return text_digest(canonical_json(obj), length)


def text_digest(text: str, length: int = 16) -> str:
    """:func:`stable_digest` of the value whose canonical JSON is *text*."""
    return hashlib.sha256(text.encode()).hexdigest()[:length]


def derived_rng(*parts: object) -> random.Random:
    """A seeded RNG keyed by the given parts.

    String seeding uses Python's hash-randomization-free path, so the
    stream is identical across processes and platforms — the property
    shard workers rely on.
    """
    return random.Random("|".join(str(part) for part in parts))


def stable_seed(*parts: object) -> int:
    """A process-independent integer seed keyed by the given parts.

    The replacement for ``hash(name) & mask`` idioms: builtin
    ``hash()`` on strings varies with hash randomization, which
    silently forks RNG streams (and thus generated key material)
    across processes.
    """
    text = "|".join(str(part) for part in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def split_ranges(total: int, parts: int) -> List[Tuple[int, int]]:
    """Partition ``range(total)`` into *parts* contiguous [lo, hi) ranges.

    Ranges cover the space exactly with sizes differing by at most one;
    empty ranges are dropped (so ``parts > total`` yields ``total``
    singleton ranges).
    """
    parts = max(1, parts)
    base, extra = divmod(total, parts)
    ranges: List[Tuple[int, int]] = []
    lo = 0
    for index in range(parts):
        hi = lo + base + (1 if index < extra else 0)
        if hi > lo:
            ranges.append((lo, hi))
        lo = hi
    return ranges


class FieldCodec:
    """Field-driven ``to_dict``/``from_dict``/``config_digest`` for a
    config dataclass.

    The dataclass fields are the only field list, so no field can drop
    out of a digest or cache key.  The rules:

    * a nested config (a :class:`FieldCodec`) encodes recursively;
    * a tuple encodes as a list, except that an empty tuple in a field
      whose default is ``None`` encodes as ``None`` (``vantages=()``
      and ``vantages=None`` both mean "all six" and share a digest);
    * a dict encodes key-sorted;
    * :meth:`from_dict` rebuilds nested configs and tuples from the
      type hints; a missing key takes the field default and an unknown
      key raises ``TypeError``.
    """

    def to_dict(self) -> Dict[str, Any]:
        """Stable field mapping (cache keys, shard payloads)."""
        data: Dict[str, Any] = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, FieldCodec):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = (None if not value and field.default is None
                         else list(value))
            elif isinstance(value, dict):
                value = {key: value[key] for key in sorted(value)}
            data[field.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]):
        """Rebuild from :meth:`to_dict` output."""
        hints = typing.get_type_hints(cls)
        return cls(**{name: _decode(hints.get(name), value)
                      for name, value in data.items()})

    def config_digest(self) -> str:
        """Content address of this config."""
        return stable_digest(self)


def _decode(hint: Any, value: Any) -> Any:
    """Rebuild one :meth:`FieldCodec.to_dict` value of type *hint*."""
    if value is None:
        return None
    if typing.get_origin(hint) is typing.Union:      # Optional[X]
        hint = next(arg for arg in typing.get_args(hint)
                    if arg is not type(None))
    if isinstance(hint, type) and issubclass(hint, FieldCodec):
        return hint.from_dict(value)
    origin = typing.get_origin(hint)
    if origin is tuple:
        return tuple(value)
    if origin is dict:
        return dict(value)
    return value
