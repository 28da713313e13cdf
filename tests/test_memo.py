"""The bounded memo type (:mod:`repro.memo`) and its counters.

Unit tests pin the type's contract: oldest-first eviction that a hit
does not refresh, a cap held under a stream of distinct keys, exact
``hits``/``misses``/``evictions`` counts, and a build that raises
leaving nothing behind.  The campaign test reads the counters on a
cold Figure 3 run: every certificate reuse there must be a hit, which
is what DESIGN.md section 5.1 claims for a reuse distance of 189
under a cap of 1,024.
"""

from __future__ import annotations

import importlib

import pytest

from repro.memo import BoundedMemo


def _square(key: int) -> int:
    return key * key


class TestBoundedMemo:
    def test_hit_returns_the_stored_value(self):
        memo = BoundedMemo(4)
        first = memo.lookup("k", lambda key: [key])
        assert memo.lookup("k", lambda key: pytest.fail("rebuilt")) is first
        assert "k" in memo and "other" not in memo
        assert list(memo.values()) == [["k"]]

    def test_evicts_oldest_first_and_hits_do_not_refresh(self):
        memo = BoundedMemo(3)
        for key in (1, 2, 3):
            memo.lookup(key, _square)
        memo.lookup(1, _square)          # a hit: 1 stays the oldest
        memo.lookup(4, _square)
        assert [key in memo for key in (1, 2, 3, 4)] == \
            [False, True, True, True]
        memo.lookup(5, _square)
        assert list(memo.values()) == [9, 16, 25]

    def test_cap_holds_under_a_distinct_stream(self):
        memo = BoundedMemo(8)
        for key in range(100):
            assert memo.lookup(key, _square) == key * key
            assert len(memo) == min(key + 1, 8)
        assert list(memo.values()) == [key * key for key in range(92, 100)]

    def test_counters(self):
        memo = BoundedMemo(2)
        for key in (1, 1, 2, 1, 3, 3, 1):
            memo.lookup(key, _square)
        # Misses 1, 2, 3 (evicts 1), 1 (evicts 2); hits 1, 1, 3.
        assert (memo.hits, memo.misses, memo.evictions) == (3, 4, 2)
        assert len(memo) == 2

    def test_failed_build_is_never_stored(self):
        memo = BoundedMemo(2)
        memo.lookup("kept", len)

        def broken(key):
            raise ValueError(f"cannot build {key}")

        for _ in range(3):
            with pytest.raises(ValueError, match="cannot build bad"):
                memo.lookup("bad", broken)
        assert "bad" not in memo and len(memo) == 1
        assert (memo.hits, memo.misses, memo.evictions) == (0, 4, 0)
        assert memo.lookup("bad", len) == 3


class _CountingMemo(BoundedMemo):
    """A memo that also counts its lookups, independently of the type."""

    __slots__ = ("lookups",)

    def __init__(self, cap: int) -> None:
        super().__init__(cap)
        self.lookups = 0

    def lookup(self, key, build):
        self.lookups += 1
        return super().lookup(key, build)


def test_cold_fig3_keeps_every_certificate_reuse_a_hit(monkeypatch):
    from repro.runtime import run_experiment

    memos = {}
    for module_name, attribute in (
            ("repro.x509.certificate", "_CERTIFICATES"),
            ("repro.asn1.decoder", "_OIDS"),
            ("repro.runtime.runners", "_WORLD_MEMO")):
        module = importlib.import_module(module_name)
        memo = _CountingMemo(getattr(module, attribute).cap)
        monkeypatch.setattr(module, attribute, memo)
        memos[attribute] = memo

    run_experiment("fig3", workers=1, cache=False)

    certificates, oids = memos["_CERTIFICATES"], memos["_OIDS"]
    assert memos["_WORLD_MEMO"].misses == 1
    assert certificates.evictions == 0
    # Every distinct DER parsed once, and reused.
    assert certificates.misses == len(certificates) < certificates.lookups
    for memo in (certificates, oids):
        assert memo.hits + memo.misses == memo.lookups
        assert memo.hits > memo.misses > 0
