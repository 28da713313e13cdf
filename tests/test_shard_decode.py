"""The shard cache's row codec against its reference behaviour.

:meth:`ArtifactCache._parse` decodes each payload line with one reused
``raw_decode`` and falls back to ``json.loads`` only when the value
does not end the line.  ``reference_parse`` below is the plain
per-line ``json.loads`` decoder it replaced; on every entry here the
two must accept or reject alike, and return equal rows when they
accept.  Each entry carries a recomputed header digest and row count,
so only the row decode rule decides.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import replace

import pytest

from repro.ocsp import CertStatus
from repro.runtime.cache import (SCHEMA_VERSION, ArtifactCache,
                                 _payload_digest, shard_key)
from repro.scanner.io import record_from_dict, record_to_dict
from repro.scanner.results import ProbeOutcome, ProbeRecord


def reference_parse(raw):
    """The per-line decoder ``_parse`` must agree with."""
    lines = raw.split("\n")
    try:
        header = json.loads(lines[0])
    except ValueError:
        return None
    if not isinstance(header, dict):
        return None
    if header.get("format") != "repro-shard":
        return None
    if header.get("version") != SCHEMA_VERSION:
        return None
    body = [line for line in lines[1:] if line.strip()]
    if header.get("rows") != len(body):
        return None
    if header.get("digest") != _payload_digest(body):
        return None
    try:
        rows = [json.loads(line) for line in body]
    except ValueError:
        return None
    return rows


def entry(body_text, newline="\n"):
    """A digest-valid entry whose payload is *body_text* verbatim."""
    body = [line for line in body_text.split("\n") if line.strip()]
    header = {"format": "repro-shard", "version": SCHEMA_VERSION,
              "key": "k", "worker": "m:f", "rows": len(body),
              "digest": _payload_digest(body)}
    return json.dumps(header) + newline + body_text


def same_verdict(raw):
    """Assert ``_parse`` agrees with the reference; return its rows."""
    expected = reference_parse(raw)
    actual = ArtifactCache._parse(raw)
    # repr, so that NaN rows compare equal to themselves.
    assert repr(actual) == repr(expected)
    return actual


ACCEPTED = {
    "plain": '{"a": 1}\n{"b": [1, 2.5, null, true]}\n',
    "whitespace-padded": '  {"a": 1}\n{"b": 2}\t \n \t{"c": 3}  \n',
    "blank lines between": '{"a": 1}\n\n   \n{"b": 2}\n',
    "non-object rows": '1\n[]\n"x"\n',
    "nan tokens": 'NaN\n{"a": NaN, "b": Infinity}\n-Infinity\n',
    "crlf": '{"a": 1}\r\n{"b": 2}\r\n',
    "escapes": '{"s": "\\u00e9\\n\\"q\\""}\n',
    "no final newline": '{"a": 1}\n{"b": 2}',
}

REJECTED = {
    "row split across two lines": '{"a":1\n"b":2}, {"c":3}\n',
    "two rows on one line": '{"a": 1} {"b": 2}\n',
    "two rows, comma-joined": '{"a": 1}, {"b": 2}\n',
    "truncated last line": '{"a": 1}\n{"b": 2',
    "garbage": 'garbage\n',
    "trailing data": '{"a": 1}x\n',
    "byte order mark": '\ufeff{"a": 1}\n',
    "bare comma": ',\n',
}


@pytest.mark.parametrize("name", sorted(ACCEPTED))
def test_accepts_as_the_reference_does(name):
    assert same_verdict(entry(ACCEPTED[name])) is not None


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_rejects_as_the_reference_does(name):
    assert same_verdict(entry(REJECTED[name])) is None


def test_crlf_header_and_rows():
    raw = entry('{"a": 1}\r\n{"b": 2}\r\n', newline="\r\n")
    assert same_verdict(raw) == [{"a": 1}, {"b": 2}]


def test_seeded_mutations_agree():
    """Single-character edits of a valid entry, digest recomputed."""
    rows = [{"a": 1, "b": [1.5, None, "x y"]}, {"c": {"d": True}}, [2, 3],
            "s", 4]
    base = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    alphabet = ' \t\r\n{}[]",:0123456789.eE+-abNIfinity\\u'
    rng = random.Random(20)
    accepted = rejected = 0
    for _ in range(2000):
        text = list(base)
        for _edit in range(rng.randint(1, 3)):
            at = rng.randrange(len(text) + 1)
            op = rng.randrange(3)
            if op == 0 and at < len(text):
                del text[at]
            elif op == 1 and at < len(text):
                text[at] = rng.choice(alphabet)
            else:
                text.insert(at, rng.choice(alphabet))
        if same_verdict(entry("".join(text))) is None:
            rejected += 1
        else:
            accepted += 1
    # Both verdicts are exercised, not just one.
    assert accepted > 100 and rejected > 100


def test_store_writes_the_reference_bytes(tmp_path):
    cache = ArtifactCache(root=str(tmp_path / "c"))
    rows = [{"z": 1, "a": {"y": 2.5, "b": None}}, {"s": "café ☃"},
            {"n": float("nan"), "i": float("inf"), "l": [3, {"k": -0.0}]},
            {}]
    key = shard_key("m:f", {"x": 1})
    cache.store(key, "m:f", rows)
    lines = [json.dumps(row, sort_keys=True) for row in rows]
    header = {"format": "repro-shard", "version": SCHEMA_VERSION,
              "key": key, "worker": "m:f", "rows": len(rows),
              "digest": _payload_digest(lines)}
    expected = "".join(line + "\n" for line in [json.dumps(header)] + lines)
    with open(cache._path(key), "rb") as stream:
        assert stream.read() == expected.encode("ascii")


def test_stats_counts_bytes_from_the_files(tmp_path):
    cache = ArtifactCache(root=str(tmp_path / "c"))
    for i in range(3):
        cache.store(shard_key("m:f", {"i": i}), "m:f",
                    [{"i": i, "s": "é"}] * (i + 1))
    total = 0
    for _key, path in cache.entries():
        with open(path, "rb") as stream:
            total += len(stream.read())
    stats = cache.stats()
    assert (stats.entries, stats.rows, stats.bytes) == (3, 6, total)
    assert stats.bytes == sum(os.path.getsize(path)
                              for _key, path in cache.entries())


@pytest.mark.parametrize("header", ["[]", "7", "garbage", '{"rows": "x"}'])
def test_stats_counts_a_malformed_header_without_rows(tmp_path, header):
    cache = ArtifactCache(root=str(tmp_path / "c"))
    cache.store(shard_key("m:f", {"i": 0}), "m:f", [{"i": 0}])
    bad = os.path.join(cache.root, "ab", "ab" + "0" * 30 + ".jsonl")
    os.makedirs(os.path.dirname(bad))
    with open(bad, "w") as stream:
        stream.write(header + "\n")
    stats = cache.stats()
    assert (stats.entries, stats.rows) == (2, 1)
    assert stats.bytes == sum(os.path.getsize(path)
                              for _key, path in cache.entries())


@pytest.mark.parametrize("check", ["load", "verify"])
def test_deeply_nested_header_is_quarantined(tmp_path, check):
    """A header nested past the JSON parser's stack is corruption, not
    a crash: *check* quarantines the entry and ``stats`` renders before
    and after."""
    cache = ArtifactCache(root=str(tmp_path / "c"))
    key = shard_key("m:f", {"i": 0})
    path = cache._path(key)
    os.makedirs(os.path.dirname(path))
    with open(path, "w") as stream:
        stream.write("[" * 100_000 + "]" * 100_000 + '\n{"i": 0}\n')
    stats = cache.stats()
    assert (stats.entries, stats.rows) == (1, 0)
    if check == "load":
        assert cache.load(key) is None
    else:
        assert cache.verify().corrupt == [key]
    assert not os.path.exists(path)
    stats = cache.stats()
    assert (stats.entries, stats.corrupt_entries) == (0, 1)


class TestRecordCodec:
    def record(self, **overrides):
        fields = dict(vantage="Virginia", responder_url="http://ocsp.a/",
                      family="rsa", serial_number=7, timestamp=1524614400,
                      outcome=ProbeOutcome.OK, elapsed_ms=12.3456,
                      http_status=200, cert_status=CertStatus.GOOD,
                      this_update=1, next_update=2, produced_at=1,
                      num_certificates=1, num_serials=1, response_size=471)
        fields.update(overrides)
        return ProbeRecord(**fields)

    def test_round_trip(self):
        for record in (
                self.record(),
                self.record(outcome=ProbeOutcome.TCP_FAILURE,
                            http_status=None, cert_status=None,
                            this_update=None, next_update=None,
                            produced_at=None, num_certificates=None,
                            num_serials=None, response_size=None),
                self.record(outcome=ProbeOutcome.MALFORMED,
                            cert_status=CertStatus.REVOKED,
                            parse_error_class="DecodeError",
                            parse_error_detail="short", parse_error_offset=9)):
            back = record_from_dict(json.loads(json.dumps(
                record_to_dict(record))))
            assert back == replace(record,
                                   elapsed_ms=round(record.elapsed_ms, 3))

    def test_missing_optional_keys_default(self):
        back = record_from_dict({"vantage": "v", "url": "u", "family": "f",
                                 "serial": 1, "ts": 2, "outcome": "OK"})
        assert back.elapsed_ms == 0.0
        assert back.cert_status is None and back.response_size is None

    def test_unknown_outcome_raises_key_error(self):
        data = record_to_dict(self.record())
        with pytest.raises(KeyError):
            record_from_dict({**data, "outcome": "usable response"})
        with pytest.raises(TypeError):
            record_from_dict({**data, "outcome": ["OK"]})

    def test_cert_status_table_covers_every_member(self):
        data = record_to_dict(self.record())
        for status in CertStatus:
            back = record_from_dict({**data, "cert_status": status.value})
            assert back.cert_status is status
        for empty in (None, ""):
            assert record_from_dict(
                {**data, "cert_status": empty}).cert_status is None
        # The outcome is checked first, as the positional order has it.
        with pytest.raises(KeyError):
            record_from_dict({**data, "outcome": "usable response",
                              "cert_status": "bogus"})

    @pytest.mark.parametrize("status", ["bogus", "GOOD", ["good"], 1])
    def test_unknown_cert_status_raises_value_error(self, status):
        data = record_to_dict(self.record())
        with pytest.raises(ValueError):
            record_from_dict({**data, "cert_status": status})

    def test_missing_required_key_raises_key_error(self):
        data = record_to_dict(self.record())
        del data["ts"]
        with pytest.raises(KeyError):
            record_from_dict(data)
