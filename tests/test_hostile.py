"""Tests for repro.hostile: the TLV layer, the mutation engine, the
classification pipeline, the minimizer, the hostile-corpus experiment,
and the frozen bomb regression corpus.

The two acceptance properties of the subsystem:

* mutants are a pure function of ``(document, mutation_id, seed)`` —
  the corpus regenerates byte-identically on any machine;
* no mutant escapes the outcome taxonomy — parsers raise only typed
  :class:`~repro.asn1.errors.ASN1Error` subclasses, never
  ``RecursionError`` or ``MemoryError``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.asn1 import (
    ASN1Error,
    DecodeError,
    LimitExceededError,
    Reader,
    encoder,
    tags,
)
from repro.asn1.decoder import MAX_DEPTH, MAX_ELEMENTS
from repro.asn1.dump import dump_der
from repro.hostile import (
    FAMILIES,
    KINDS,
    OUTCOMES,
    classify_mutant,
    mutate,
    seed_world,
    tlv_fixed_point,
)
from repro.hostile.minimize import minimize
from repro.hostile.tlv import element_spans, encode_forest, flatten, parse_forest
from repro.lint import LintContext, LintEngine
from repro.ocsp import OCSPResponse
from repro.runtime import HostileCorpusConfig, run_experiment
from repro.x509 import Certificate, CertificateList

DATA_DIR = Path(__file__).parent / "data" / "hostile"

PARSERS = (Certificate.from_der, OCSPResponse.from_der,
           CertificateList.from_der)


@pytest.fixture(scope="module")
def world():
    return seed_world()


# ---------------------------------------------------------------------------
# TLV layer
# ---------------------------------------------------------------------------

class TestTLV:
    def test_round_trip_all_seed_documents(self, world):
        for kind in KINDS:
            der = world.documents[kind]
            assert encode_forest(parse_forest(der)) == der
            assert tlv_fixed_point(der)

    def test_flatten_counts_every_element(self, world):
        der = world.documents["certificate"]
        assert len(flatten(parse_forest(der))) == len(element_spans(der))

    def test_element_spans_sorted_by_offset(self, world):
        spans = element_spans(world.documents["ocsp"])
        offsets = [span[0] for span in spans]
        assert offsets == sorted(offsets)

    def test_parse_forest_depth_cap(self):
        body = encoder.encode_null()
        for _ in range(200):
            body = encoder.encode_tlv(tags.SEQUENCE, body)
        with pytest.raises(ASN1Error):
            parse_forest(body)

    def test_fixed_point_false_on_garbage(self):
        assert tlv_fixed_point(b"\x30\x05\x01") is False


# ---------------------------------------------------------------------------
# mutation engine
# ---------------------------------------------------------------------------

class TestMutate:
    def test_pure_function_of_inputs(self, world):
        doc = world.documents["certificate"]
        a = mutate(doc, 17, 2018, donors=world.donors)
        b = mutate(doc, 17, 2018, donors=world.donors)
        assert a.der == b.der
        assert a.family == b.family

    def test_seed_changes_output(self, world):
        doc = world.documents["certificate"]
        ders = {mutate(doc, 8, seed, donors=world.donors).der
                for seed in range(5)}
        assert len(ders) > 1

    def test_family_round_robin(self, world):
        doc = world.documents["crl"]
        for mutation_id in range(2 * len(FAMILIES)):
            mutant = mutate(doc, mutation_id, 1, donors=world.donors)
            assert mutant.family == FAMILIES[mutation_id % len(FAMILIES)]

    def test_every_family_differs_from_original(self, world):
        doc = world.documents["ocsp"]
        for mutation_id in range(len(FAMILIES)):
            mutant = mutate(doc, mutation_id, 3, donors=world.donors)
            assert mutant.der != doc, mutant.family


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

class TestClassify:
    def test_originals_survive(self, world):
        for kind in KINDS:
            row = classify_mutant(kind, world.documents[kind], world)
            assert row["outcome"] == "survived", (kind, row)
            assert row["fixed_point"] is True

    def test_truncated_is_parse_error_with_offset(self, world):
        der = world.documents["certificate"][:60]
        row = classify_mutant("certificate", der, world)
        assert row["outcome"] == "parse_error"
        assert row["error_class"] in ("TruncatedError", "DecodeError")
        assert row["error_offset"] is not None

    def test_no_mutant_escapes_taxonomy(self, world):
        for kind in KINDS:
            doc = world.documents[kind]
            for mutation_id in range(3 * len(FAMILIES)):
                mutant = mutate(doc, mutation_id, 2018, donors=world.donors)
                row = classify_mutant(kind, mutant.der, world)
                assert row["outcome"] in OUTCOMES
                assert row["outcome"] != "unexpected_exception", (kind, row)

    def test_lint_degrades_on_lazy_decode_failure(self, world):
        # Corrupt the first content byte of the AIA extnValue: the
        # strict parser stores extension values opaquely, so the
        # certificate still parses — the damage only surfaces when a
        # lint rule decodes the extension lazily.
        der = bytearray(world.documents["certificate"])
        marker = encoder.encode_oid("1.3.6.1.5.5.7.1.1")
        index = bytes(der).find(marker)
        assert index > 0 and der[index + len(marker)] == 0x04
        der[index + len(marker) + 2] ^= 0xFF
        der = bytes(der)
        Certificate.from_der(der)  # still parses
        engine = LintEngine(LintContext(reference_time=world.reference_time))
        findings = engine.lint_der(der, "certificate", "lazy")
        lazy = [f for f in findings if f.rule_id == "X509_PARSE"
                and "lazy decode failed" in f.message]
        assert lazy, [f.rule_id for f in findings]
        row = classify_mutant("certificate", der, world)
        assert row["outcome"] in ("parse_error", "lint_error")


# ---------------------------------------------------------------------------
# bounded decoder (satellite: depth/size guards)
# ---------------------------------------------------------------------------

class TestReaderLimits:
    def test_depth_cap_raises_limit_error(self):
        body = encoder.encode_null()
        for _ in range(MAX_DEPTH + 10):
            body = encoder.encode_tlv(tags.SEQUENCE, body)
        reader = Reader(body)
        with pytest.raises(LimitExceededError) as info:
            for _ in range(MAX_DEPTH + 10):
                reader = reader.read_sequence()
        assert info.value.offset is not None

    def test_length_octets_cap(self):
        bomb = bytes([tags.SEQUENCE, 0x89]) + bytes(9) + b"\x05\x00"
        with pytest.raises(LimitExceededError):
            Reader(bomb).read_sequence()

    def test_element_budget_shared_across_sub_readers(self):
        # MAX_ELEMENTS tiny NULLs inside one SEQUENCE: the budget is
        # charged across the parent and sub-reader alike.
        content = b"\x05\x00" * (MAX_ELEMENTS + 1)
        bomb = encoder.encode_tlv(tags.SEQUENCE, content)
        reader = Reader(bomb).read_sequence()
        with pytest.raises(LimitExceededError):
            while True:
                reader.read_null()


# ---------------------------------------------------------------------------
# frozen regression corpus
# ---------------------------------------------------------------------------

class TestRegressionCorpus:
    def test_corpus_files_exist(self):
        names = {path.name for path in DATA_DIR.glob("*.der")}
        assert {"depth_bomb.der", "length_bomb.der",
                "length_octets_bomb.der", "element_bomb.der"} <= names

    @pytest.mark.parametrize("name", ["depth_bomb.der", "length_bomb.der",
                                      "length_octets_bomb.der",
                                      "element_bomb.der"])
    def test_bombs_raise_decode_error_everywhere(self, name):
        der = (DATA_DIR / name).read_bytes()
        for parse in PARSERS:
            with pytest.raises(DecodeError):
                parse(der)
        with pytest.raises(DecodeError):
            parse_forest(der)

    def test_dump_der_survives_bombs(self):
        for path in sorted(DATA_DIR.glob("*_bomb.der")):
            text = dump_der(path.read_bytes(), max_lines=100)
            assert isinstance(text, str)


# ---------------------------------------------------------------------------
# minimizer
# ---------------------------------------------------------------------------

class TestMinimize:
    def test_shrinks_while_preserving_predicate(self):
        data = b"A" * 100 + b"NEEDLE" + b"B" * 100
        shrunk = minimize(data, lambda d: b"NEEDLE" in d)
        assert shrunk == b"NEEDLE"

    def test_deterministic(self):
        data = bytes(range(256)) * 4
        predicate = lambda d: d.count(0x7F) >= 2
        assert minimize(data, predicate) == minimize(data, predicate)

    def test_returns_input_when_predicate_false(self):
        assert minimize(b"abc", lambda d: False) == b"abc"


# ---------------------------------------------------------------------------
# the hostile-corpus experiment
# ---------------------------------------------------------------------------

class TestExperiment:
    def test_workers_merge_identically(self, tmp_path):
        config = HostileCorpusConfig(mutants_per_kind=48, chunks=4)
        serial = run_experiment("hostile-corpus", config=config,
                                workers=1, cache=False)
        parallel = run_experiment("hostile-corpus", config=config,
                                  workers=2, cache=False)
        assert serial.rows == parallel.rows
        assert serial.summary == parallel.summary

    def test_summary_shape(self):
        config = HostileCorpusConfig(mutants_per_kind=24, chunks=2)
        result = run_experiment("hostile-corpus", config=config,
                                workers=1, cache=False)
        summary = result.summary
        assert summary["mutants"] == 24 * len(config.kinds)
        assert set(summary["matrix"]) == set(FAMILIES)
        for counts in summary["matrix"].values():
            assert set(counts) == set(OUTCOMES)
        assert summary["unexpected_exceptions"] == 0
        assert summary["fixed_point_failures"] == 0

    def test_frozen_matrix_is_current(self):
        # The CI smoke job diffs a full default run against this file;
        # here just sanity-check the freeze matches the default config.
        frozen = json.loads((DATA_DIR / "expected_matrix.json").read_text())
        config = HostileCorpusConfig()
        assert frozen["seed"] == config.seed
        assert frozen["mutants_per_kind"] == config.mutants_per_kind
        assert frozen["outcomes"]["unexpected_exception"] == 0
        assert sum(frozen["outcomes"].values()) == (
            config.mutants_per_kind * len(config.kinds))
