"""Structure-aware DER mutation and hostile-corpus survival testing.

The paper's scanners ingest bytes from the real web, where malformed
DER is routine — Figure 5's first error class is literally "malformed
response".  This package manufactures that hostility deterministically:

* :mod:`repro.hostile.tlv` — a lenient TLV model of DER: one bounded
  header walk (element spans, the fixed-point check) and a tree with a
  serializer that can lie (length overrides, indefinite lengths);
* :mod:`repro.hostile.mutate` — Frankencert-style mutation families
  (truncation at element boundaries, length inflation/deflation, tag
  flips, subtree splicing across documents, OID/time/signature
  corruption, BER-ification, depth/length bombs), each mutant a pure
  function of ``(document, mutation_id, seed)`` spliced from a
  per-document element index;
* :mod:`repro.hostile.corpus` — canonical seed documents minted from
  the simulated PKI, plus the scan→lint→verify classification of each
  mutant and the decode→re-encode→decode fixed-point harness;
* :mod:`repro.hostile.minimize` — greedy byte-range minimization of
  crashing inputs for the frozen regression corpus;
* :mod:`repro.hostile.experiments` — the ``hostile-corpus`` registry
  entry: a sharded survival/classification matrix (mutation family ×
  outcome) merged byte-identically at any worker count.
"""

from .mutate import FAMILIES, Mutant, mutate
from .corpus import KINDS, OUTCOMES, classify_mutant, seed_world
from .tlv import TLVNode, encode_forest, parse_forest, tlv_fixed_point

__all__ = [
    "FAMILIES",
    "KINDS",
    "Mutant",
    "OUTCOMES",
    "TLVNode",
    "classify_mutant",
    "encode_forest",
    "mutate",
    "parse_forest",
    "seed_world",
    "tlv_fixed_point",
]
