"""Responder behaviour profiles.

Every quirk the paper measured in real OCSP responders is a knob on
:class:`ResponderProfile`; the corpus builder draws profile populations
matching the measured proportions so the reproduced figures take their
shapes from the same mixtures.

Paper anchors for each knob:

* ``validity_period`` / ``blank_next_update`` — Figure 8: median about a
  week; 9.1% of responders always blank nextUpdate; 2% exceed a month;
  the extreme reaches 108,130,800 s (1,251 days).
* ``this_update_margin`` — Figure 9: 17.2% of responders return
  responses with *zero* margin; 3% even return future thisUpdate.
* ``extra_certs`` — Figure 6: 14.5-15% of responders include more than
  one certificate; ocsp.cpc.gov.ae always includes four chains.
* ``serials_per_response`` — Figure 7: 96.2% return one serial; 3.3%
  always return 20.
* ``malformed_mode`` — Figure 5: eight responders persistently send
  malformed bodies "including empty responses, the value '0', or even
  JavaScript pages"; sheca and postsignum episodes sent "0".
* ``update_interval`` / ``on_demand`` — Section 5.4: 51.7% do not
  generate on demand; some (hinet, cnnic) set validity equal to the
  update interval, risking stale caches.
* ``stale_backends`` — footnote 17: multiple responders behind one IP
  with unsynchronized producedAt.
* ``unknown_for_revoked`` / ``good_for_revoked`` — Table 1 discrepancy
  modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..simnet.clock import DAY, HOUR, WEEK


@dataclass
class MalformedWindow:
    """A period during which a responder emits a malformed payload."""

    start: int
    end: int
    mode: str  # one of MALFORMED_MODES

    def active(self, now: int) -> bool:
        """True when *now* falls inside the window."""
        return self.start <= now < self.end


#: Malformed payloads the paper saw in the wild.
MALFORMED_MODES = ("empty", "zero", "javascript", "truncated")


@dataclass
class ResponderProfile:
    """Complete behavioural description of one OCSP responder."""

    #: Validity period (nextUpdate - thisUpdate); ignored when blank.
    validity_period: int = WEEK
    #: Blank nextUpdate: "newer revocation information is always available".
    blank_next_update: bool = False
    #: Margin subtracted from generation time to form thisUpdate.  Zero
    #: reproduces the no-margin responders; negative pushes thisUpdate
    #: into the future.
    this_update_margin: int = HOUR
    #: Pre-generation cadence; None means strictly on-demand.
    update_interval: Optional[int] = DAY
    #: Number of certificates embedded in responses beyond the delegate
    #: needed for verification (0 for most responders).
    extra_certs: int = 0
    #: Include the full chain up to the root (the cpc.gov.ae behaviour).
    include_root_chain: bool = False
    #: Serial numbers stuffed into every response (1 = just the asked one).
    serials_per_response: int = 1
    #: Sign with a delegated responder certificate instead of the CA key.
    delegated_signing: bool = False
    #: Persistent malformed payload mode, or None.
    malformed_mode: Optional[str] = None
    #: Transient malformed episodes (sheca / postsignum events).
    malformed_windows: Tuple[MalformedWindow, ...] = ()
    #: Sign responses with an unrelated key (signature never verifies).
    wrong_key: bool = False
    #: Answer with a different serial number than requested.
    serial_mismatch: bool = False
    #: Return Unknown for every certificate (one Table-1 responder did
    #: this for all 5,375 revoked certificates on its CRL).
    unknown_for_all: bool = False
    #: Ignore the OCSP revocation database and say Good regardless.
    good_for_revoked: bool = False
    #: Number of unsynchronized backends sharing the responder's name;
    #: >1 makes producedAt regress between consecutive polls.
    stale_backends: int = 1
    #: Lag between backend generations in seconds (only with stale_backends>1).
    backend_skew: int = 10 * 60
    #: Respond with an OCSP error status (e.g. tryLater) always.
    always_try_later: bool = False

    def __post_init__(self) -> None:
        if self.malformed_mode is not None and self.malformed_mode not in MALFORMED_MODES:
            raise ValueError(f"unknown malformed mode: {self.malformed_mode}")
        if self.serials_per_response < 1:
            raise ValueError("serials_per_response must be >= 1")
        if self.stale_backends < 1:
            raise ValueError("stale_backends must be >= 1")
        if self.validity_period <= 0:
            raise ValueError("validity_period must be positive")

    @property
    def on_demand(self) -> bool:
        """True when responses are generated per request."""
        return self.update_interval is None


def well_behaved_profile() -> ResponderProfile:
    """The baseline: weekly validity, hourly-safe margin, one serial."""
    return ResponderProfile()


def zero_margin_profile() -> ResponderProfile:
    """A responder that gives clients no clock-skew margin (Figure 9)."""
    return ResponderProfile(this_update_margin=0, update_interval=None)


def future_this_update_profile(seconds_ahead: int = 300) -> ResponderProfile:
    """A responder whose thisUpdate sits in the future (Figure 9's 3%)."""
    return ResponderProfile(this_update_margin=-seconds_ahead, update_interval=None)


def blank_next_update_profile() -> ResponderProfile:
    """A responder that never sets nextUpdate (Figure 8's 9.1%)."""
    return ResponderProfile(blank_next_update=True)


def long_validity_profile(days: int = 1251) -> ResponderProfile:
    """A responder with a dangerously long validity period (Figure 8's 2%)."""
    return ResponderProfile(validity_period=days * DAY)


def serial_stuffing_profile(count: int = 20) -> ResponderProfile:
    """A responder that answers for *count* serials at once (Figure 7)."""
    return ResponderProfile(serials_per_response=count)


def superfluous_certs_profile(extra: int = 3, include_root: bool = True) -> ResponderProfile:
    """A responder shipping whole chains in responses (Figure 6)."""
    return ResponderProfile(extra_certs=extra, include_root_chain=include_root,
                            delegated_signing=True)


def persistent_malformed_profile(mode: str = "zero") -> ResponderProfile:
    """A responder that always sends garbage (Figure 5's 1.6%)."""
    return ResponderProfile(malformed_mode=mode)


def non_overlapping_profile(period: int = 2 * HOUR) -> ResponderProfile:
    """validityPeriod == update interval (hinet/cnnic, Section 5.4)."""
    return ResponderProfile(validity_period=period, update_interval=period,
                            this_update_margin=0)
