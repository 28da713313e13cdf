"""``repro.crypto.modexp.powmod`` is exactly ``pow``, on either backend."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import modexp
from repro.crypto.modexp import powmod


@st.composite
def _moduli(draw):
    """An 8- to 4096-bit modulus, odd or even."""
    bits = draw(st.integers(min_value=8, max_value=4096))
    mod = draw(st.integers(min_value=1 << (bits - 1),
                           max_value=(1 << bits) - 1))
    return mod & ~1 if draw(st.booleans()) else mod | 1


@st.composite
def _operands(draw):
    mod = draw(_moduli())
    base = draw(st.one_of(
        st.integers(min_value=0, max_value=mod - 1),
        st.integers(min_value=mod, max_value=4 * mod),   # base >= mod
        st.integers(min_value=-4 * mod, max_value=-1),
        st.sampled_from([0, 1, mod - 1, mod, mod + 1]),
    ))
    exp = draw(st.one_of(st.just(0), st.just(1),
                         st.integers(min_value=0, max_value=1 << 256)))
    return base, exp, mod


class TestPowmodIsPow:
    @settings(max_examples=300, deadline=None)
    @given(operands=_operands())
    def test_matches_pow(self, operands):
        base, exp, mod = operands
        assert powmod(base, exp, mod) == pow(base, exp, mod)

    @pytest.mark.parametrize("bits", [256, 512, 1024, 2048])
    def test_full_size_exponents(self, bits):
        rng = random.Random(bits)
        for _ in range(4):
            mod = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
            base, exp = rng.getrandbits(bits + 8), rng.getrandbits(bits)
            assert powmod(base, exp, mod) == pow(base, exp, mod)

    @pytest.mark.parametrize("base, exp, mod", [
        (5, 0, 1), (0, 0, 1), (7, 3, 1), (-7, 3, 1),   # mod 1
        (0, 0, 255), (3, 0, 2), (0, 9, 256),            # exp 0, even mod
        (2 ** 300, 7, 2 ** 256), (-1, 5, 2 ** 64 + 1),
        (3, -1, 7), (2, 5, -7),                          # pow's own cases
    ])
    def test_edge_cases(self, base, exp, mod):
        assert powmod(base, exp, mod) == pow(base, exp, mod)

    @pytest.mark.parametrize("base, exp, mod", [(3, 5, 0), (2, -1, 4)])
    def test_errors_are_pows(self, base, exp, mod):
        with pytest.raises(ValueError) as expected:
            pow(base, exp, mod)
        with pytest.raises(ValueError) as raised:
            powmod(base, exp, mod)
        assert str(raised.value) == str(expected.value)

    def test_threads_do_not_share_scratch(self):
        """Each thread converts through its own BIGNUMs: with a switch
        after nearly every bytecode, a shared scratch would mix one
        thread's operands into another's result."""
        rng = random.Random(7)
        cases = [(rng.getrandbits(512), rng.getrandbits(512),
                  rng.getrandbits(512) | 1) for _ in range(200)]
        expected = [pow(*case) for case in cases]
        results = {}

        def work(name):
            results[name] = [powmod(*case) for case in cases]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(results[i] == expected for i in range(6))


class TestFallback:
    def test_missing_library_falls_back(self):
        assert modexp._load("libdoes-not-exist.so.0") is None

    def test_library_without_bignums_falls_back(self):
        # libc loads, but has no BN_* symbols: AttributeError.
        assert modexp._load("libc.so.6") is None

    def test_forced_fallback_is_pow(self, monkeypatch):
        monkeypatch.setattr(modexp, "_BACKEND", None)
        assert powmod(3, 2 ** 200 + 1, 2 ** 255 - 19) == \
            pow(3, 2 ** 200 + 1, 2 ** 255 - 19)
        assert powmod(3, 5, 1) == 0

    @pytest.mark.skipif(not modexp.NATIVE, reason="libcrypto.so.3 absent")
    def test_native_library_loads(self):
        assert modexp._load() is not None
