"""The whole-program effect & purity analyzer (:mod:`repro.analyze`).

Covers the pragma grammar, per-effect leaf detection, the call-graph
corner cases the issue names (decorated runners, ``functools.partial``,
method refs, re-exported names, a 3-calls-deep transitive effect), the
no-drift guarantee vs ``tools/check_determinism.py``, and the
repo-wide strict certification the CI gate relies on.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro import memo as memo_module
from repro.analyze import analyze_package, analyze_tree, contract_table, graph_dump
from repro.analyze.effects import (
    ATTR_CALL_INDEX,
    GLOBAL_RNG_FUNCS,
    MEMO_GRANT,
    Effect,
    banned_attr_call_messages,
    parse_pragmas,
)

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_checker():
    sys.path.insert(0, str(TOOLS))
    try:
        import check_determinism
    finally:
        sys.path.remove(str(TOOLS))
    return check_determinism


def write_tree(tmp_path, files):
    """Materialize a fixture package; returns its root directory."""
    root = tmp_path / "fixpkg"
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    for directory in {p.parent for p in root.rglob("*.py")} | {root}:
        init = directory / "__init__.py"
        if not init.exists():
            init.write_text("")
    return root


def effects_of(analysis, qualname):
    return set(analysis.effects.get(qualname, {}))


def contract_for(analysis, ref):
    for result in analysis.contracts:
        if result.contract.ref == ref:
            return result
    raise AssertionError(f"no contract for {ref}: "
                         f"{[r.contract.ref for r in analysis.contracts]}")


# ---------------------------------------------------------------------------
# pragma grammar
# ---------------------------------------------------------------------------

class TestPragmaGrammar:
    def test_effect_pragma_parses(self):
        table = parse_pragmas(
            "x = 1  # repro: allow-effect[WALL_CLOCK,FS_READ] -- timing\n")
        assert not table.issues
        [pragma] = table.pragmas.values()
        assert pragma.check == "effect"
        assert pragma.effects == (Effect.WALL_CLOCK, Effect.FS_READ)
        assert pragma.justification == "timing"

    def test_broad_except_pragma_parses(self):
        table = parse_pragmas(
            "try:\n    pass\n"
            "except Exception:  # repro: allow-broad-except -- firewall\n"
            "    pass\n")
        assert not table.issues
        [pragma] = table.pragmas.values()
        assert pragma.check == "broad-except"

    def test_missing_justification_is_an_issue(self):
        table = parse_pragmas("x = 1  # repro: allow-effect[WALL_CLOCK]\n")
        assert [issue.code for issue in table.issues] == ["unjustified"]

    def test_unknown_effect_is_an_issue(self):
        table = parse_pragmas(
            "x = 1  # repro: allow-effect[FLUX_CAPACITOR] -- why\n")
        assert [issue.code for issue in table.issues] == ["unknown"]

    def test_lookalike_typo_is_an_issue(self):
        table = parse_pragmas("x = 1  # repro: allow-efect -- oops\n")
        assert table.issues

    def test_docstring_examples_are_not_pragmas(self):
        table = parse_pragmas(
            '"""Docs show `# repro: allow-effect[BOGUS]` inline."""\n')
        assert not table.pragmas and not table.issues


# ---------------------------------------------------------------------------
# leaf effect detection, one per lattice member
# ---------------------------------------------------------------------------

LEAF_CASES = {
    Effect.WALL_CLOCK: "import time\ndef f():\n    return time.time()\n",
    Effect.AMBIENT_RNG: "import random\ndef f():\n"
                        "    return random.Random()\n",
    Effect.OS_ENTROPY: "import os\ndef f():\n    return os.urandom(8)\n",
    Effect.ENV: "import os\ndef f():\n    return os.getenv('HOME')\n",
    Effect.FS_READ: "def f(p):\n    return open(p).read()\n",
    Effect.FS_WRITE: "def f(p):\n    return open(p, 'w')\n",
    Effect.NETWORK: "import socket\ndef f():\n    return socket.socket()\n",
    Effect.PROCESS: "import subprocess\ndef f():\n"
                    "    return subprocess.run(['true'])\n",
    Effect.GLOBAL_MUTATION: "STATE = {}\ndef f(k, v):\n    STATE[k] = v\n",
    Effect.HASH_ORDER: "def f(x):\n    return hash(x)\n",
}


@pytest.mark.parametrize("effect", sorted(LEAF_CASES, key=lambda e: e.name))
def test_leaf_effect_detected(tmp_path, effect):
    root = write_tree(tmp_path, {"leaf.py": LEAF_CASES[effect]})
    analysis = analyze_tree(root)
    assert effect in effects_of(analysis, "fixpkg.leaf:f")


def test_seeded_random_is_pure(tmp_path):
    root = write_tree(tmp_path, {
        "leaf.py": "import random\ndef f(seed):\n"
                   "    return random.Random(seed).random()\n"})
    analysis = analyze_tree(root)
    assert not effects_of(analysis, "fixpkg.leaf:f")


def test_hash_allowed_inside_dunder_hash(tmp_path):
    root = write_tree(tmp_path, {
        "leaf.py": "class C:\n"
                   "    def __hash__(self):\n"
                   "        return hash(('c',))\n"})
    analysis = analyze_tree(root)
    assert not effects_of(analysis, "fixpkg.leaf:C.__hash__")


# ---------------------------------------------------------------------------
# call-graph corner cases (the satellite's fixture list)
# ---------------------------------------------------------------------------

REGISTRY = """\
_ENTRIES = [
    {{"runner": "{ref}"}},
]
"""


def registry_tree(tmp_path, runner_source, ref):
    return write_tree(tmp_path, {
        "core/experiments.py": REGISTRY.format(ref=ref),
        "runners.py": runner_source,
    })


def test_decorated_runner_effect_caught(tmp_path):
    root = registry_tree(tmp_path, (
        "import functools\n"
        "import time\n"
        "def logged(fn):\n"
        "    @functools.wraps(fn)\n"
        "    def wrapper(*a, **kw):\n"
        "        return fn(*a, **kw)\n"
        "    return wrapper\n"
        "@logged\n"
        "def run_decorated(config):\n"
        "    return time.time()\n"
    ), "fixpkg.runners:run_decorated")
    analysis = analyze_tree(root)
    result = contract_for(analysis, "fixpkg.runners:run_decorated")
    assert not result.ok
    assert {v.effect for v in result.violations} == {Effect.WALL_CLOCK}


def test_functools_partial_effect_caught(tmp_path):
    root = registry_tree(tmp_path, (
        "import functools\n"
        "import time\n"
        "def tick(scale):\n"
        "    return time.time() * scale\n"
        "def run_partial(config):\n"
        "    step = functools.partial(tick, 2)\n"
        "    return step()\n"
    ), "fixpkg.runners:run_partial")
    analysis = analyze_tree(root)
    result = contract_for(analysis, "fixpkg.runners:run_partial")
    assert not result.ok
    assert {v.effect for v in result.violations} == {Effect.WALL_CLOCK}


def test_method_ref_effect_caught(tmp_path):
    root = registry_tree(tmp_path, (
        "import time\n"
        "class Scanner:\n"
        "    def probe(self):\n"
        "        return time.time()\n"
        "def run_method(config):\n"
        "    return Scanner().probe()\n"
    ), "fixpkg.runners:run_method")
    analysis = analyze_tree(root)
    result = contract_for(analysis, "fixpkg.runners:run_method")
    assert not result.ok
    assert {v.effect for v in result.violations} == {Effect.WALL_CLOCK}


def test_reexported_name_effect_caught(tmp_path):
    root = write_tree(tmp_path, {
        "core/experiments.py": REGISTRY.format(
            ref="fixpkg.runners:run_reexport"),
        "impl.py": "import time\ndef tick():\n    return time.time()\n",
        "api/__init__.py": "from ..impl import tick\n",
        "runners.py": ("from .api import tick\n"
                       "def run_reexport(config):\n"
                       "    return tick()\n"),
    })
    analysis = analyze_tree(root)
    result = contract_for(analysis, "fixpkg.runners:run_reexport")
    assert not result.ok
    assert {v.effect for v in result.violations} == {Effect.WALL_CLOCK}


LAZY_HELPERS = {
    "impl.py": "import time\ndef tick():\n    return time.time()\n",
    "pure.py": "def tick():\n    return 0\n",
}


@pytest.mark.parametrize("runner", [
    # the runners' lazy-import idiom
    "def run_lazy(config):\n"
    "    from .impl import tick\n"
    "    return tick()\n",
    # the body's import wins over a module-level name of the same name
    "from .pure import tick\n"
    "def run_lazy(config):\n"
    "    from .impl import tick\n"
    "    return tick()\n",
    # a module imported in the body
    "def run_lazy(config):\n"
    "    from . import impl\n"
    "    return impl.tick()\n",
    # a closure calls what its definer imported
    "def run_lazy(config):\n"
    "    from .impl import tick\n"
    "    def inner():\n"
    "        return tick()\n"
    "    return inner()\n",
], ids=["from-import", "shadows-module-name", "module", "closure"])
def test_function_body_import_effect_caught(tmp_path, runner):
    root = write_tree(tmp_path, {
        "core/experiments.py": REGISTRY.format(
            ref="fixpkg.runners:run_lazy"),
        "runners.py": runner, **LAZY_HELPERS})
    analysis = analyze_tree(root)
    result = contract_for(analysis, "fixpkg.runners:run_lazy")
    assert not result.ok
    [violation] = result.violations
    assert violation.effect is Effect.WALL_CLOCK
    assert violation.chain[-1].qualname == "fixpkg.impl:tick"


def test_function_body_import_does_not_fall_back_to_module_name(tmp_path):
    """A pure helper imported in the body is what the body calls, even
    when the module binds an impure helper under the same name."""
    root = write_tree(tmp_path, {
        "core/experiments.py": REGISTRY.format(
            ref="fixpkg.runners:run_lazy"),
        "runners.py": ("from .impl import tick\n"
                       "def run_lazy(config):\n"
                       "    from .pure import tick\n"
                       "    return tick()\n"),
        **LAZY_HELPERS})
    analysis = analyze_tree(root)
    assert contract_for(analysis, "fixpkg.runners:run_lazy").ok
    calls = [edge.callee for edge in
             analysis.graph.functions["fixpkg.runners:run_lazy"].calls]
    assert calls == ["fixpkg.pure:tick"]


def test_three_calls_deep_wall_clock_fails_contract(tmp_path):
    """The acceptance fixture: an effect only reachable 3 calls deep."""
    root = registry_tree(tmp_path, (
        "import time\n"
        "def run_deep(config):\n"
        "    return level_one()\n"
        "def level_one():\n"
        "    return level_two()\n"
        "def level_two():\n"
        "    return time.time()\n"
    ), "fixpkg.runners:run_deep")
    analysis = analyze_tree(root)
    result = contract_for(analysis, "fixpkg.runners:run_deep")
    assert not result.ok
    [violation] = result.violations
    assert violation.effect is Effect.WALL_CLOCK
    hops = [step.qualname for step in violation.chain]
    assert hops == ["fixpkg.runners:run_deep", "fixpkg.runners:level_one",
                    "fixpkg.runners:level_two"]
    assert not analysis.ok  # and it is a finding, not just a verdict


@pytest.mark.parametrize("load", [
    "ctypes.CDLL('libcrypto.so.3')",
    "ctypes.PyDLL('libcrypto.so.3')",
    "ctypes.cdll.LoadLibrary('libcrypto.so.3')",
])
def test_unpragmad_native_load_is_a_finding(tmp_path, load):
    """Which library a load finds is a machine read: a contract that
    reaches one is impure until the load site justifies it."""
    root = registry_tree(tmp_path, (
        "import ctypes\n"
        "def run_native(config):\n"
        f"    return {load}\n"
    ), "fixpkg.runners:run_native")
    analysis = analyze_tree(root)
    result = contract_for(analysis, "fixpkg.runners:run_native")
    assert [v.effect for v in result.violations] == [Effect.ENV]
    assert [f.rule_id for f in analysis.report.findings] == \
        ["ANALYZE_IMPURE_CONTRACT"]


def test_pragmad_native_load_is_allowed(tmp_path):
    root = registry_tree(tmp_path, (
        "import ctypes\n"
        "def run_native(config):\n"
        "    return ctypes.PyDLL('libcrypto.so.3')  "
        "# repro: allow-effect[ENV] -- only speed depends on it\n"
    ), "fixpkg.runners:run_native")
    analysis = analyze_tree(root)
    result = contract_for(analysis, "fixpkg.runners:run_native")
    assert result.ok
    assert [a.site.effect for a in result.allowed] == [Effect.ENV]
    assert analysis.ok


def test_unresolvable_registry_ref_is_an_error(tmp_path):
    root = write_tree(tmp_path, {
        "core/experiments.py": REGISTRY.format(ref="fixpkg.runners:missing"),
        "runners.py": "def present(config):\n    return []\n",
    })
    analysis = analyze_tree(root)
    assert any(f.rule_id == "ANALYZE_UNRESOLVED_REF"
               for f in analysis.report.findings)


# ---------------------------------------------------------------------------
# pragma suppression end to end
# ---------------------------------------------------------------------------

def test_pragma_suppresses_and_is_recorded_as_allowed(tmp_path):
    root = registry_tree(tmp_path, (
        "import time\n"
        "def run_timed(config):\n"
        "    return time.perf_counter()  "
        "# repro: allow-effect[WALL_CLOCK] -- timings are measurements\n"
    ), "fixpkg.runners:run_timed")
    analysis = analyze_tree(root)
    result = contract_for(analysis, "fixpkg.runners:run_timed")
    assert result.ok
    assert [a.site.effect for a in result.allowed] == [Effect.WALL_CLOCK]
    assert analysis.ok


def test_def_line_pragma_covers_the_whole_function(tmp_path):
    root = registry_tree(tmp_path, (
        "import time\n"
        "def run_timed(config):  "
        "# repro: allow-effect[WALL_CLOCK] -- measured, not content\n"
        "    a = time.perf_counter()\n"
        "    b = time.perf_counter()\n"
        "    return b - a\n"
    ), "fixpkg.runners:run_timed")
    analysis = analyze_tree(root)
    assert contract_for(analysis, "fixpkg.runners:run_timed").ok
    assert analysis.ok


def test_unused_pragma_is_a_warning(tmp_path):
    root = write_tree(tmp_path, {
        "leaf.py": "def f():  # repro: allow-effect[NETWORK] -- stale\n"
                   "    return 1\n"})
    analysis = analyze_tree(root)
    assert [f.rule_id for f in analysis.report.findings] == \
        ["ANALYZE_PRAGMA_UNUSED"]
    assert analysis.clean and not analysis.ok  # warn blocks strict only

def test_unjustified_pragma_is_an_error(tmp_path):
    root = write_tree(tmp_path, {
        "leaf.py": "import time\n"
                   "def f():\n"
                   "    return time.time()  # repro: allow-effect[WALL_CLOCK]\n"})
    analysis = analyze_tree(root)
    assert any(f.rule_id == "ANALYZE_PRAGMA_UNJUSTIFIED"
               for f in analysis.report.findings)
    assert not analysis.clean


def test_pragma_only_grants_named_effects(tmp_path):
    root = registry_tree(tmp_path, (
        "import time, os\n"
        "def run_mixed(config):\n"
        "    os.urandom(4)\n"
        "    return time.time()  "
        "# repro: allow-effect[WALL_CLOCK] -- only the clock\n"
    ), "fixpkg.runners:run_mixed")
    analysis = analyze_tree(root)
    result = contract_for(analysis, "fixpkg.runners:run_mixed")
    assert {v.effect for v in result.violations} == {Effect.OS_ENTROPY}


# ---------------------------------------------------------------------------
# the bounded memo rule
# ---------------------------------------------------------------------------

MEMO_SOURCE = Path(memo_module.__file__).read_text()


def memo_tree(tmp_path, runner_source, ref):
    return write_tree(tmp_path, {
        "core/experiments.py": REGISTRY.format(ref=ref),
        "memo.py": MEMO_SOURCE,
        "runners.py": runner_source,
    })


@pytest.mark.parametrize("binding", [
    "_SQUARES = BoundedMemo(4)",
    "_SQUARES: BoundedMemo[int, int] = BoundedMemo(4)",
])
def test_module_memo_fill_is_allowed_not_unseen(tmp_path, binding):
    """A module-level memo needs no pragma, yet its fill is listed."""
    root = memo_tree(tmp_path, (
        "from .memo import BoundedMemo\n"
        f"{binding}\n"
        "def _square(n):\n"
        "    return n * n\n"
        "def run_memo(config):\n"
        "    return _SQUARES.lookup(config, _square)\n"
    ), "fixpkg.runners:run_memo")
    analysis = analyze_tree(root)
    result = contract_for(analysis, "fixpkg.runners:run_memo")
    assert result.ok
    assert [(a.site.effect, a.site.code, a.pragma) for a in result.allowed] \
        == [(Effect.GLOBAL_MUTATION, "_SQUARES.lookup()", MEMO_GRANT)]
    assert analysis.ok


@pytest.mark.parametrize("binding, fill", [
    ("_SQUARES = {}", "_SQUARES[config] = config * config"),
    ("_SQUARES = {}", "_SQUARES.setdefault(config, config * config)"),
    ("_SQUARES = BoundedMemo(4)", "_SQUARES._entries[config] = config"),
    ("_SQUARES = BoundedMemo(4)", "_SQUARES._entries.pop(config)"),
])
def test_other_module_level_fills_are_findings(tmp_path, binding, fill):
    """The memo grant covers calls on a memo, nothing else: a plain
    dict fill, or a write past the memo's methods, stays impure."""
    root = memo_tree(tmp_path, (
        "from .memo import BoundedMemo\n"
        f"{binding}\n"
        "def run_fill(config):\n"
        f"    {fill}\n"
    ), "fixpkg.runners:run_fill")
    analysis = analyze_tree(root)
    result = contract_for(analysis, "fixpkg.runners:run_fill")
    assert [v.effect for v in result.violations] == [Effect.GLOBAL_MUTATION]
    assert not result.allowed
    assert [f.rule_id for f in analysis.report.findings] == \
        ["ANALYZE_IMPURE_CONTRACT"]


@pytest.mark.parametrize("runner", [
    "from .state import STATE\n"
    "def run_fill(config):\n"
    "    STATE.setdefault(config, 1)\n"
    "    STATE[config] = 2\n",
    # through a re-export, imported in the runner's body
    "def run_fill(config):\n"
    "    from .api import STATE\n"
    "    STATE.setdefault(config, 1)\n"
    "    STATE[config] = 2\n",
], ids=["module-import", "body-import-reexport"])
def test_imported_container_fill_is_a_finding(tmp_path, runner):
    """A container another module assigns is as global as one the
    runner's own module assigns."""
    root = write_tree(tmp_path, {
        "core/experiments.py": REGISTRY.format(
            ref="fixpkg.runners:run_fill"),
        "state.py": "STATE = {}\n",
        "api/__init__.py": "from ..state import STATE\n",
        "runners.py": runner,
    })
    analysis = analyze_tree(root)
    result = contract_for(analysis, "fixpkg.runners:run_fill")
    assert [v.effect for v in result.violations] == [Effect.GLOBAL_MUTATION]
    sites = analysis.graph.functions["fixpkg.runners:run_fill"].effects
    assert sorted(site.code for site in sites) \
        == ["STATE.setdefault()", "STATE[...] ="]


def test_imported_memo_fill_is_allowed(tmp_path):
    """A memo imported by name is granted like one assigned in place."""
    root = write_tree(tmp_path, {
        "core/experiments.py": REGISTRY.format(
            ref="fixpkg.runners:run_memo"),
        "memo.py": MEMO_SOURCE,
        "state.py": ("from .memo import BoundedMemo\n"
                     "SQUARES = BoundedMemo(4)\n"),
        "runners.py": ("from .state import SQUARES\n"
                       "def run_memo(config):\n"
                       "    return SQUARES.lookup(config, len)\n"),
    })
    analysis = analyze_tree(root)
    result = contract_for(analysis, "fixpkg.runners:run_memo")
    assert result.ok
    assert [(a.site.effect, a.site.code, a.pragma) for a in result.allowed] \
        == [(Effect.GLOBAL_MUTATION, "SQUARES.lookup()", MEMO_GRANT)]
    assert analysis.ok


def test_instance_owned_memo_is_no_global_mutation(tmp_path):
    """Like the OCSP responder's cache: state of an object the caller
    holds, so no GLOBAL_MUTATION at all, allowed or not."""
    root = memo_tree(tmp_path, (
        "from .memo import BoundedMemo\n"
        "class Responder:\n"
        "    def __init__(self):\n"
        "        self._responses = BoundedMemo(4)\n"
        "    def handle(self, request):\n"
        "        return self._responses.lookup(request, len)\n"
        "def run_owned(config):\n"
        "    return Responder().handle(config)\n"
    ), "fixpkg.runners:run_owned")
    analysis = analyze_tree(root)
    result = contract_for(analysis, "fixpkg.runners:run_owned")
    assert result.ok and not result.allowed
    assert Effect.GLOBAL_MUTATION not in effects_of(
        analysis, "fixpkg.runners:Responder.handle")
    assert analysis.ok


def test_broad_except_pragma_suppresses_warning(tmp_path):
    noisy = write_tree(tmp_path / "noisy", {
        "leaf.py": "def f():\n"
                   "    try:\n"
                   "        return 1\n"
                   "    except Exception:\n"
                   "        return 0\n"})
    assert any(f.rule_id == "ANALYZE_BROAD_EXCEPT"
               for f in analyze_tree(noisy).report.findings)
    quiet = write_tree(tmp_path / "quiet", {
        "leaf.py": "def f():\n"
                   "    try:\n"
                   "        return 1\n"
                   "    except Exception:  "
                   "# repro: allow-broad-except -- fixture firewall\n"
                   "        return 0\n"})
    assert analyze_tree(quiet).ok


# ---------------------------------------------------------------------------
# no drift vs tools/check_determinism.py
# ---------------------------------------------------------------------------

class TestDeterminismSubset:
    def test_every_ban_is_a_seeded_leaf_effect(self):
        old = load_checker()
        for pair, message in old._BANNED_ATTR_CALLS.items():
            rule = ATTR_CALL_INDEX.get(pair)
            assert rule is not None, f"analyzer misses ban {pair}"
            assert rule.determinism_ban, f"{pair} not marked as a ban"
            assert rule.message == message, f"{pair} message drifted"

    def test_global_rng_tables_are_shared(self):
        old = load_checker()
        assert old._GLOBAL_RNG_FUNCS == GLOBAL_RNG_FUNCS
        assert old._BANNED_ATTR_CALLS == banned_attr_call_messages()

    def test_checker_findings_are_a_subset_of_the_analyzers(self, tmp_path):
        """Every line the old per-file checker flags carries an
        analyzer leaf effect on the same line."""
        source = (
            "import os\n"
            "import random\n"
            "import secrets\n"
            "import time\n"
            "from datetime import date, datetime\n"
            "def everything():\n"
            "    datetime.now()\n"
            "    datetime.utcnow()\n"
            "    date.today()\n"
            "    time.time()\n"
            "    time.time_ns()\n"
            "    time.monotonic()\n"
            "    time.sleep(1)\n"
            "    random.SystemRandom()\n"
            "    random.Random()\n"
            "    random.random()\n"
            "    random.choice([1])\n"
            "    os.urandom(8)\n"
            "    os._exit(1)\n"
            "    secrets.token_bytes(8)\n"
            "    hash('x')\n"
        )
        old = load_checker()
        old_lines = {v.line for v in old.scan_source(source, "leaf.py")}
        assert old_lines, "fixture must trip the old checker"

        root = write_tree(tmp_path, {"leaf.py": source})
        analysis = analyze_tree(root)
        info = analysis.graph.functions["fixpkg.leaf:everything"]
        new_lines = {site.line for site in info.effects}
        assert old_lines <= new_lines, \
            f"old checker sees lines the analyzer misses: " \
            f"{sorted(old_lines - new_lines)}"


# ---------------------------------------------------------------------------
# repo-wide certification (what CI's analyze-strict job asserts)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def repo_analysis():
    return analyze_package()


class TestRepoCertification:
    def test_strict_clean(self, repo_analysis):
        assert repo_analysis.ok, \
            "\n".join(f.render() for f in repo_analysis.report.findings)

    def test_all_contracts_pure(self, repo_analysis):
        bad = [r.contract.ref for r in repo_analysis.contracts if not r.ok]
        assert not bad

    def test_every_registered_runner_is_under_contract(self, repo_analysis):
        from repro.core.experiments import all_experiments
        runners = {r.contract.ref for r in repo_analysis.contracts
                   if r.contract.group == "runner"}
        declared = {e.runner for e in all_experiments()}
        assert declared <= runners

    def test_contract_groups_are_populated(self, repo_analysis):
        groups = {r.contract.group for r in repo_analysis.contracts}
        assert {"runner", "worker", "plan", "merge",
                "injector", "classify", "reducer"} <= groups

    def test_reducers_are_certified_pure(self, repo_analysis):
        """The mergeable-reducer algebra only converges byte-identically
        if init/step/merge/finalize are pure — the ``*.reducers``
        convention puts every public reducer under contract."""
        for name in ("AvailabilityReducer", "AdoptionReducer",
                     "FreshnessReducer", "ResponseStatsReducer",
                     "default_reducers"):
            result = contract_for(repo_analysis,
                                  f"repro.monitor.reducers:{name}")
            assert result.contract.group == "reducer"
            assert result.ok

    def test_contract_table_renders(self, repo_analysis):
        table = contract_table(repo_analysis)
        assert "Purity contracts" in table
        assert "0 impure, 0 unresolved" in table

    def test_graph_dump_is_json_and_covers_contracts(self, repo_analysis):
        document = graph_dump(repo_analysis)
        json.dumps(document)  # serializable
        assert document["schema"] == "repro-analyze/1"
        assert len(document["contracts"]) == len(repo_analysis.contracts)
        assert all(c["status"] == "pure" for c in document["contracts"])

    def test_allowed_effects_are_visible_not_hidden(self, repo_analysis):
        """The chaos worker's injected faults ride on pragmas — they
        must surface in the certificate as allowed, not vanish."""
        result = contract_for(repo_analysis, "repro.runtime.chaos:chaos_shard")
        allowed = {a.site.effect for a in result.allowed}
        assert {Effect.PROCESS, Effect.WALL_CLOCK} <= allowed


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestAnalyzeCli:
    def test_strict_exits_zero_on_clean_repo(self, capsys):
        from repro.cli import main
        assert main(["analyze", "--strict"]) == 0
        assert "contracts pure" in capsys.readouterr().out

    def test_contract_table_mode(self, capsys):
        from repro.cli import main
        assert main(["analyze", "--contract"]) == 0
        assert "Purity contracts" in capsys.readouterr().out

    def test_graph_dump_mode(self, tmp_path, capsys):
        from repro.cli import main
        graph_file = tmp_path / "graph.json"
        assert main(["analyze", "--strict", "--graph",
                     str(graph_file)]) == 0
        document = json.loads(graph_file.read_text())
        assert document["schema"] == "repro-analyze/1"

    def test_sarif_format(self, tmp_path, capsys):
        from repro.cli import main
        root = registry_tree(tmp_path, (
            "import time\n"
            "def run_dirty(config):\n"
            "    return time.time()\n"
        ), "fixpkg.runners:run_dirty")
        assert main(["analyze", "--format", "sarif", str(root)]) == 1
        document = json.loads(capsys.readouterr().out)
        rules = document["runs"][0]["tool"]["driver"]["rules"]
        assert any(r["id"] == "ANALYZE_IMPURE_CONTRACT" for r in rules)
        results = document["runs"][0]["results"]
        assert any(r["ruleId"] == "ANALYZE_IMPURE_CONTRACT"
                   for r in results)

    def test_directory_positional_selects_static_analyzer(self, tmp_path,
                                                          capsys):
        from repro.cli import main
        root = write_tree(tmp_path, {
            "leaf.py": "import time\ndef f():\n    return time.time()\n"})
        assert main(["analyze", str(root)]) == 0  # warn-free, no contracts
        assert "functions" in capsys.readouterr().out

    def test_strict_fails_on_impure_tree(self, tmp_path, capsys):
        from repro.cli import main
        root = registry_tree(tmp_path, (
            "import time\n"
            "def run_dirty(config):\n"
            "    return time.time()\n"
        ), "fixpkg.runners:run_dirty")
        assert main(["analyze", "--strict", str(root)]) == 1
        assert "ANALYZE_IMPURE_CONTRACT" in capsys.readouterr().out
