#!/usr/bin/env python3
"""AST-based determinism lint for ``src/repro``.

The reproduction's core invariant is that every result is a pure
function of explicit inputs (seeds, reference times).  This checker
bans the ambient-state escape hatches that silently break that:

* ``datetime.now()`` / ``datetime.utcnow()`` / ``date.today()``
* ``time.time()`` / ``time.time_ns()`` / ``time.monotonic()``
* unseeded ``random.Random()``
* the module-level ``random.*`` functions (global, unseeded RNG)
* ``random.SystemRandom`` / ``os.urandom`` / ``secrets.*``
* ``time.sleep()`` — ambient wall-clock pacing; simulated time and the
  supervisor's deadline-based scheduling replace it
* ``os._exit()`` — skips interpreter cleanup and can truncate output
  files mid-write; only the chaos harness may crash workers this way
* builtin ``hash()`` outside ``__hash__`` methods — string hashing is
  randomized per process, so hash-derived seeds silently fork RNG
  streams across runs; use :func:`repro.canon.stable_seed`

Documented exceptions go in :data:`ALLOWLIST` as
``(path suffix, offending code)`` pairs: the convenience default of
:func:`repro.crypto.rsa.generate_keypair` (every reproducible caller
overrides it with a seed), the two fault-injection primitives of
:mod:`repro.runtime.chaos` — the crash/hang injections are the tested
behaviour there, not an escape hatch — the runtime's one wall-clock
read in :mod:`repro.runtime.dist`, which stamps worker events and
serves ``repro cache gc --max-age``, and the socket workers' dial
backoff in :mod:`repro.runtime.sock`.  None of these reaches content:
merged bytes depend only on the shard plan and the artifact cache
keys.

Usage: ``python tools/check_determinism.py [root]`` (default:
``src/repro`` relative to the repository root).  Exit code 0 when
clean, 1 when violations are found.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, NamedTuple, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analyze.effects import (  # noqa: E402
    GLOBAL_RNG_FUNCS,
    GLOBAL_RNG_MESSAGE,
    HASH_MESSAGE,
    SECRETS_MESSAGE,
    UNSEEDED_RANDOM_MESSAGE,
    UTCNOW_MESSAGE,
    banned_attr_call_messages,
)

#: (normalized path suffix, offending code) pairs that are documented.
ALLOWLIST: Tuple[Tuple[str, str], ...] = (
    # generate_keypair()'s fresh-key default; every corpus/test caller
    # passes an explicit seed, and the docstring flags the default.
    ("crypto/rsa.py", "random.Random()"),
    # The self-chaos harness *injects* crashes and hangs on purpose;
    # these two calls are its tested behaviour, gated on attempt
    # markers and confined to worker processes under supervision.
    ("runtime/chaos.py", "os._exit()"),
    ("runtime/chaos.py", "time.sleep()"),
    # now_s() is the runtime's one wall-clock read: it stamps worker
    # events and serves `repro cache gc --max-age`.  Socket leases live
    # on perf_counter, and timing never reaches content — results merge
    # by ticket into cache-keyed artifacts.
    ("runtime/dist.py", "time.time()"),
    # The socket transport's worker-side dial/backoff sleeps are the
    # same operational pacing: lease deadlines themselves live on the
    # coordinator's perf_counter (never compared across machines), and
    # timing never reaches content.
    ("runtime/sock.py", "time.sleep()"),
)

#: Banned (object, attribute) call pairs and why — derived from the
#: effect analyzer's seed table (:mod:`repro.analyze.effects`), so the
#: two static passes cannot drift.  Rules with ``determinism_ban=True``
#: there are exactly this checker's historical ban list.
_BANNED_ATTR_CALLS = banned_attr_call_messages()

#: Module-level random functions that use the global (unseeded) RNG.
_GLOBAL_RNG_FUNCS = GLOBAL_RNG_FUNCS


class Violation(NamedTuple):
    """One banned call site."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} — {self.message}"


def _dotted(node: ast.AST) -> Optional[List[str]]:
    """Flatten ``a.b.c`` into ``["a", "b", "c"]`` (None if not names)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


class _Checker(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.violations: List[Violation] = []
        #: Names bound by ``import random`` / ``import secrets`` —
        #: distinguishes ``random.choice(...)`` (global RNG, banned)
        #: from ``rng.choice(...)`` on a seeded instance (fine).
        self.module_names: set = set()
        #: Depth of enclosing ``__hash__`` definitions — the only place
        #: builtin ``hash()`` is deterministic *enough* (in-process).
        self._hash_method_depth = 0

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(self, node: ast.AST) -> None:
        is_hash = getattr(node, "name", "") == "__hash__"
        self._hash_method_depth += is_hash
        self.generic_visit(node)
        self._hash_method_depth -= is_hash

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.module_names.add(alias.asname or alias.name.split(".")[0])
        self.generic_visit(node)

    def _flag(self, node: ast.Call, code: str, message: str) -> None:
        self.violations.append(Violation(
            self.path, node.lineno, node.col_offset, code, message))

    def visit_Call(self, node: ast.Call) -> None:
        parts = _dotted(node.func)
        if parts:
            head, tail = parts[0], parts[-1]
            pair = (parts[-2], tail) if len(parts) >= 2 else None
            if pair in _BANNED_ATTR_CALLS:
                self._flag(node, ".".join(parts) + "()", _BANNED_ATTR_CALLS[pair])
            elif tail == "utcnow":
                self._flag(node, ".".join(parts) + "()", UTCNOW_MESSAGE)
            elif tail == "Random" and not node.args and not node.keywords:
                self._flag(node, ".".join(parts) + "()",
                           UNSEEDED_RANDOM_MESSAGE)
            elif (len(parts) == 2 and head == "random"
                  and head in self.module_names and tail in _GLOBAL_RNG_FUNCS):
                self._flag(node, ".".join(parts) + "()", GLOBAL_RNG_MESSAGE)
            elif head == "secrets" and head in self.module_names:
                self._flag(node, ".".join(parts) + "()", SECRETS_MESSAGE)
            elif (parts == ["hash"] and not self._hash_method_depth):
                self._flag(node, "hash()", HASH_MESSAGE)
        self.generic_visit(node)


def _allowed(violation: Violation) -> bool:
    normalized = violation.path.replace("\\", "/")
    return any(normalized.endswith(suffix) and violation.code == code
               for suffix, code in ALLOWLIST)


def scan_source(source: str, path: str) -> List[Violation]:
    """Scan one module's source text, applying the allowlist."""
    checker = _Checker(path)
    checker.visit(ast.parse(source, filename=path))
    return [v for v in checker.violations if not _allowed(v)]


def iter_python_files(root: Path) -> Iterator[Path]:
    """Every ``.py`` file under *root*, sorted for stable output."""
    yield from sorted(root.rglob("*.py"))


def scan_tree(root: Path) -> List[Violation]:
    """Scan a source tree."""
    violations: List[Violation] = []
    for path in iter_python_files(root):
        violations.extend(scan_source(path.read_text(), str(path)))
    return violations


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    default_root = Path(__file__).resolve().parent.parent / "src" / "repro"
    root = Path(argv[0]) if argv else default_root
    if not root.exists():
        print(f"determinism lint: no such tree: {root}", file=sys.stderr)
        return 2
    violations = scan_tree(root)
    for violation in violations:
        print(violation.render())
    count = len(list(iter_python_files(root)))
    if violations:
        print(f"determinism lint: {len(violations)} violation(s) "
              f"in {count} files")
        return 1
    print(f"determinism lint: {count} files clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
