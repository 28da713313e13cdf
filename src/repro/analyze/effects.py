"""The effect lattice, leaf-effect seed tables, and pragma grammar.

This module is the shared vocabulary of the effect analyzer:

* :class:`Effect` — the ten-member lattice of ambient interactions a
  function can have with the world outside its arguments;
* :data:`ATTR_CALL_RULES` / :data:`NAME_CALL_RULES` /
  :data:`METHOD_TAIL_RULES` — the leaf seeds: concrete call patterns
  that *introduce* an effect (everything else only propagates);
* the pragma grammar — ``# repro: allow-effect[EFFECT] -- why`` and
  ``# repro: allow-broad-except -- why`` — by which code declares an
  intentional effect and carries the burden of justifying it.

``tools/check_determinism.py`` derives its ban tables from the rules
flagged ``determinism_ban=True`` here, so the per-file checker and the
interprocedural analyzer share one source of truth and cannot drift:
the old tool's bans are, by construction, a subset of the analyzer's
seeds (the analyzer additionally seeds ``perf_counter``-family clocks,
environment reads, filesystem and process access, network primitives,
and global mutation — effects the per-file tool never modelled).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple


class Effect(enum.Enum):
    """One kind of ambient interaction; the lattice is their powerset."""

    WALL_CLOCK = "wall-clock"          # reading or pacing on real time
    AMBIENT_RNG = "ambient-rng"        # unseeded / global randomness
    OS_ENTROPY = "os-entropy"          # urandom, secrets, SystemRandom
    ENV = "env"                        # environment / machine identity
    FS_READ = "fs-read"                # reading files or directories
    FS_WRITE = "fs-write"              # creating/mutating the filesystem
    NETWORK = "network"                # sockets and real HTTP
    PROCESS = "process"                # spawning/killing/exiting processes
    GLOBAL_MUTATION = "global-mutation"  # writing module-level state
    HASH_ORDER = "hash-order"          # per-process randomized str hashing

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


#: Stable display order (declaration order of the lattice).
EFFECT_ORDER: Tuple[Effect, ...] = tuple(Effect)


def effect_sort_key(effect: Effect) -> int:
    """Index of *effect* in the canonical lattice order."""
    return EFFECT_ORDER.index(effect)


@dataclass(frozen=True)
class CallRule:
    """One leaf seed: calling ``{obj}.{attr}(...)`` has ``effect``.

    ``determinism_ban=True`` marks the rules the per-file determinism
    lint (``tools/check_determinism.py``) bans outright; its tables
    are generated from exactly these entries.
    """

    obj: str
    attr: str
    effect: Effect
    message: str
    determinism_ban: bool = False

    @property
    def pair(self) -> Tuple[str, str]:
        return (self.obj, self.attr)


_WALL_MSG = "wall-clock read; take a reference time argument"
_NATIVE_LOAD_MSG = ("native library load; what loads depends on the "
                    "machine's shared libraries")

#: ``obj.attr(...)`` leaf seeds, keyed on the last two dotted parts.
ATTR_CALL_RULES: Tuple[CallRule, ...] = (
    # -- the determinism lint's historical bans (order preserved) ----------
    CallRule("datetime", "now", Effect.WALL_CLOCK, _WALL_MSG, True),
    CallRule("datetime", "utcnow", Effect.WALL_CLOCK, _WALL_MSG, True),
    CallRule("date", "today", Effect.WALL_CLOCK, _WALL_MSG, True),
    CallRule("time", "time", Effect.WALL_CLOCK, _WALL_MSG, True),
    CallRule("time", "time_ns", Effect.WALL_CLOCK, _WALL_MSG, True),
    CallRule("time", "monotonic", Effect.WALL_CLOCK, _WALL_MSG, True),
    CallRule("random", "SystemRandom", Effect.OS_ENTROPY,
             "OS entropy; use a seeded random.Random", True),
    CallRule("os", "urandom", Effect.OS_ENTROPY,
             "OS entropy; use a seeded random.Random", True),
    CallRule("time", "sleep", Effect.WALL_CLOCK,
             "wall-clock pacing; use simulated time or "
             "deadline-based supervision", True),
    CallRule("os", "_exit", Effect.PROCESS,
             "skips interpreter cleanup; crash injection belongs "
             "in repro.runtime.chaos", True),
    # -- analyzer-only seeds (beyond the per-file tool's reach) ------------
    CallRule("time", "perf_counter", Effect.WALL_CLOCK,
             "timer read; timings are measurements, not content"),
    CallRule("time", "perf_counter_ns", Effect.WALL_CLOCK,
             "timer read; timings are measurements, not content"),
    CallRule("time", "monotonic_ns", Effect.WALL_CLOCK, _WALL_MSG),
    CallRule("time", "process_time", Effect.WALL_CLOCK,
             "timer read; timings are measurements, not content"),
    CallRule("time", "process_time_ns", Effect.WALL_CLOCK,
             "timer read; timings are measurements, not content"),
    CallRule("time", "thread_time", Effect.WALL_CLOCK,
             "timer read; timings are measurements, not content"),
    CallRule("time", "localtime", Effect.WALL_CLOCK, _WALL_MSG),
    CallRule("time", "gmtime", Effect.WALL_CLOCK, _WALL_MSG),
    CallRule("datetime", "today", Effect.WALL_CLOCK, _WALL_MSG),
    CallRule("uuid", "uuid1", Effect.WALL_CLOCK,
             "timestamp+MAC UUID; derive ids from repro.canon instead"),
    CallRule("uuid", "uuid4", Effect.OS_ENTROPY,
             "random UUID; derive ids from repro.canon instead"),
    CallRule("os", "getenv", Effect.ENV,
             "environment read; pass configuration explicitly"),
    CallRule("os", "putenv", Effect.ENV, "environment write"),
    CallRule("os", "unsetenv", Effect.ENV, "environment write"),
    CallRule("environ", "get", Effect.ENV,
             "environment read; pass configuration explicitly"),
    CallRule("environ", "setdefault", Effect.ENV, "environment write"),
    CallRule("os", "getlogin", Effect.ENV, "machine-identity read"),
    CallRule("getpass", "getuser", Effect.ENV, "machine-identity read"),
    CallRule("platform", "node", Effect.ENV, "machine-identity read"),
    CallRule("socket", "gethostname", Effect.ENV, "machine-identity read"),
    CallRule("os", "getcwd", Effect.ENV,
             "working-directory read; pass paths explicitly"),
    CallRule("ctypes", "CDLL", Effect.ENV, _NATIVE_LOAD_MSG),
    CallRule("ctypes", "PyDLL", Effect.ENV, _NATIVE_LOAD_MSG),
    CallRule("os", "listdir", Effect.FS_READ, "directory read"),
    CallRule("os", "scandir", Effect.FS_READ, "directory read"),
    CallRule("os", "walk", Effect.FS_READ, "directory read"),
    CallRule("os", "stat", Effect.FS_READ, "file metadata read"),
    CallRule("os", "lstat", Effect.FS_READ, "file metadata read"),
    CallRule("path", "exists", Effect.FS_READ, "file probe"),
    CallRule("path", "isfile", Effect.FS_READ, "file probe"),
    CallRule("path", "isdir", Effect.FS_READ, "file probe"),
    CallRule("path", "getsize", Effect.FS_READ, "file metadata read"),
    CallRule("path", "getmtime", Effect.FS_READ, "file metadata read"),
    CallRule("path", "expanduser", Effect.ENV, "home-directory read"),
    CallRule("os", "makedirs", Effect.FS_WRITE, "directory write"),
    CallRule("os", "mkdir", Effect.FS_WRITE, "directory write"),
    CallRule("os", "rmdir", Effect.FS_WRITE, "directory write"),
    CallRule("os", "removedirs", Effect.FS_WRITE, "directory write"),
    CallRule("os", "remove", Effect.FS_WRITE, "file delete"),
    CallRule("os", "unlink", Effect.FS_WRITE, "file delete"),
    CallRule("os", "rename", Effect.FS_WRITE, "file write"),
    CallRule("os", "replace", Effect.FS_WRITE, "file write"),
    CallRule("os", "symlink", Effect.FS_WRITE, "file write"),
    CallRule("os", "link", Effect.FS_WRITE, "file write"),
    CallRule("os", "chmod", Effect.FS_WRITE, "file metadata write"),
    CallRule("os", "utime", Effect.FS_WRITE, "file metadata write"),
    CallRule("os", "truncate", Effect.FS_WRITE, "file write"),
    CallRule("os", "fdopen", Effect.FS_READ, "file handle open"),
    CallRule("shutil", "rmtree", Effect.FS_WRITE, "tree delete"),
    CallRule("shutil", "copy", Effect.FS_WRITE, "file copy"),
    CallRule("shutil", "copy2", Effect.FS_WRITE, "file copy"),
    CallRule("shutil", "copyfile", Effect.FS_WRITE, "file copy"),
    CallRule("shutil", "copytree", Effect.FS_WRITE, "tree copy"),
    CallRule("shutil", "move", Effect.FS_WRITE, "file move"),
    CallRule("tempfile", "mkdtemp", Effect.FS_WRITE, "tempdir create"),
    CallRule("tempfile", "mkstemp", Effect.FS_WRITE, "tempfile create"),
    CallRule("tempfile", "TemporaryDirectory", Effect.FS_WRITE,
             "tempdir create"),
    CallRule("tempfile", "NamedTemporaryFile", Effect.FS_WRITE,
             "tempfile create"),
    CallRule("socket", "socket", Effect.NETWORK, "raw socket"),
    CallRule("socket", "create_connection", Effect.NETWORK, "raw socket"),
    CallRule("socket", "getaddrinfo", Effect.NETWORK, "DNS lookup"),
    CallRule("socket", "gethostbyname", Effect.NETWORK, "DNS lookup"),
    CallRule("request", "urlopen", Effect.NETWORK, "real HTTP request"),
    CallRule("client", "HTTPConnection", Effect.NETWORK,
             "real HTTP connection"),
    CallRule("client", "HTTPSConnection", Effect.NETWORK,
             "real HTTP connection"),
    CallRule("subprocess", "run", Effect.PROCESS, "child process"),
    CallRule("subprocess", "Popen", Effect.PROCESS, "child process"),
    CallRule("subprocess", "call", Effect.PROCESS, "child process"),
    CallRule("subprocess", "check_call", Effect.PROCESS, "child process"),
    CallRule("subprocess", "check_output", Effect.PROCESS, "child process"),
    CallRule("os", "system", Effect.PROCESS, "child process"),
    CallRule("os", "popen", Effect.PROCESS, "child process"),
    CallRule("os", "fork", Effect.PROCESS, "process fork"),
    CallRule("os", "kill", Effect.PROCESS, "signal send"),
    CallRule("os", "waitpid", Effect.PROCESS, "child wait"),
    CallRule("os", "abort", Effect.PROCESS, "process abort"),
    CallRule("multiprocessing", "Pool", Effect.PROCESS, "process pool"),
    CallRule("multiprocessing", "Process", Effect.PROCESS, "child process"),
    CallRule("multiprocessing", "get_context", Effect.PROCESS,
             "process pool"),
    CallRule("signal", "signal", Effect.PROCESS, "signal handler install"),
    CallRule("signal", "alarm", Effect.PROCESS, "wall-clock alarm"),
)

#: ``(obj, attr) -> rule`` lookup.
ATTR_CALL_INDEX: Dict[Tuple[str, str], CallRule] = {
    rule.pair: rule for rule in ATTR_CALL_RULES}

#: Module-level ``random.*`` functions that use the global unseeded RNG
#: (a determinism-lint ban; effect AMBIENT_RNG).
GLOBAL_RNG_FUNCS: FrozenSet[str] = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "getrandbits", "uniform", "gauss", "betavariate", "seed",
})

#: Messages for the pattern rules that need code, not a table lookup.
#: The determinism lint reuses these verbatim.
GLOBAL_RNG_MESSAGE = "global unseeded RNG; use a seeded random.Random"
UNSEEDED_RANDOM_MESSAGE = "unseeded RNG; pass an explicit seed"
UTCNOW_MESSAGE = _WALL_MSG
SECRETS_MESSAGE = "OS entropy; use a seeded random.Random"
HASH_MESSAGE = "randomized per process; use repro.canon.stable_seed"
GLOBAL_MUTATION_MESSAGE = ("mutates module-level state; thread it "
                           "through arguments or justify the memo")
OPEN_READ_MESSAGE = "file read"
OPEN_WRITE_MESSAGE = "file write"
INPUT_MESSAGE = "interactive read"

#: Bare-name call seeds (builtins).  ``open`` is handled in code (its
#: effect depends on the mode argument); ``hash`` is handled in code
#: (allowed inside ``__hash__``).
NAME_CALL_RULES: Dict[str, Tuple[Effect, str]] = {
    "input": (Effect.ENV, INPUT_MESSAGE),
}

#: Method-name seeds applied to *any* receiver when the two-part pair
#: lookup misses — the pathlib idiom (``some_path.read_text()``).
#: Deliberately conservative: only names that unambiguously touch the
#: filesystem or load a native library (``ctypes.cdll.LoadLibrary``) no
#: matter the receiver type.
METHOD_TAIL_RULES: Dict[str, Tuple[Effect, str]] = {
    "read_text": (Effect.FS_READ, "file read"),
    "read_bytes": (Effect.FS_READ, "file read"),
    "write_text": (Effect.FS_WRITE, "file write"),
    "write_bytes": (Effect.FS_WRITE, "file write"),
    "iterdir": (Effect.FS_READ, "directory read"),
    "rglob": (Effect.FS_READ, "directory read"),
    "glob": (Effect.FS_READ, "directory read"),
    "touch": (Effect.FS_WRITE, "file write"),
    "hardlink_to": (Effect.FS_WRITE, "file write"),
    "symlink_to": (Effect.FS_WRITE, "file write"),
    "LoadLibrary": (Effect.ENV, _NATIVE_LOAD_MSG),
}

#: Mutator methods that, called on a module-level name, constitute
#: global mutation.
MUTATOR_METHODS: FrozenSet[str] = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "clear", "remove", "discard", "sort",
})


def banned_attr_call_messages() -> Dict[Tuple[str, str], str]:
    """The determinism lint's ban table, derived from the seed rules.

    Exactly the ``determinism_ban=True`` entries — the historical
    ``_BANNED_ATTR_CALLS`` of ``tools/check_determinism.py``, which now
    imports this function so the two tools cannot drift.
    """
    return {rule.pair: rule.message
            for rule in ATTR_CALL_RULES if rule.determinism_ban}


# ---------------------------------------------------------------------------
# pragma grammar
# ---------------------------------------------------------------------------

#: Grammar (written after a comment hash in real code):
#: ``repro: allow-effect[WALL_CLOCK,FS_READ] -- justification``
#: ``repro: allow-broad-except -- justification``
PRAGMA_PATTERN = re.compile(
    r"#\s*repro:\s*allow-(?P<check>effect|broad-except)"
    r"(?:\[(?P<args>[^\]]*)\])?"
    r"\s*(?:--\s*(?P<why>\S.*))?\s*$")

#: Loose detector for things that *look like* pragmas but fail the
#: grammar (so typos become findings instead of silent no-ops).
PRAGMA_LOOKALIKE = re.compile(r"#\s*repro:\s*allow-\S*")


@dataclass(frozen=True)
class Pragma:
    """One parsed suppression comment."""

    line: int
    check: str                      # "effect" | "broad-except"
    effects: Tuple[Effect, ...]     # empty for broad-except
    justification: str
    text: str


#: The grant under which a call on a module-level ``BoundedMemo``
#: (``<package>.memo``) is recorded as an allowed GLOBAL_MUTATION:
#: memo fills stay listed, pragma-free.
MEMO_GRANT = Pragma(0, "effect", (Effect.GLOBAL_MUTATION,), (
    "bounded memo of a pure function of its key; a hit returns the "
    "value a rebuild would give"), "BoundedMemo")


@dataclass(frozen=True)
class PragmaIssue:
    """A malformed or unjustified pragma (itself a finding)."""

    line: int
    code: str                       # "unjustified" | "unknown"
    message: str
    text: str


@dataclass
class PragmaTable:
    """All pragmas of one module, with lookup by line."""

    pragmas: Dict[int, Pragma] = field(default_factory=dict)
    issues: List[PragmaIssue] = field(default_factory=list)
    used: set = field(default_factory=set)

    def grant(self, line: int, def_line: Optional[int],
              effect: Effect) -> Optional[Pragma]:
        """The pragma allowing *effect* at *line*, if any.

        Looks at the offending line first, then at the enclosing
        ``def`` line (a function-level grant).  Marks the pragma used.
        """
        for candidate in (line, def_line):
            if candidate is None:
                continue
            pragma = self.pragmas.get(candidate)
            if (pragma is not None and pragma.check == "effect"
                    and effect in pragma.effects):
                self.used.add(candidate)
                return pragma
        return None

    def grant_broad_except(self, line: int,
                           def_line: Optional[int]) -> Optional[Pragma]:
        """The pragma allowing a broad except at *line*, if any."""
        for candidate in (line, def_line):
            if candidate is None:
                continue
            pragma = self.pragmas.get(candidate)
            if pragma is not None and pragma.check == "broad-except":
                self.used.add(candidate)
                return pragma
        return None

    def unused(self) -> List[Pragma]:
        """Pragmas that suppressed nothing (stale grants)."""
        return [pragma for line, pragma in sorted(self.pragmas.items())
                if line not in self.used]


def _comment_tokens(source: str) -> List[Tuple[int, str]]:
    """(line, text) of every real comment token in *source*.

    Tokenizing (rather than line-scanning) keeps pragma *examples*
    inside docstrings and string literals from parsing as pragmas.
    """
    import io
    import tokenize
    comments: List[Tuple[int, str]] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return comments


def parse_pragmas(source: str) -> PragmaTable:
    """Extract every ``# repro: allow-*`` pragma from *source*.

    A pragma without a ``-- justification`` tail, or naming an unknown
    effect, is recorded as an issue — unexplained suppressions are
    exactly what the analyzer exists to forbid.
    """
    table = PragmaTable()
    for lineno, text in _comment_tokens(source):
        match = PRAGMA_PATTERN.search(text)
        if match is None:
            lookalike = PRAGMA_LOOKALIKE.search(text)
            if lookalike is not None:
                table.issues.append(PragmaIssue(
                    lineno, "unknown",
                    f"unrecognized pragma {lookalike.group(0)!r} (grammar: "
                    f"'# repro: allow-effect[EFFECT] -- justification')",
                    text.strip()))
            continue
        check = match.group("check")
        args = match.group("args")
        why = (match.group("why") or "").strip()
        effects: List[Effect] = []
        bad = False
        if check == "effect":
            names = [part.strip() for part in (args or "").split(",")
                     if part.strip()]
            if not names:
                table.issues.append(PragmaIssue(
                    lineno, "unknown",
                    "allow-effect pragma names no effect "
                    "(write allow-effect[WALL_CLOCK])", text.strip()))
                bad = True
            for name in names:
                try:
                    effects.append(Effect[name])
                except KeyError:
                    known = ", ".join(e.name for e in EFFECT_ORDER)
                    table.issues.append(PragmaIssue(
                        lineno, "unknown",
                        f"unknown effect {name!r} (known: {known})",
                        text.strip()))
                    bad = True
        elif args is not None:
            table.issues.append(PragmaIssue(
                lineno, "unknown",
                "allow-broad-except takes no [...] arguments",
                text.strip()))
            bad = True
        if not why:
            table.issues.append(PragmaIssue(
                lineno, "unjustified",
                f"pragma 'allow-{check}' has no '-- justification'; "
                f"unexplained suppressions are findings", text.strip()))
            bad = True
        if not bad:
            table.pragmas[lineno] = Pragma(
                lineno, check, tuple(effects), why, text.strip())
    return table
