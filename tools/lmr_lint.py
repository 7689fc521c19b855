#!/usr/bin/env python3
"""Project-specific static lint for the LMR tree.

Rules (each one guards an invariant the compiler cannot see):

  clock          No wall-clock or monotonic-clock reads outside the timing
                 shim (src/core/clock.hpp), and no nondeterministic RNG
                 anywhere: std::chrono::{steady,system,high_resolution}_clock,
                 time()/gettimeofday/clock_gettime, rand/srand/random_device.
                 Seeded mt19937 engines are fine — the ban is on entropy and
                 wall time, not on deterministic pseudo-randomness. This is
                 what keeps "same seeds => same tracked bytes" machine-checked.

  atomic-order   Every atomic operation in src/exec/ must spell its
                 std::memory_order explicitly; the lock-free deque and pool
                 are correctness-reviewed against the published orderings,
                 and a bare .load()/.store() (seq_cst by default) hides the
                 reviewer-relevant intent. ++/--/+=/-= on atomics are banned
                 outright for the same reason.

  layout-state   Layout's journaled state may only change inside recorded
                 mutators: every Layout member function that writes a
                 journaled container must call record() or check_mutable(),
                 and nobody may const_cast a Layout to sidestep that.

  cast           reinterpret_cast / const_cast anywhere in the tree must
                 carry an explicit invariant comment with a suppression
                 marker — casts are where the type system stops helping.

  fault-sites    Fault-plan site-key string literals must parse under the
                 site grammar produced by the builders in
                 src/fault/fault_plan.cpp (extend:<scope>/g<N>/m<N>,
                 sweep:<scope>/g<N>, session:apply:<scope>, '*' globs), so a
                 typo'd site key fails CI instead of silently never firing.

Suppression: a comment containing `lmr-lint: allow(<rule>)` on the same
line (or the line immediately above) silences that rule for that line.

Usage:
    lmr_lint.py [--root DIR] [PATH...]   # default scan: src tests bench
    lmr_lint.py --self-test              # run the fixture suite
Exit status: 0 clean, 1 violations, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

CXX_SUFFIXES = {".cpp", ".hpp", ".h", ".cc", ".hh"}

ALLOW_RE = re.compile(r"lmr-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class SourceFile:
    """A C++ source with comment/string-stripped shadow text.

    `code[i]` matches `raw[i]` byte for byte except that comment and string
    *contents* are blanked (newlines kept), so token scans never fire on
    prose or literals while line numbers stay aligned. String literals are
    preserved separately for the rules that inspect them.
    """

    def __init__(self, path: Path, text: str):
        self.path = path
        self.raw = text
        self.lines = text.splitlines()
        self.allow = self._collect_allows()
        self.code = self._strip(text)
        self.code_lines = self.code.splitlines()

    def _collect_allows(self):
        allow = {}
        for i, line in enumerate(self.lines, start=1):
            m = ALLOW_RE.search(line)
            if m:
                rules = {r.strip() for r in m.group(1).split(",")}
                allow.setdefault(i, set()).update(rules)
        return allow

    def allowed(self, lineno: int, rule: str) -> bool:
        return rule in self.allow.get(lineno, ()) or rule in self.allow.get(
            lineno - 1, ()
        )

    @staticmethod
    def _strip(text: str) -> str:
        out = []
        i, n = 0, len(text)
        while i < n:
            c = text[i]
            nxt = text[i + 1] if i + 1 < n else ""
            if c == "/" and nxt == "/":
                while i < n and text[i] != "\n":
                    out.append(" ")
                    i += 1
            elif c == "/" and nxt == "*":
                out.append("  ")
                i += 2
                while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
                if i < n:
                    out.append("  ")
                    i += 2
            elif c in "\"'":
                quote = c
                out.append(c)
                i += 1
                while i < n and text[i] != quote:
                    if text[i] == "\\" and i + 1 < n:
                        out.append("  ")
                        i += 2
                    else:
                        out.append("\n" if text[i] == "\n" else " ")
                        i += 1
                if i < n:
                    out.append(quote)
                    i += 1
            else:
                out.append(c)
                i += 1
        return "".join(out)

    def string_literals(self):
        """Yield (lineno, literal_contents) for every double-quoted literal."""
        lineno = 1
        i, n = 0, len(self.raw)
        while i < n:
            c = self.raw[i]
            if c == "\n":
                lineno += 1
                i += 1
            elif c == "/" and i + 1 < n and self.raw[i + 1] == "/":
                while i < n and self.raw[i] != "\n":
                    i += 1
            elif c == "/" and i + 1 < n and self.raw[i + 1] == "*":
                i += 2
                while i < n and not self.raw.startswith("*/", i):
                    if self.raw[i] == "\n":
                        lineno += 1
                    i += 1
                i += 2
            elif c == '"':
                start_line = lineno
                i += 1
                buf = []
                while i < n and self.raw[i] != '"':
                    if self.raw[i] == "\\" and i + 1 < n:
                        buf.append(self.raw[i : i + 2])
                        i += 2
                    else:
                        if self.raw[i] == "\n":
                            lineno += 1
                        buf.append(self.raw[i])
                        i += 1
                i += 1
                yield start_line, "".join(buf)
            elif c == "'":
                i += 1
                while i < n and self.raw[i] != "'":
                    i += 2 if self.raw[i] == "\\" else 1
                i += 1
            else:
                i += 1


# --------------------------------------------------------------------------
# Rule: clock
# --------------------------------------------------------------------------

CLOCK_SHIM = Path("src") / "core" / "clock.hpp"

CLOCK_TOKENS = re.compile(
    r"\b(steady_clock|system_clock|high_resolution_clock|gettimeofday"
    r"|clock_gettime|timespec_get|localtime|gmtime(?:_r)?"
    r"|random_device|srand|rand)\b"
)
# `rand` must be a call (or std::rand) — not a substring guard; the \b above
# already excludes mt19937 etc. But `operator` overloads named rand don't
# exist here, so a bare match is enough.


def check_clock(sf: SourceFile, rel: Path):
    if rel == CLOCK_SHIM:
        return
    for i, line in enumerate(sf.code_lines, start=1):
        for m in CLOCK_TOKENS.finditer(line):
            if sf.allowed(i, "clock"):
                continue
            yield Violation(
                rel,
                i,
                "clock",
                f"'{m.group(1)}' outside the timing shim "
                f"(route through src/core/clock.hpp)",
            )


# --------------------------------------------------------------------------
# Rule: atomic-order
# --------------------------------------------------------------------------

ATOMIC_OPS = re.compile(
    r"\.\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or"
    r"|fetch_xor|compare_exchange_weak|compare_exchange_strong|test_and_set"
    r"|clear|wait|notify_one|notify_all)\s*\("
)
ORDER_FREE_OPS = {"notify_one", "notify_all"}  # take no order argument
ATOMIC_DECL = re.compile(r"\batomic\s*<[^;{}]*>\s+(\w+)")
ATOMIC_RMW_SUGAR = re.compile(r"(\+\+|--|\+=|-=|\|=|&=|\^=)")


def _call_argument_span(text: str, open_paren: int):
    """Return the argument substring of the call starting at `open_paren`."""
    depth = 0
    for j in range(open_paren, len(text)):
        if text[j] == "(":
            depth += 1
        elif text[j] == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren + 1 : j]
    return text[open_paren + 1 :]


def check_atomic_order(sf: SourceFile, rel: Path):
    # Scope: the lock-free executor sources (src/exec/). Tests may use the
    # default seq_cst sugar freely — only the reviewed implementation must
    # spell its orderings. Fixtures opt in via their exec/ subdirectory.
    parts = rel.parts
    if "exec" not in parts:
        return
    if parts and parts[0] == "tests" and "fixtures" not in parts:
        return
    atomics = set(ATOMIC_DECL.findall(sf.code))
    # Operation calls missing an explicit memory_order argument.
    for m in ATOMIC_OPS.finditer(sf.code):
        op = m.group(1)
        if op in ORDER_FREE_OPS:
            continue
        # Only check calls on known atomic members/locals: the receiver token
        # immediately before the dot must be a declared atomic (or end in an
        # atomic's name) — keeps vector::clear() etc. out of scope.
        recv = re.search(r"(\w+)\s*$", sf.code[: m.start()])
        if recv is None or recv.group(1) not in atomics:
            continue
        args = _call_argument_span(sf.code, sf.code.index("(", m.end() - 1))
        lineno = sf.code.count("\n", 0, m.start()) + 1
        if "memory_order" in args:
            continue
        if sf.allowed(lineno, "atomic-order"):
            continue
        yield Violation(
            rel,
            lineno,
            "atomic-order",
            f"atomic .{op}() without an explicit std::memory_order",
        )
    # Operator sugar on declared atomics (x++, x += …): always implicit
    # seq_cst, always banned in exec code.
    for name in atomics:
        for m in re.finditer(
            rf"(\b{re.escape(name)}\s*(\+\+|--|\+=|-=|\|=|&=|\^=))"
            rf"|((\+\+|--)\s*{re.escape(name)}\b)",
            sf.code,
        ):
            lineno = sf.code.count("\n", 0, m.start()) + 1
            if sf.allowed(lineno, "atomic-order"):
                continue
            yield Violation(
                rel,
                lineno,
                "atomic-order",
                f"operator form on atomic '{name}' hides its memory order",
            )


# --------------------------------------------------------------------------
# Rule: layout-state
# --------------------------------------------------------------------------

JOURNALED_MEMBERS = (
    "board_",
    "obstacles_",
    "traces_",
    "pairs_",
    "groups_",
    "areas_",
    "next_id_",
)
# Rebuild/bookkeeping paths that legitimately write members without
# journaling: whole-object assignment and the journal machinery itself.
LAYOUT_EXEMPT_FNS = {"assign", "record", "check_mutable", "Layout", "operator="}
LAYOUT_FN_DEF = re.compile(r"\bLayout::(~?\w+|operator=?[^\s(]*)\s*\([^;]*?\)[^;{]*\{")
CONST_CAST_LAYOUT = re.compile(r"const_cast\s*<[^>]*\bLayout\b[^>]*>")


def _function_body(text: str, brace: int) -> str:
    depth = 0
    for j in range(brace, len(text)):
        if text[j] == "{":
            depth += 1
        elif text[j] == "}":
            depth -= 1
            if depth == 0:
                return text[brace : j + 1]
    return text[brace:]


def check_layout_state(sf: SourceFile, rel: Path):
    # (a) Everywhere: const_cast-ing a Layout launders the recorded-mutator
    # discipline away; there is no good reason to ever do it.
    for m in CONST_CAST_LAYOUT.finditer(sf.code):
        lineno = sf.code.count("\n", 0, m.start()) + 1
        if sf.allowed(lineno, "layout-state"):
            continue
        yield Violation(
            rel,
            lineno,
            "layout-state",
            "const_cast on a Layout bypasses the recorded-mutator journal",
        )
    # (b) In any file with out-of-class Layout member definitions (the
    # implementation): a member function that writes a journaled container
    # must be a recorded mutator.
    # A write is an assignment (plain or through an index) or a mutating
    # container call; bare indexing/.at() reads don't count.
    writer = re.compile(
        r"\b(" + "|".join(JOURNALED_MEMBERS) + r")\s*(\[[^\]]*\]\s*)?"
        r"(=[^=]|\.\s*(push_back|emplace|emplace_back|erase|insert|clear|pop_back)\s*\()"
    )
    for m in LAYOUT_FN_DEF.finditer(sf.code):
        name = m.group(1)
        if name in LAYOUT_EXEMPT_FNS or name.startswith("~"):
            continue
        body = _function_body(sf.code, m.end() - 1)
        w = writer.search(body)
        if w is None:
            continue
        if "record(" in body or "check_mutable(" in body:
            continue
        lineno = sf.code.count("\n", 0, m.start()) + 1
        if sf.allowed(lineno, "layout-state"):
            continue
        yield Violation(
            rel,
            lineno,
            "layout-state",
            f"Layout::{name} writes journaled state ('{w.group(1)}') without "
            f"record()/check_mutable()",
        )


# --------------------------------------------------------------------------
# Rule: cast
# --------------------------------------------------------------------------

RAW_CAST = re.compile(r"\b(reinterpret_cast|const_cast)\s*<")


def check_cast(sf: SourceFile, rel: Path):
    for i, line in enumerate(sf.code_lines, start=1):
        for m in RAW_CAST.finditer(line):
            if sf.allowed(i, "cast"):
                continue
            yield Violation(
                rel,
                i,
                "cast",
                f"{m.group(1)} requires an invariant comment with "
                f"'lmr-lint: allow(cast)'",
            )


# --------------------------------------------------------------------------
# Rule: fault-sites
# --------------------------------------------------------------------------

FAULT_REGISTRY = Path("src") / "fault" / "fault_plan.cpp"
SITE_PREFIX = re.compile(r"^(extend|sweep|session):")
SITE_GRAMMAR = [
    re.compile(r"^extend:[^/\s]+/g\d+/m\d+$"),
    re.compile(r"^sweep:[^/\s]+/g\d+$"),
    re.compile(r"^session:apply:[^\s/]+$"),
    # Glob patterns: a site prefix followed by a '*' tail is how plans
    # target families of sites ("extend:sess/*", "session:apply:*").
    re.compile(r"^(extend|sweep|session:apply):[^\s]*\*$"),
]


def check_fault_sites(sf: SourceFile, rel: Path):
    is_registry = rel == FAULT_REGISTRY
    for lineno, lit in sf.string_literals():
        if not SITE_PREFIX.match(lit):
            continue
        # The registry builds keys from bare prefixes; only it may hold them.
        if is_registry and lit in ("extend:", "sweep:", "session:apply:"):
            continue
        if any(g.match(lit) for g in SITE_GRAMMAR):
            continue
        if sf.allowed(lineno, "fault-sites"):
            continue
        yield Violation(
            rel,
            lineno,
            "fault-sites",
            f'"{lit}" does not parse as a fault site '
            f"(extend:<scope>/g<N>/m<N> | sweep:<scope>/g<N> | "
            f"session:apply:<scope> | <prefix>…*)",
        )


def check_fault_registry(root: Path):
    """The builders the grammar mirrors must still exist in the registry."""
    path = root / FAULT_REGISTRY
    if not path.is_file():
        yield Violation(FAULT_REGISTRY, 1, "fault-sites", "fault-plan registry missing")
        return
    text = path.read_text(encoding="utf-8", errors="replace")
    for builder, prefix in (
        ("extend_site", '"extend:"'),
        ("sweep_site", '"sweep:"'),
        ("apply_site", '"session:apply:"'),
    ):
        if builder not in text or prefix not in text:
            yield Violation(
                FAULT_REGISTRY,
                1,
                "fault-sites",
                f"site builder {builder} / prefix {prefix} missing from the "
                f"registry — grammar and builders drifted apart",
            )


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

PER_FILE_RULES = (
    check_clock,
    check_atomic_order,
    check_layout_state,
    check_cast,
    check_fault_sites,
)


def lint_file(path: Path, rel: Path):
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as e:
        return [Violation(rel, 0, "io", str(e))]
    sf = SourceFile(path, text)
    out = []
    for rule in PER_FILE_RULES:
        out.extend(rule(sf, rel))
    return out


def iter_sources(root: Path, targets):
    for t in targets:
        p = (root / t) if not Path(t).is_absolute() else Path(t)
        if p.is_file():
            yield p
        elif p.is_dir():
            yield from sorted(
                q
                for q in p.rglob("*")
                if q.suffix in CXX_SUFFIXES
                and q.is_file()
                # The lint fixtures are violations on purpose; only the
                # self-test reads them.
                and "fixtures" not in q.parts
            )


def run_lint(root: Path, targets):
    violations = []
    for path in iter_sources(root, targets):
        try:
            rel = path.relative_to(root)
        except ValueError:
            rel = path
        violations.extend(lint_file(path, rel))
    violations.extend(check_fault_registry(root))
    return violations


# --------------------------------------------------------------------------
# Self-test over fixtures
# --------------------------------------------------------------------------

FIXTURES = Path("tests") / "tools" / "fixtures"


def self_test(root: Path) -> int:
    fixture_dir = root / FIXTURES
    if not fixture_dir.is_dir():
        print(f"self-test: fixture directory missing: {fixture_dir}", file=sys.stderr)
        return 2
    failures = 0
    for path in sorted(fixture_dir.rglob("bad_*")):
        # bad_<rule>[__variant].<ext> must trigger at least one <rule> hit.
        rule = path.stem[len("bad_") :].split("__")[0].replace("_", "-")
        hits = [v for v in lint_file(path, path.relative_to(root)) if v.rule == rule]
        if not hits:
            print(f"self-test FAIL: {path.name}: rule '{rule}' did not fire")
            failures += 1
        else:
            print(f"self-test ok: {path.name}: {len(hits)} x {rule}")
    for path in sorted(fixture_dir.rglob("good_*")):
        hits = lint_file(path, path.relative_to(root))
        if hits:
            for v in hits:
                print(f"self-test FAIL: {path.name}: unexpected {v}")
            failures += 1
        else:
            print(f"self-test ok: {path.name}: clean")
    # The repo-level cross-check must pass on the live tree.
    for v in check_fault_registry(root):
        print(f"self-test FAIL: live tree: {v}")
        failures += 1
    if failures:
        print(f"self-test: {failures} failure(s)", file=sys.stderr)
        return 1
    print("self-test: all fixtures behaved")
    return 0


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("targets", nargs="*", default=None)
    ap.add_argument("--root", default=None, help="repo root (default: script/../)")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    root = Path(args.root).resolve() if args.root else Path(__file__).resolve().parent.parent
    if args.self_test:
        return self_test(root)
    targets = args.targets or ["src", "tests", "bench"]
    violations = run_lint(root, targets)
    for v in violations:
        print(v)
    if violations:
        print(f"{len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
