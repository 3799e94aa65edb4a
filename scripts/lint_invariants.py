#!/usr/bin/env python3
"""Repo-invariant linter: one place for the conventions that keep the
codebase analyzable but that neither the compiler nor clang-tidy checks.

Rules (each with an explicit, reasoned allowlist):

  raw-mutex        Concurrency primitives outside src/util/ must go
                   through util::Mutex / util::MutexLock / util::CondVar
                   (src/util/mutex.h) so every lock site carries Clang
                   thread-safety annotations. A naked std::mutex is
                   invisible to -Wthread-safety.
  naked-new       src/core is pool-managed memory (core/item_pool.h):
                   item blocks come from ItemPool, everything else from
                   standard containers / smart pointers. A naked
                   new/delete there is either a leak-in-waiting or an
                   allocation the pool accounting can't see. Placement
                   new is allowed (it constructs into pool memory).
  result-api       Fallible public APIs in src/core and src/serve
                   headers return util::Result<T> / Status, not bool —
                   a bool loses the reason and invites unchecked calls.
                   Boolean *answers* (Apply's "did it change", Answer,
                   Contains) are not fallible and are out of scope: the
                   rule keys on constructor-ish verb prefixes.
  no-assert        DYNCQ_CHECK / DYNCQ_DCHECK (util/check.h), never
                   assert(): checks must throw (the fault-injection
                   tests catch them) and must not vanish under NDEBUG
                   in release builds. static_assert is fine.
  no-ambient-rng   rand()/srand()/time()/std::random_device make runs
                   irreproducible. Workload generators (src/workload/)
                   own seeded deterministic RNGs; everything else takes
                   seeds or data as parameters.
  include-hygiene  In-repo headers are included as `#include "dir/file.h"`,
                   repo-relative from src/ — never with `../`/`./` path
                   hops (they break when a file moves) and never with a
                   bare same-directory name (ambiguous under -I). Angle
                   brackets are reserved for system/third-party headers,
                   so an angle include of a repo directory is a layering
                   smell.
  header-guard     Headers under src/ carry a named include guard
                   DYNCQ_<PATH>_H_ (e.g. src/core/cursor.h ->
                   DYNCQ_CORE_CURSOR_H_), not `#pragma once`: the name
                   encodes the canonical path, so a stale copy or a
                   wrong-directory include shows up as a guard mismatch
                   here instead of silent double-inclusion weirdness.
  nodiscard-result Functions returning util::Result<T> / Status declared
                   in src/ headers carry [[nodiscard]]: a silently
                   dropped Result is an ignored failure (exactly the bug
                   class Result exists to prevent), and the attribute
                   turns the drop into a compiler warning at every call
                   site. CursorStatus (a streaming enum, legitimately
                   consumed in loops) is out of scope.
  parse-path-check Files that decode user-controlled input (the cq
                   parse path) must not contain DYNCQ_CHECK/DYNCQ_DCHECK:
                   malformed input is a typed util::Result error, never
                   an abort — a reachable CHECK is a fuzzer-findable
                   crash (and a DCHECK compiles away into UB-adjacent
                   behavior in release).
  no-aligned-alloc src/ never requests over-aligned heap memory:
                   std::align_val_t, aligned_alloc, posix_memalign and
                   memalign are banned. glibc serves such a request by
                   trimming a larger chunk and freeing the small
                   remainders, which pile up in the fastbins; the next
                   allocation of 1 KiB or more — a copy-on-write block
                   copy inside a timed write under a pin — first pays to
                   consolidate all of them. Plain operator new's 16-byte
                   alignment is enough for every table in the engine.
  stored-item-ptr  src/core headers must not declare stored `Item*`
                   state — no pointer members, no containers of Item*.
                   Items live in the hive ItemPool and are named by
                   generation-checked ItemHandles (core/handle.h);
                   a stored raw pointer dodges the generation check and
                   resurrects the use-after-free class the handles
                   exist to kill. Transient locals in .cc files are out
                   of scope (they are resolved from a handle and die
                   within the call).

Usage:
  python3 scripts/lint_invariants.py [--root DIR]

Exits 0 when clean, 1 with one "path:line: [rule] message" per finding.
tests/scripts/lint_invariants_selftest.py unit-tests every rule against
inline pass/fail fixtures; CI and ctest run both (see CMakeLists.txt).
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from typing import Callable, NamedTuple


class Violation(NamedTuple):
    path: str  # repo-relative, '/'-separated
    line: int  # 1-based
    rule: str
    message: str


def strip_code(text: str) -> str:
    """Blanks out comments and string/char literals, preserving line
    structure, so rule regexes only ever see code. (A lexer-shaped
    regex pass, not a C++ parser — good enough for these rules.)"""

    def blank(m: re.Match) -> str:
        s = m.group(0)
        if s.startswith("//"):
            return ""
        if s.startswith("/*"):
            # Keep newlines so line numbers survive.
            return "".join(c if c == "\n" else " " for c in s)
        return '""' if s.startswith('"') else "' '"

    pattern = re.compile(
        r'//[^\n]*'
        r'|/\*.*?\*/'
        r'|"(?:[^"\\\n]|\\.)*"'
        r"|'(?:[^'\\\n]|\\.)*'",
        re.DOTALL,
    )
    return pattern.sub(blank, text)


# ---------------------------------------------------------------- rules
#
# A rule is (name, applies(path) predicate, check(path, stripped_text)
# generator of (line, message)). Paths are repo-relative POSIX strings.

_RAW_MUTEX = re.compile(
    r"\bstd::(?:recursive_|timed_|recursive_timed_|shared_)?mutex\b"
    r"|\bstd::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|\bstd::condition_variable(?:_any)?\b"
)

# util/mutex.h IS the wrapper: the one place a std::mutex may live.
RAW_MUTEX_ALLOWLIST = {
    "src/util/mutex.h",
}


def check_raw_mutex(path: str, text: str):
    if path in RAW_MUTEX_ALLOWLIST:
        return
    for lineno, line in enumerate(text.splitlines(), start=1):
        if _RAW_MUTEX.search(line):
            yield (
                lineno,
                "raw std:: concurrency primitive; use util::Mutex / "
                "util::MutexLock / util::CondVar (src/util/mutex.h) so the "
                "lock site is visible to -Wthread-safety",
            )


# Non-placement `new` (placement new is `new (addr) T...`), any `delete`,
# and the raw allocator calls.
_NAKED_NEW = re.compile(r"\bnew\b(?!\s*\()")
_NAKED_DELETE = re.compile(r"\bdelete\b")
_OPERATOR_NEW_DELETE = re.compile(r"::operator\s+(?:new|delete)\b")

# (path, regex that must match the offending line) -> why it is allowed.
NAKED_NEW_ALLOWLIST = [
    (
        "src/core/item_pool.cc",
        re.compile(r"::operator\s+(?:new|delete)"),
        "the pool's own chunk allocator: this IS the managed allocation",
    ),
    (
        "src/core/child_index.h",
        re.compile(r"::operator\s+(?:new|delete)"),
        "heap table storage with explicit sized delete",
    ),
    (
        "src/core/engine.cc",
        re.compile(r"std::unique_ptr<Engine>\(new Engine\("),
        "private-constructor factory; the unique_ptr takes ownership on "
        "the same line",
    ),
]


def check_naked_new(path: str, text: str):
    if not path.startswith("src/core/"):
        return
    allow = [rx for p, rx, _ in NAKED_NEW_ALLOWLIST if p == path]
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("#"):
            continue  # preprocessor (e.g. `#include <new>`)
        # Deleted special members are declarations, not deallocations.
        line = re.sub(r"=\s*delete\b", "", line)
        hit = (
            _NAKED_NEW.search(line)
            or _NAKED_DELETE.search(line)
            or _OPERATOR_NEW_DELETE.search(line)
        )
        if not hit:
            continue
        if any(rx.search(line) for rx in allow):
            continue
        yield (
            lineno,
            "naked new/delete in src/core; item memory is pool-managed "
            "(core/item_pool.h) — use the pool, a container, or a smart "
            "pointer (or extend the allowlist with a reason)",
        )


# Verb prefixes that name fallible construction/acquisition. Boolean
# answers (Apply, Answer, Contains, Is*/Has*) are deliberately absent.
_FALLIBLE_BOOL = re.compile(
    r"\bbool\s+(?:Create|Build|Make|Open|Load|Parse|Register|Capture|"
    r"Pin|Unpin|Sync|Materialize)\w*\s*\("
)

RESULT_API_ALLOWLIST: list[tuple[str, re.Pattern]] = [
    # (path, line regex) -> add entries here with a trailing comment
    # explaining why bool is the right return type.
]


def check_result_api(path: str, text: str):
    if not (
        (path.startswith("src/core/") or path.startswith("src/serve/"))
        and path.endswith(".h")
    ):
        return
    allow = [rx for p, rx in RESULT_API_ALLOWLIST if p == path]
    for lineno, line in enumerate(text.splitlines(), start=1):
        if _FALLIBLE_BOOL.search(line) and not any(
            rx.search(line) for rx in allow
        ):
            yield (
                lineno,
                "fallible API returns bool; return util::Result<T> or "
                "Status (util/result.h) so the failure carries its reason",
            )


_ASSERT = re.compile(r"(?<![A-Za-z0-9_])assert\s*\(")


def check_no_assert(path: str, text: str):
    del path
    for lineno, line in enumerate(text.splitlines(), start=1):
        if _ASSERT.search(line):
            yield (
                lineno,
                "assert() vanishes under NDEBUG; use DYNCQ_CHECK / "
                "DYNCQ_DCHECK (util/check.h)",
            )


_AMBIENT_RNG = re.compile(
    r"(?<![A-Za-z0-9_])(?:rand|srand|time)\s*\(|\bstd::random_device\b"
)


def check_no_ambient_rng(path: str, text: str):
    if path.startswith("src/workload/"):
        return  # generators own their (seeded, deterministic) RNGs
    for lineno, line in enumerate(text.splitlines(), start=1):
        if _AMBIENT_RNG.search(line):
            yield (
                lineno,
                "ambient nondeterminism (rand/srand/time/random_device); "
                "take a seed or the data as a parameter instead",
            )


_INCLUDE = re.compile(r'^\s*#\s*include\s+(["<])([^">]+)[">]')
_REPO_DIRS = (
    "baseline/", "core/", "cq/", "omv/", "serve/", "storage/", "ucq/",
    "util/", "workload/",
)


def check_include_hygiene(path: str, text: str):
    # Runs on RAW text (see Rule.raw): strip_code blanks string literals,
    # which would erase the quoted include path. The line-anchored regex
    # keeps commented-out includes from matching.
    del path
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = _INCLUDE.match(line)
        if not m:
            continue
        quote, target = m.group(1), m.group(2)
        if quote == '"':
            if target.startswith(("./", "../")):
                yield (
                    lineno,
                    f'relative include "{target}"; in-repo includes are '
                    "repo-relative from src/ (e.g. \"core/engine.h\")",
                )
            elif "/" not in target:
                yield (
                    lineno,
                    f'bare same-directory include "{target}"; spell the '
                    "repo-relative path from src/ so the dependency is "
                    "explicit",
                )
        elif target.startswith(_REPO_DIRS):
            yield (
                lineno,
                f"angle-bracket include <{target}> of a repo header; use "
                'quotes ("...") — angle brackets are for system headers',
            )


def _expected_guard(path: str) -> str:
    # src/core/cursor.h -> DYNCQ_CORE_CURSOR_H_
    rel = path[len("src/"):] if path.startswith("src/") else path
    return "DYNCQ_" + re.sub(r"[^A-Za-z0-9]", "_", rel).upper() + "_"


_PRAGMA_ONCE = re.compile(r"^\s*#\s*pragma\s+once\b")
_IFNDEF = re.compile(r"^\s*#\s*ifndef\s+(\w+)")


def check_header_guard(path: str, text: str):
    if not path.endswith(".h"):
        return
    expected = _expected_guard(path)
    first_ifndef = None  # (lineno, name)
    for lineno, line in enumerate(text.splitlines(), start=1):
        if _PRAGMA_ONCE.match(line):
            yield (
                lineno,
                f"#pragma once; use the named include guard {expected} "
                "so the guard encodes the canonical path",
            )
        if first_ifndef is None:
            m = _IFNDEF.match(line)
            if m:
                first_ifndef = (lineno, m.group(1))
    if first_ifndef is None:
        yield (1, f"missing include guard; expected #ifndef {expected}")
    elif first_ifndef[1] != expected:
        yield (
            first_ifndef[0],
            f"include guard {first_ifndef[1]} does not match the "
            f"canonical path; expected {expected}",
        )


_ALIGNED_ALLOC = re.compile(
    r"\balign_val_t\b|\baligned_alloc\s*\(|\bposix_memalign\s*\("
    r"|\bmemalign\s*\("
)


def check_no_aligned_alloc(path: str, text: str):
    if not path.startswith("src/"):
        return
    for lineno, line in enumerate(text.splitlines(), start=1):
        if _ALIGNED_ALLOC.search(line):
            yield (
                lineno,
                "over-aligned heap allocation; memalign's freed remainders "
                "fill glibc's fastbins and the next >= 1 KiB allocation "
                "pays to consolidate them — use plain operator new",
            )


# Stored Item* state: a pointer member declaration (`Item* name;` /
# `Item* name = ...;` — a function name would be followed by `(`) or an
# Item* template argument in any position (vector<Item*>,
# SmallVector<Item*, N>, map values `..., Item*>`), spotted as `Item*`
# directly followed by `,` or `>`. Casts like static_cast<Item*> are
# resolution, not storage.
_ITEM_PTR_MEMBER = re.compile(r"\bItem\s*\*\s*\w+\s*(?:=[^;]*)?;")
_ITEM_PTR_CONTAINER = re.compile(
    r"(?<!cast<)(?<!cast<const )\bItem\s*\*\s*[,>]"
)

# (path, line regex, why it is allowed). DirtyItem is per-batch scratch:
# its pointer is resolved from a handle during one ApplyBatch call and
# consumed by that call's phase B before it returns — it never outlives
# the batch, so no stale-handle window exists.
STORED_ITEM_PTR_ALLOWLIST = [
    (
        "src/core/component_engine.h",
        re.compile(r"\bItem\s*\*\s*item\s*=\s*nullptr\s*;"),
        "DirtyItem transient batch scratch",
    ),
    (
        "src/core/component_engine.h",
        re.compile(r"SmallVector<Item\s*\*\s*,\s*8>\s*&\s*chain"),
        "descent-chain scratch passed by reference within one update",
    ),
]


def check_stored_item_ptr(path: str, text: str):
    if not (path.startswith("src/core/") and path.endswith(".h")):
        return
    allow = [rx for p, rx, _ in STORED_ITEM_PTR_ALLOWLIST if p == path]
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not (
            _ITEM_PTR_MEMBER.search(line)
            or _ITEM_PTR_CONTAINER.search(line)
        ):
            continue
        if any(rx.search(line) for rx in allow):
            continue
        yield (
            lineno,
            "stored Item* in a src/core header; store an ItemHandle "
            "(core/handle.h) and Resolve at the use site so stale names "
            "fail the generation check instead of reading freed memory",
        )


# A function declaration whose return type is Result<...> or Status,
# single-line form: optional specifiers, the return type, a name, an
# opening paren. `\bStatus\b` does not match CursorStatus (no word
# boundary mid-identifier), and `Result<T>::Error(` has no space before
# the member name, so construction sites stay out of scope.
_RESULT_DECL = re.compile(
    r"^\s*(?:\[\[nodiscard\]\]\s+)?"
    r"(?:(?:virtual|static|friend|explicit|inline|constexpr)\s+)*"
    r"(?:util::)?(?:Result\s*<.*>|Status)\s+\w+\s*\("
)
_NODISCARD = re.compile(r"\[\[nodiscard\]\]")

NODISCARD_ALLOWLIST: list[tuple[str, re.Pattern]] = [
    # (path, line regex) -> add entries here with a trailing comment
    # explaining why discarding the Result is legitimate at every call
    # site. None today: every Result/Status return in src/ headers is a
    # failure channel the caller must consume.
]


def check_nodiscard_result(path: str, text: str):
    if not (path.startswith("src/") and path.endswith(".h")):
        return
    allow = [rx for p, rx in NODISCARD_ALLOWLIST if p == path]
    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not _RESULT_DECL.match(line):
            continue
        prev = lines[lineno - 2] if lineno >= 2 else ""
        if _NODISCARD.search(line) or _NODISCARD.search(prev):
            continue
        if any(rx.search(line) for rx in allow):
            continue
        yield (
            lineno,
            "Result/Status-returning declaration without [[nodiscard]]; "
            "a dropped Result is an ignored failure — annotate it (or "
            "extend NODISCARD_ALLOWLIST with a reason)",
        )


_DYNCQ_CHECK = re.compile(r"\bDYNCQ_D?CHECK(?:_MSG)?\s*\(")

# Files whose inputs are user-controlled text/bytes: everything reachable
# from ParseQuery. Malformed input must come back as a typed error.
PARSE_PATH_FILES = {
    "src/cq/parser.cc",
}

PARSE_PATH_CHECK_ALLOWLIST: list[tuple[str, re.Pattern]] = [
    # (path, line regex) -> why this CHECK is unreachable from user
    # input (e.g. guards an internal invariant of already-validated
    # structures). None today.
]


def check_parse_path(path: str, text: str):
    if path not in PARSE_PATH_FILES:
        return
    allow = [rx for p, rx in PARSE_PATH_CHECK_ALLOWLIST if p == path]
    for lineno, line in enumerate(text.splitlines(), start=1):
        if _DYNCQ_CHECK.search(line) and not any(
            rx.search(line) for rx in allow
        ):
            yield (
                lineno,
                "DYNCQ_CHECK/DYNCQ_DCHECK on a user-controlled parse "
                "path; reject malformed input with a typed util::Result "
                "error instead (fuzz_parser treats an escaped CHECK as a "
                "crash)",
            )


class Rule(NamedTuple):
    name: str
    check: Callable
    # True: the check sees the file's raw text (needed when the evidence
    # lives inside string-ish tokens that strip_code would blank, e.g.
    # quoted include paths). False: comments/strings are stripped first.
    raw: bool = False


RULES = [
    Rule("raw-mutex", check_raw_mutex),
    Rule("naked-new", check_naked_new),
    Rule("result-api", check_result_api),
    Rule("no-assert", check_no_assert),
    Rule("no-ambient-rng", check_no_ambient_rng),
    Rule("include-hygiene", check_include_hygiene, raw=True),
    Rule("header-guard", check_header_guard),
    Rule("no-aligned-alloc", check_no_aligned_alloc),
    Rule("stored-item-ptr", check_stored_item_ptr),
    Rule("nodiscard-result", check_nodiscard_result),
    Rule("parse-path-check", check_parse_path),
]


def lint_text(path: str, raw_text: str) -> list[Violation]:
    """Lints one file's contents; `path` must be repo-relative POSIX."""
    text = strip_code(raw_text)
    out = []
    for rule in RULES:
        source = raw_text if rule.raw else text
        for lineno, message in rule.check(path, source) or ():
            out.append(Violation(path, lineno, rule.name, message))
    return out


def lint_tree(root: pathlib.Path) -> list[Violation]:
    violations = []
    for sub in ("src",):
        for ext in ("*.h", "*.cc"):
            for f in sorted((root / sub).rglob(ext)):
                rel = f.relative_to(root).as_posix()
                violations += lint_text(rel, f.read_text(encoding="utf-8"))
    return violations


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="repository root (default: this script's grandparent)",
    )
    args = parser.parse_args(argv)

    violations = lint_tree(args.root)
    for v in sorted(violations):
        print(f"{v.path}:{v.line}: [{v.rule}] {v.message}")
    if violations:
        print(f"lint_invariants: {len(violations)} violation(s)")
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
