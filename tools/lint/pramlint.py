#!/usr/bin/env python3
"""pramlint — project-specific static analysis for pramsim.

Stdlib-only, like every tool in tools/. Mechanically enforces the
contracts the docs state in prose, so the guarantees the repo makes
(bit-identical results at any worker count, deterministic fault
injection from one seed, trace-consistency verifiable after the fact)
are machine-checked on every commit instead of resting on review memory.

Rule catalog (docs/static-analysis.md is the narrative version):

  Layering (include graph, src/ only; bench/examples/tests are free)
    layer-dag       an #include edge not allowed by the layer DAG from
                    docs/architecture.md (encoded in LAYER_DEPS below)
    org-cross       an include between two storage organizations
                    (majority / ida / hashing / sortnet) — organizations
                    talk through pram::MemorySystem, never directly

  Determinism bans (src/ only; tokenizer-aware, so bans inside strings
  and comments never fire)
    ban-random      std::random_device / rand() / srand() /
                    random_shuffle — all randomness flows through the
                    seeded util::Rng
    ban-time        time() / clock() / gettimeofday / localtime —
                    wall-clock reads outside util::Stopwatch
    ban-env         getenv / setenv / putenv — configuration is explicit
                    (specs and options structs), never ambient
    ban-chrono      std::chrono / <chrono> outside src/util/stopwatch.*
                    (bench/ is free: benches are wall-clock by design)
    ban-thread      std::thread / jthread / async / mutex /
                    condition_variable / <future> outside
                    src/util/parallel.* — threading goes through
                    util::Executor / util::parallel_for (the documented
                    driver double-buffer site is allowlisted)
    unordered-iter  range-for / .begin() iteration over a
                    std::unordered_{map,set} in src/: iteration order is
                    implementation-defined, so any fold over it that
                    reaches telemetry, journal, or snapshot bytes breaks
                    the cross-platform determinism contract. Declaring
                    and probing unordered containers is fine; iterating
                    one needs a `// pramlint: ordered-fold (<invariant>)`
                    annotation on the loop (same line or the two lines
                    above) stating why order cannot be observed.

  Interface (src/ only)
    serve-entry     a `step(...)` declaration marked `override` outside
                    src/pram/ — serve(plan, ctx) is the one entry a
                    memory implements; step() is the base class's
                    adapter (FlatMemory, in src/pram/, is the one
                    override)

  Cross-artifact consistency (whole-tree runs only)
    xa-obs-events   obs::EventKind (src/obs/journal.hpp) vs
                    journal.cpp to_string vs EVENT_KINDS in
                    tools/check_obs_schema.py vs docs/observability.md
    xa-phase-vocab  obs::Phase (src/obs/phase.hpp) vs phase.cpp
                    to_string vs PHASES in tools/check_obs_schema.py vs
                    docs/observability.md
    xa-scheme-table core::SchemeKind (src/core/schemes.hpp) vs the
                    README scheme table vs the to_string + make_scheme
                    switches in src/core/schemes.cpp
    xa-bench-schema bench::kBenchSchemaVersion (bench/bench_common.hpp)
                    vs the committed BENCH_*.json baselines

  Allowlist hygiene
    allowlist       malformed tools/lint/allow.txt entries (reason is
                    mandatory) and stale entries that suppress nothing

Suppression has exactly two mechanisms, both carrying a written reason:
  * site-level: `// pramlint: ordered-fold (<why order is safe>)` for
    unordered-iter findings only;
  * file-level: a `<rule-id> <path> <reason>` line in
    tools/lint/allow.txt for everything else.

Usage:
    python3 tools/lint/pramlint.py [repo_root]   # whole-tree run
    python3 tools/lint/pramlint.py --self-test   # fixture suite
    python3 tools/lint/pramlint.py --list-rules

Output is one `path:line: [rule] message` per finding (plus a fix hint),
exit status 1 when any unsuppressed finding remains, 0 otherwise.
"""
import bisect
import json
import os
import re
import sys
from pathlib import Path

# --------------------------------------------------------------------------
# The layer DAG — the machine-checked encoding of the diagram in
# docs/architecture.md ("Layers, bottom-up") and of the CMake
# target_link_libraries edges. A subsystem may include its own headers,
# plus exactly the subsystems listed here. Keep the three sources (this
# table, docs/architecture.md, CMakeLists.txt) in sync; this table is the
# one that bites.
# --------------------------------------------------------------------------

LAYER_DEPS = {
    "util": set(),
    "obs": {"util"},
    "memmap": {"util"},
    "network": {"util"},
    "sortnet": {"util"},
    "models": {"util", "network"},
    "pram": {"util", "obs"},
    "majority": {"util", "obs", "memmap", "pram"},
    "ida": {"util", "obs", "memmap", "pram"},
    "hashing": {"util", "obs", "pram"},
    "faults": {"util", "obs", "pram"},
    "cache": {"util", "obs", "memmap", "pram"},
    "durability": {"util", "obs", "pram"},
    "core": {"util", "obs", "memmap", "network", "sortnet", "models",
             "pram", "majority", "ida", "hashing", "faults", "cache",
             "durability"},
}

# Storage organizations: peers behind pram::MemorySystem. An include
# between two of them is a contract violation even where a rank-based
# reading of the DAG might allow it.
ORGANIZATIONS = {"majority", "ida", "hashing", "sortnet"}

RULES = {
    "layer-dag": "include edge not allowed by the layer DAG "
                 "(docs/architecture.md)",
    "org-cross": "include between storage organizations (peers behind "
                 "pram::MemorySystem)",
    "ban-random": "nondeterministic randomness source (use the seeded "
                  "util::Rng)",
    "ban-time": "wall-clock read outside util::Stopwatch",
    "ban-env": "ambient environment read (configuration must be "
               "explicit)",
    "ban-chrono": "std::chrono outside src/util/stopwatch.*",
    "ban-thread": "raw threading primitive outside src/util/parallel.*",
    "unordered-iter": "iteration over an unordered container "
                      "(implementation-defined order)",
    "serve-entry": "step() override outside src/pram/ (memories "
                   "implement serve(plan, ctx))",
    "xa-obs-events": "obs::EventKind vocabulary drift across artifacts",
    "xa-phase-vocab": "obs::Phase vocabulary drift across artifacts",
    "xa-scheme-table": "SchemeKind drift across enum / README / factory",
    "xa-bench-schema": "bench schema version drift vs committed "
                       "baselines",
    "allowlist": "allowlist hygiene (reason mandatory, no stale "
                 "entries)",
}

HINTS = {
    "layer-dag": "depend downward only; if the edge is genuinely new, "
                 "update docs/architecture.md, CMakeLists.txt and "
                 "LAYER_DEPS in tools/lint/pramlint.py together",
    "org-cross": "talk through pram::MemorySystem / pram vocabulary "
                 "types instead",
    "ban-random": "derive a util::Rng / util::SplitMix64 stream from "
                  "the run seed",
    "ban-time": "route timing through util::Stopwatch; benches own "
                "their own clocks under bench/",
    "ban-env": "thread the setting through the owning options struct "
               "(SchemeSpec, StressOptions, ...)",
    "ban-chrono": "use util::Stopwatch (src/util/stopwatch.hpp); raw "
                  "chrono is allowed only inside it and under bench/",
    "ban-thread": "use util::parallel_for / util::Executor; a genuinely "
                  "new threading site needs an allow.txt entry with a "
                  "written rationale",
    "unordered-iter": "sort the keys first (snapshot/telemetry order), "
                      "or annotate the loop with "
                      "`// pramlint: ordered-fold (<invariant>)` if the "
                      "fold is provably order-free",
    "serve-entry": "implement serve(plan, ctx)",
    "xa-obs-events": "update src/obs/journal.{hpp,cpp}, "
                     "tools/check_obs_schema.py EVENT_KINDS and "
                     "docs/observability.md together",
    "xa-phase-vocab": "update src/obs/phase.{hpp,cpp}, "
                      "tools/check_obs_schema.py PHASES and "
                      "docs/observability.md together",
    "xa-scheme-table": "update src/core/schemes.hpp, the README scheme "
                       "table and both switches in src/core/schemes.cpp "
                       "together",
    "xa-bench-schema": "bump bench::kBenchSchemaVersion and regenerate "
                       "every committed BENCH_*.json in the same PR",
    "allowlist": "format: `<rule-id> <path> <reason>`; delete entries "
                 "that no longer suppress anything",
}

ANNOTATION = "pramlint: ordered-fold"

UNORDERED_RE = re.compile(r"\bunordered_(?:multi)?(?:map|set)\b")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")


class Finding:
    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path, line, rule, message):
        self.path = path      # repo-relative, posix separators
        self.line = line
        self.rule = rule
        self.message = message

    def render(self):
        return (f"{self.path}:{self.line}: [{self.rule}] {self.message}\n"
                f"    hint: {HINTS[self.rule]}")


# --------------------------------------------------------------------------
# Tokenizer: strip comments and string/char literals (contents replaced
# with spaces, newlines kept) so positions and line numbers survive.
# Handles //, /* */, "..." with escapes, '...', and raw strings
# R"delim( ... )delim" with any encoding prefix (u8R, LR, uR, UR).
# --------------------------------------------------------------------------

class SourceView:
    def __init__(self, text):
        self.text = text
        self.code, self.comments = _strip(text)
        self._line_starts = [0]
        for i, ch in enumerate(text):
            if ch == "\n":
                self._line_starts.append(i + 1)

    def line_of(self, offset):
        return bisect.bisect_right(self._line_starts, offset)

    def comment_on(self, line):
        """Concatenated comment text appearing on `line` (1-based)."""
        return self.comments.get(line, "")


_RAW_PREFIX_RE = re.compile(r'(?:u8|[uUL])?R$')


def _strip(text):
    out = []
    comments = {}
    i, n = 0, len(text)
    line = 1

    def blank(upto):
        """Copy text[i:upto] as spaces, preserving newlines."""
        nonlocal i, line
        for j in range(i, upto):
            if text[j] == "\n":
                out.append("\n")
                line += 1
            else:
                out.append(" ")
        i = upto

    def note_comment(start, end):
        for ln, chunk in _split_lines(text, start, end):
            comments[ln] = comments.get(ln, "") + chunk

    def _split_lines(src, start, end):
        ln = line
        seg_start = start
        for j in range(start, end):
            if src[j] == "\n":
                yield ln, src[seg_start:j]
                ln += 1
                seg_start = j + 1
        yield ln, src[seg_start:end]

    while i < n:
        ch = text[i]
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            start = i
            j = i + 2
            while j < n and text[j] != "\n":
                # A line comment continues past a backslash-newline.
                if text[j] == "\\" and j + 1 < n and text[j + 1] == "\n":
                    j += 2
                    continue
                j += 1
            note_comment(start, j)
            blank(j)
        elif ch == "/" and i + 1 < n and text[i + 1] == "*":
            start = i
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            note_comment(start, j)
            blank(j)
        elif ch == '"':
            # Raw string? Look back over the identifier touching the quote.
            is_raw = False
            if i > 0:
                k = i
                while k > 0 and (text[k - 1].isalnum() or text[k - 1] == "_"):
                    k -= 1
                is_raw = bool(_RAW_PREFIX_RE.search(text[k:i]))
            if is_raw:
                dend = text.find("(", i + 1)
                if dend < 0:
                    blank(n)
                    continue
                delim = text[i + 1:dend]
                closer = ")" + delim + '"'
                j = text.find(closer, dend + 1)
                j = n if j < 0 else j + len(closer)
                out.append('"')
                i += 1
                blank(j)
            else:
                out.append('"')
                j = i + 1
                while j < n and text[j] != '"':
                    if text[j] == "\\":
                        j += 1
                    j += 1
                j = min(j + 1, n)
                i += 1
                blank(j)
        elif ch == "'":
            out.append("'")
            j = i + 1
            while j < n and text[j] != "'":
                if text[j] == "\\":
                    j += 1
                j += 1
            j = min(j + 1, n)
            i += 1
            blank(j)
        else:
            out.append(ch)
            if ch == "\n":
                line += 1
            i += 1
    return "".join(out), comments


# --------------------------------------------------------------------------
# Per-file checks
# --------------------------------------------------------------------------

INCLUDE_RE = re.compile(r'^[ \t]*#[ \t]*include[ \t]*("([^"]+)"|<([^>]+)>)',
                        re.MULTILINE)

BAN_PATTERNS = [
    ("ban-random", re.compile(r"std\s*::\s*random_device\b"),
     "std::random_device"),
    ("ban-random", re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
    ("ban-random", re.compile(r"\brandom_shuffle\b"), "random_shuffle"),
    ("ban-time", re.compile(r"(?<![\w:.])(?:std\s*::\s*)?time\s*\("),
     "time()"),
    ("ban-time", re.compile(r"(?<![\w:.])(?:std\s*::\s*)?clock\s*\("),
     "clock()"),
    ("ban-time", re.compile(r"\b(?:gettimeofday|localtime|gmtime|strftime)"
                            r"\b"), "C time API"),
    ("ban-env", re.compile(r"\b(?:getenv|setenv|putenv|secure_getenv)\b"),
     "environment access"),
    ("ban-chrono", re.compile(r"std\s*::\s*chrono\b"), "std::chrono"),
    ("ban-thread", re.compile(r"std\s*::\s*(?:jthread|thread|async|mutex|"
                              r"recursive_mutex|shared_mutex|timed_mutex|"
                              r"condition_variable(?:_any)?|barrier|latch|"
                              r"counting_semaphore|binary_semaphore)\b"),
     "raw threading primitive"),
]

BAN_INCLUDES = {
    "chrono": "ban-chrono",
    "thread": "ban-thread",
    "mutex": "ban-thread",
    "shared_mutex": "ban-thread",
    "condition_variable": "ban-thread",
    "future": "ban-thread",
    "random": "ban-random",
    "ctime": "ban-time",
    "time.h": "ban-time",
    "cstdlib": None,  # fine by itself; rand()/getenv() calls are caught
}

# Files exempt from a ban by construction (the rule's own escape hatch,
# as opposed to allow.txt which is for everything else).
BAN_EXEMPT = {
    "ban-chrono": re.compile(r"^src/util/stopwatch\.(hpp|cpp)$"),
    "ban-thread": re.compile(r"^src/util/parallel\.(hpp|cpp)$"),
}


def subsystem_of(relpath):
    parts = Path(relpath).parts
    if len(parts) >= 3 and parts[0] == "src":
        return parts[1]
    return None


def check_includes(relpath, view, findings):
    sub = subsystem_of(relpath)
    # Include paths are string literals, which the sanitized view blanks;
    # scan the raw text and use the sanitized view only to drop
    # directives living inside comments or string literals.
    for m in INCLUDE_RE.finditer(view.text):
        hash_off = view.text.index("#", m.start())
        if view.code[hash_off] != "#":
            continue  # commented-out or quoted include
        line = view.line_of(m.start())
        quoted, angled = m.group(2), m.group(3)
        if angled is not None:
            rule = BAN_INCLUDES.get(angled)
            if rule and sub is not None:
                exempt = BAN_EXEMPT.get(rule)
                if exempt and exempt.match(relpath):
                    continue
                findings.append(Finding(
                    relpath, line, rule,
                    f"#include <{angled}> — {RULES[rule]}"))
            continue
        if sub is None:
            continue
        target = quoted.split("/", 1)[0]
        if target == sub:
            continue
        if target not in LAYER_DEPS:
            findings.append(Finding(
                relpath, line, "layer-dag",
                f'#include "{quoted}": unknown subsystem "{target}" (not '
                f"a layer in docs/architecture.md)"))
            continue
        if target in LAYER_DEPS[sub]:
            continue
        if sub in ORGANIZATIONS and target in ORGANIZATIONS:
            findings.append(Finding(
                relpath, line, "org-cross",
                f'"{sub}" includes "{quoted}": organizations are peers '
                f"behind pram::MemorySystem and must not see each other"))
        else:
            findings.append(Finding(
                relpath, line, "layer-dag",
                f'"{sub}" may not include "{quoted}" (allowed: '
                f'{", ".join(sorted(LAYER_DEPS[sub])) or "nothing"})'))


def check_bans(relpath, view, findings):
    if subsystem_of(relpath) is None:
        return
    for rule, pattern, what in BAN_PATTERNS:
        exempt = BAN_EXEMPT.get(rule)
        if exempt and exempt.match(relpath):
            continue
        for m in pattern.finditer(view.code):
            findings.append(Finding(
                relpath, view.line_of(m.start()), rule,
                f"{what} — {RULES[rule]}"))


# ---- the one serve entry ---------------------------------------------------

STEP_DECL_RE = re.compile(r"\bstep\s*\(")
OVERRIDE_RE = re.compile(r"\boverride\b")


def check_serve_entry(relpath, view, findings):
    """A `step(...)` declarator followed by `override` (before the body
    or the `;`) overrides MemorySystem::step. Only src/pram/ may: the
    base adapter and FlatMemory live there."""
    sub = subsystem_of(relpath)
    if sub is None or sub == "pram":
        return
    code = view.code
    for m in STEP_DECL_RE.finditer(code):
        depth = 0
        end = None
        for i in range(m.end() - 1, len(code)):
            if code[i] == "(":
                depth += 1
            elif code[i] == ")":
                depth -= 1
                if depth == 0:
                    end = i
                    break
        if end is None:
            continue
        stop = end + 1
        while stop < len(code) and code[stop] not in ";{}(":
            stop += 1
        if OVERRIDE_RE.search(code, end + 1, stop):
            findings.append(Finding(
                relpath, view.line_of(m.start()), "serve-entry",
                RULES["serve-entry"]))


# ---- unordered-container iteration ---------------------------------------

_TYPE_HEAD_RE = re.compile(r"\b(?:class|struct|union|enum)\b")
_NAMESPACE_HEAD_RE = re.compile(r"\b(?:namespace|extern)\b")


def brace_pairs(code):
    """Every matched `{ }` pair as (open, close, kind). kind is "type"
    (class/struct/union/enum body), "namespace" (namespace or extern
    block) or "block" (function bodies and everything nested in them,
    lambdas, initializers), judged from the statement head before the
    brace."""
    pairs, stack = [], []
    head_start = 0
    for i, ch in enumerate(code):
        if ch == "{":
            head = code[head_start:i]
            if any(kind == "block" for _, kind in stack):
                kind = "block"
            elif _NAMESPACE_HEAD_RE.search(head) and "(" not in head:
                kind = "namespace"
            elif (_TYPE_HEAD_RE.search(head) and "(" not in head
                  and "=" not in head):
                kind = "type"
            else:
                kind = "block"
            stack.append((i, kind))
            head_start = i + 1
        elif ch == "}":
            if stack:
                opened, kind = stack.pop()
                pairs.append((opened, i, kind))
            head_start = i + 1
        elif ch == ";":
            head_start = i + 1
    return pairs


class UnorderedDecls:
    """Names declared with an unordered type in one translation unit, by
    scope: `members` (class scope), `globals` (namespace scope), `locals`
    as (name, start, end) spans of their enclosing function body, and
    `accessors` (functions returning (a reference to) one)."""

    def __init__(self):
        self.members, self.globals, self.accessors = set(), set(), set()
        self.locals = []

    def local_at(self, name, offset):
        return any(n == name and start <= offset <= end
                   for n, start, end in self.locals)

    def dir_visible(self):
        """Members and globals a sibling file can see: by convention the
        ones with a trailing underscore (a .cpp iterating a member its
        header declares)."""
        return {v for v in self.members | self.globals if v.endswith("_")}


def unordered_names(view):
    """UnorderedDecls for this translation unit."""
    code = view.code
    pairs = brace_pairs(code)
    decls = UnorderedDecls()
    for m in UNORDERED_RE.finditer(code):
        i = m.end()
        while i < len(code) and code[i].isspace():
            i += 1
        if i >= len(code) or code[i] != "<":
            continue
        depth = 1
        i += 1
        while i < len(code) and depth > 0:
            if code[i] == "<":
                depth += 1
            elif code[i] == ">":
                depth -= 1
            i += 1
        # Skip cv/ref decoration between the type and the declared name.
        while True:
            while i < len(code) and (code[i].isspace() or code[i] in "&*"):
                i += 1
            word = IDENT_RE.match(code, i)
            if word and word.group(0) == "const":
                i = word.end()
                continue
            break
        if not word:
            continue
        name = word.group(0)
        j = word.end()
        while j < len(code) and code[j].isspace():
            j += 1
        if j < len(code) and code[j] == "(":
            decls.accessors.add(name)
            continue
        if j >= len(code) or code[j] not in ";=,{)":
            continue
        at = m.start()
        enclosing = [p for p in pairs if p[0] < at < p[1]]
        bodies = [p for p in enclosing if p[2] == "block"]
        if bodies:
            # The outermost block is the function body.
            opened, closed, _ = min(bodies)
            decls.locals.append((name, opened, closed))
        elif enclosing and max(enclosing)[2] == "type":
            decls.members.add(name)
        else:
            decls.globals.add(name)
    return decls


def _top_level_colon(s):
    depth = 0
    i = 0
    while i < len(s):
        c = s[i]
        if c in "([{<":
            depth += 1
        elif c in ")]}>":
            depth = max(0, depth - 1)
        elif c == ":" and depth == 0:
            if i + 1 < len(s) and s[i + 1] == ":":
                i += 2
                continue
            if i > 0 and s[i - 1] == ":":
                i += 1
                continue
            return i
        i += 1
    return -1


RANGE_TARGET_CALL_RE = re.compile(r"([A-Za-z_]\w*)\s*\(\s*\)\s*$")
RANGE_TARGET_NAME_RE = re.compile(r"([A-Za-z_]\w*)\s*$")


def check_unordered_iteration(relpath, view, dir_vars, dir_accessors,
                              findings):
    if subsystem_of(relpath) is None:
        return
    decls = unordered_names(view)
    members = decls.members | dir_vars
    tracked_calls = decls.accessors | dir_accessors
    code = view.code

    def tracked(name, offset):
        """`obj.name` / `obj->name` can only be a member; a bare name can
        also be a global or a local of the enclosing function."""
        before = code[:offset].rstrip()
        if before.endswith(".") or before.endswith("->"):
            return name in members
        return (name in members or name in decls.globals
                or decls.local_at(name, offset))

    def annotated(line):
        return any(ANNOTATION in view.comment_on(ln)
                   for ln in range(max(1, line - 2), line + 1))

    for m in re.finditer(r"\bfor\s*\(", code):
        open_paren = m.end() - 1
        depth = 0
        j = open_paren
        while j < len(code):
            if code[j] == "(":
                depth += 1
            elif code[j] == ")":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        head = code[open_paren + 1:j]
        colon = _top_level_colon(head)
        if colon < 0:
            continue
        rhs = head[colon + 1:].strip()
        rhs_start = code.index(rhs, open_paren + 1 + colon + 1)
        call = RANGE_TARGET_CALL_RE.search(rhs)
        name = None
        via = None
        if call and call.group(1) in tracked_calls:
            name, via = call.group(1), "accessor"
        elif not call:
            plain = RANGE_TARGET_NAME_RE.search(rhs)
            if plain and tracked(plain.group(1), rhs_start + plain.start(1)):
                name, via = plain.group(1), "container"
        if name is None:
            continue
        line = view.line_of(m.start())
        if annotated(line):
            continue
        findings.append(Finding(
            relpath, line, "unordered-iter",
            f"range-for over unordered {via} '{name}': iteration order "
            f"is implementation-defined and this fold is not annotated"))

    for m in re.finditer(r"([A-Za-z_]\w*)\s*\.\s*begin\s*\(", code):
        if not tracked(m.group(1), m.start(1)):
            continue
        line = view.line_of(m.start())
        if annotated(line):
            continue
        findings.append(Finding(
            relpath, line, "unordered-iter",
            f".begin() on unordered container '{m.group(1)}' without an "
            f"ordered-fold annotation"))


# --------------------------------------------------------------------------
# Cross-artifact consistency
# --------------------------------------------------------------------------

def _enum_body(code, enum_name):
    m = re.search(r"enum\s+class\s+" + enum_name + r"\b[^{]*\{", code)
    if not m:
        return None, 0
    start = m.end()
    end = code.find("};", start)
    return code[start:end if end >= 0 else len(code)], start


def _enum_entries(view, enum_name):
    body, start = _enum_body(view.code, enum_name)
    if body is None:
        return []
    entries = []
    for m in re.finditer(r"\b(k[A-Z]\w*)\b\s*(?:=\s*\w+\s*)?(?=,|\})", body):
        entries.append((m.group(1), view.line_of(start + m.start())))
    return entries


def snake(entry):
    """kCacheInvalidateDead -> cache_invalidate_dead."""
    body = entry[1:] if entry.startswith("k") else entry
    return re.sub(r"(?<!^)(?=[A-Z])", "_", body).lower()


def _read_view(root, rel):
    path = root / rel
    if not path.exists():
        return None
    return SourceView(path.read_text(encoding="utf-8"))


def _vocab_check(root, rule, findings, enum_rel, enum_name, count_const,
                 impl_rel, schema_list_re, doc_rel):
    """Shared engine for xa-obs-events / xa-phase-vocab: enum vs
    to_string vs check_obs_schema.py vocabulary vs docs list."""
    enum_view = _read_view(root, enum_rel)
    if enum_view is None:
        findings.append(Finding(enum_rel, 1, rule, f"{enum_rel} missing"))
        return
    entries = _enum_entries(enum_view, enum_name)
    if not entries:
        findings.append(Finding(enum_rel, 1, rule,
                                f"could not parse enum {enum_name}"))
        return
    names = [snake(e) for e, _ in entries]

    cm = re.search(count_const + r"\s*=\s*(\d+)", enum_view.code)
    if cm and int(cm.group(1)) != len(entries):
        findings.append(Finding(
            enum_rel, enum_view.line_of(cm.start()), rule,
            f"{count_const} = {cm.group(1)} but {enum_name} has "
            f"{len(entries)} entries"))

    impl_view = _read_view(root, impl_rel)
    if impl_view is not None:
        # Scan the raw text: the string literals to_string returns are
        # blanked in the sanitized .code view.
        returned = re.findall(
            enum_name + r"::(k\w+)\s*:\s*return\s*"
            r'"([a-z0-9_]+)"', impl_view.text)
        for entry_name, literal in returned:
            if snake(entry_name) != literal:
                findings.append(Finding(
                    impl_rel, 1, rule,
                    f"to_string({enum_name}::{entry_name}) returns "
                    f'"{literal}", expected "{snake(entry_name)}"'))
        covered = {e for e, _ in returned}
        missing = [e for e, _ in entries if e not in covered]
        if missing:
            findings.append(Finding(
                impl_rel, 1, rule,
                f"to_string switch misses {enum_name} entries: "
                f"{', '.join(missing)}"))

    schema_rel = "tools/check_obs_schema.py"
    schema_path = root / schema_rel
    if schema_path.exists():
        text = schema_path.read_text(encoding="utf-8")
        m = schema_list_re.search(text)
        if not m:
            findings.append(Finding(schema_rel, 1, rule,
                                    "vocabulary list not found"))
        else:
            listed = re.findall(r'"([a-z0-9_]+)"', m.group(1))
            line = text[:m.start()].count("\n") + 1
            if rule == "xa-obs-events":
                if listed != names:
                    findings.append(Finding(
                        schema_rel, line, rule,
                        f"EVENT_KINDS {listed} != enum order {names} "
                        f"(order matters: it is the canonical sort key)"))
            elif set(listed) != set(names):
                findings.append(Finding(
                    schema_rel, line, rule,
                    f"vocabulary {sorted(listed)} != enum "
                    f"{sorted(names)}"))

    doc_path = root / doc_rel
    if doc_path.exists():
        doc = doc_path.read_text(encoding="utf-8")
        documented = set(re.findall(r"`([a-z0-9_]+)`", doc))
        missing = [n for n in names if n not in documented]
        if missing:
            findings.append(Finding(
                doc_rel, 1, rule,
                f"{doc_rel} does not document: {', '.join(missing)}"))
    else:
        findings.append(Finding(doc_rel, 1, rule, f"{doc_rel} missing"))


def check_scheme_table(root, findings):
    rule = "xa-scheme-table"
    header_rel = "src/core/schemes.hpp"
    view = _read_view(root, header_rel)
    if view is None:
        findings.append(Finding(header_rel, 1, rule, "schemes.hpp missing"))
        return
    entries = [e for e, _ in _enum_entries(view, "SchemeKind")]
    if not entries:
        findings.append(Finding(header_rel, 1, rule,
                                "could not parse enum SchemeKind"))
        return

    readme_rel = "README.md"
    readme = (root / readme_rel)
    if readme.exists():
        text = readme.read_text(encoding="utf-8")
        table = re.findall(r"^\|\s*`(k\w+)`", text, re.MULTILINE)
        if table != entries:
            findings.append(Finding(
                readme_rel, 1, rule,
                f"README scheme table {table} != SchemeKind enum "
                f"{entries} (set and order must match)"))
    else:
        findings.append(Finding(readme_rel, 1, rule, "README.md missing"))

    impl_rel = "src/core/schemes.cpp"
    impl = _read_view(root, impl_rel)
    if impl is None:
        findings.append(Finding(impl_rel, 1, rule, "schemes.cpp missing"))
        return
    cases = re.findall(r"case\s+SchemeKind::(k\w+)", impl.code)
    for entry in entries:
        hits = cases.count(entry)
        if hits < 2:
            findings.append(Finding(
                impl_rel, 1, rule,
                f"SchemeKind::{entry} handled in {hits} switch case(s) in "
                f"schemes.cpp — every kind needs both a to_string case "
                f"and a make_scheme case"))
    unknown = sorted(set(cases) - set(entries))
    if unknown:
        findings.append(Finding(
            impl_rel, 1, rule,
            f"schemes.cpp switches on unknown kinds: {', '.join(unknown)}"))


def check_bench_schema(root, findings):
    rule = "xa-bench-schema"
    common_rel = "bench/bench_common.hpp"
    common = root / common_rel
    if not common.exists():
        findings.append(Finding(common_rel, 1, rule,
                                "bench_common.hpp missing"))
        return
    text = common.read_text(encoding="utf-8")
    m = re.search(r"kBenchSchemaVersion\s*=\s*(\d+)", text)
    if not m:
        findings.append(Finding(common_rel, 1, rule,
                                "kBenchSchemaVersion not found"))
        return
    version = int(m.group(1))
    line = text[:m.start()].count("\n") + 1
    baselines = sorted(root.glob("BENCH_*.json"))
    if not baselines:
        findings.append(Finding(common_rel, line, rule,
                                "no committed BENCH_*.json baselines found"))
    for baseline in baselines:
        rel = baseline.name
        try:
            doc = json.loads(baseline.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as err:
            findings.append(Finding(rel, 1, rule, f"cannot parse: {err}"))
            continue
        got = doc.get("schema_version")
        if got != version:
            findings.append(Finding(
                rel, 1, rule,
                f"schema_version {got!r} != bench::kBenchSchemaVersion "
                f"{version}"))


def cross_artifact_checks(root, findings):
    _vocab_check(
        root, "xa-obs-events", findings,
        enum_rel="src/obs/journal.hpp", enum_name="EventKind",
        count_const="kEventKindCount", impl_rel="src/obs/journal.cpp",
        schema_list_re=re.compile(r"EVENT_KINDS\s*=\s*\[(.*?)\]", re.DOTALL),
        doc_rel="docs/observability.md")
    _vocab_check(
        root, "xa-phase-vocab", findings,
        enum_rel="src/obs/phase.hpp", enum_name="Phase",
        count_const="kPhaseCount", impl_rel="src/obs/phase.cpp",
        schema_list_re=re.compile(r"PHASES\s*=\s*\{(.*?)\}", re.DOTALL),
        doc_rel="docs/observability.md")
    check_scheme_table(root, findings)
    check_bench_schema(root, findings)


# --------------------------------------------------------------------------
# Allowlist
# --------------------------------------------------------------------------

class AllowEntry:
    __slots__ = ("rule", "path", "reason", "line", "used")

    def __init__(self, rule, path, reason, line):
        self.rule = rule
        self.path = path
        self.reason = reason
        self.line = line
        self.used = False


def load_allowlist(root, findings):
    rel = "tools/lint/allow.txt"
    path = root / rel
    entries = []
    if not path.exists():
        return entries
    for lineno, raw in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split(None, 2)
        if len(parts) < 3:
            findings.append(Finding(
                rel, lineno, "allowlist",
                f"malformed entry {stripped!r}: need "
                f"`<rule-id> <path> <reason>` — the reason is mandatory"))
            continue
        rule, target, reason = parts
        if rule not in RULES:
            findings.append(Finding(
                rel, lineno, "allowlist",
                f"unknown rule id {rule!r} (see --list-rules)"))
            continue
        if len(reason.strip()) < 10:
            findings.append(Finding(
                rel, lineno, "allowlist",
                f"reason for ({rule}, {target}) is too thin "
                f"({reason.strip()!r}) — state WHY the violation is safe"))
            continue
        entries.append(AllowEntry(rule, target, reason, lineno))
    return entries


def apply_allowlist(findings, entries):
    kept = []
    suppressed = 0
    for finding in findings:
        match = next((e for e in entries
                      if e.rule == finding.rule and e.path == finding.path),
                     None)
        if match is not None:
            match.used = True
            suppressed += 1
        else:
            kept.append(finding)
    for entry in entries:
        if not entry.used:
            kept.append(Finding(
                "tools/lint/allow.txt", entry.line, "allowlist",
                f"stale entry ({entry.rule}, {entry.path}): it suppresses "
                f"nothing — delete it"))
    return kept, suppressed


# --------------------------------------------------------------------------
# Drivers
# --------------------------------------------------------------------------

SOURCE_EXTS = {".hpp", ".cpp", ".h", ".cc"}


def scan_tree(root):
    findings = []
    src = root / "src"
    files = sorted(p for p in src.rglob("*")
                   if p.suffix in SOURCE_EXTS) if src.is_dir() else []
    # Directory-scope name sets: members (trailing underscore) and
    # accessors are visible to every file in the same subsystem (a .cpp
    # iterating a member declared in its header).
    dir_members, dir_accessors = {}, {}
    views = {}
    for path in files:
        rel = path.relative_to(root).as_posix()
        view = SourceView(path.read_text(encoding="utf-8"))
        views[rel] = view
        sub = subsystem_of(rel)
        decls = unordered_names(view)
        dir_members.setdefault(sub, set()).update(decls.dir_visible())
        dir_accessors.setdefault(sub, set()).update(decls.accessors)
    for path in files:
        rel = path.relative_to(root).as_posix()
        view = views[rel]
        sub = subsystem_of(rel)
        check_includes(rel, view, findings)
        check_bans(rel, view, findings)
        check_serve_entry(rel, view, findings)
        check_unordered_iteration(
            rel, view, dir_members.get(sub, set()),
            dir_accessors.get(sub, set()), findings)
    cross_artifact_checks(root, findings)
    return findings, len(files)


def run_tree(root):
    findings, n_files = scan_tree(root)
    allow_findings = []
    entries = load_allowlist(root, allow_findings)
    findings, suppressed = apply_allowlist(findings, entries)
    findings.extend(allow_findings)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for finding in findings:
        print(finding.render(), file=sys.stderr)
    if findings:
        print(f"pramlint: FAILED — {len(findings)} finding(s) across "
              f"{n_files} src files ({suppressed} allowlisted)",
              file=sys.stderr)
        return 1
    print(f"pramlint: OK — {n_files} src files, {len(RULES)} rules, "
          f"{suppressed} allowlisted finding(s), cross-artifact "
          f"vocabularies in sync")
    return 0


EXPECT_RE = re.compile(r"//\s*expect:\s*(.+)$", re.MULTILINE)


def run_self_test(fixtures_root):
    """Each fixture under fixtures/src/<layer>/ declares its expected
    findings in `// expect: rule-id[, rule-id...]` header lines (or
    `// expect: none`). The fixture tree mirrors src/ so path-based
    rules (layer DAG, exemptions) exercise the real code paths."""
    files = sorted(p for p in (fixtures_root / "src").rglob("*")
                   if p.suffix in SOURCE_EXTS)
    if not files:
        print(f"pramlint --self-test: no fixtures under {fixtures_root}",
              file=sys.stderr)
        return 1
    # Build directory scopes over the fixture tree, same as a real run.
    dir_members, dir_accessors, views = {}, {}, {}
    for path in files:
        rel = path.relative_to(fixtures_root).as_posix()
        view = SourceView(path.read_text(encoding="utf-8"))
        views[rel] = view
        sub = subsystem_of(rel)
        decls = unordered_names(view)
        dir_members.setdefault(sub, set()).update(decls.dir_visible())
        dir_accessors.setdefault(sub, set()).update(decls.accessors)
    failures = 0
    for path in files:
        rel = path.relative_to(fixtures_root).as_posix()
        view = views[rel]
        expected = []
        for m in EXPECT_RE.finditer(path.read_text(encoding="utf-8")):
            spec = m.group(1).strip()
            if spec != "none":
                expected.extend(s.strip() for s in spec.split(","))
        unknown = [r for r in expected if r not in RULES]
        if unknown:
            print(f"FAIL {rel}: expectation names unknown rule(s) "
                  f"{unknown}", file=sys.stderr)
            failures += 1
            continue
        findings = []
        sub = subsystem_of(rel)
        check_includes(rel, view, findings)
        check_bans(rel, view, findings)
        check_serve_entry(rel, view, findings)
        check_unordered_iteration(
            rel, view, dir_members.get(sub, set()),
            dir_accessors.get(sub, set()), findings)
        got = sorted(f.rule for f in findings)
        if got != sorted(expected):
            print(f"FAIL {rel}: expected {sorted(expected)}, got {got}",
                  file=sys.stderr)
            for finding in findings:
                print(f"  {finding.render()}", file=sys.stderr)
            failures += 1
        else:
            print(f"ok   {rel}: {len(expected)} expected finding(s)")
    total = len(files)
    if failures:
        print(f"pramlint --self-test: FAILED {failures}/{total} fixtures",
              file=sys.stderr)
        return 1
    print(f"pramlint --self-test: OK — {total} fixtures")
    return 0


def main(argv):
    here = Path(os.path.dirname(os.path.abspath(__file__)))
    if "--list-rules" in argv:
        for rule in sorted(RULES):
            print(f"{rule:16s} {RULES[rule]}")
        return 0
    if "--self-test" in argv:
        return run_self_test(here / "fixtures")
    root = Path(argv[1]) if len(argv) > 1 else here.parent.parent
    if not (root / "src").is_dir():
        print(f"pramlint: {root} has no src/ directory", file=sys.stderr)
        return 2
    return run_tree(root.resolve())


if __name__ == "__main__":
    sys.exit(main(sys.argv))
