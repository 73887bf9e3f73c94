#!/usr/bin/env python3
"""SalsaLint — custom token lint wall for determinism & concurrency
discipline (stdlib only: a comment- and string-blanking token lexer).

The runtime SalsaCheck wall (digests, InvariantAuditor, fuzzers, TSan)
verifies that trajectories are byte-identical per (seed, threads, k); this
pass enforces the *source-level rules* that make those runtime checks pass,
before any fuzzer runs:

  no-unordered-iteration
      Result-affecting modules (src/core, src/sched, src/analysis) must not
      iterate hash-layout-ordered containers (std::unordered_*, FlatMap):
      range-for, .begin() iterator loops, and .drain()/.for_each() visitors
      (FlatMap's for_each) all visit entries in layout order, which depends
      on insertion history and rehash timing. Order-independent uses
      (commutative refcount arithmetic) are sanctioned per-site with an
      allow() suppression carrying the order-independence argument.

  no-nondeterministic-sources
      Deterministic modules must not read wall clocks
      (chrono *_clock::now, clock()), entropy (rand, srand,
      std::random_device), or address-dependent values (std::hash over
      pointers, reinterpret_cast to [u]intptr_t). Search randomness comes
      from the seeded SplitMix64 streams in util/rng.h — a function of
      (seed, index), never of the environment.

  thread-local-scratch-discipline
      A [static] thread_local scratch buffer keeps its contents across
      calls *and* across users of the pool thread. Its first use in scope
      must therefore be a reset (.clear()/.assign()/.clear_all()/.zero(),
      whole-object assignment, or BitPlane::resize which zeroes by
      contract); buffers with a non-reset first use (tag-guarded or
      drained-to-zero invariants) document that invariant in an allow()
      suppression on the declaration.

  transaction-seam-writes
      Occupancy state (the fu_busy/reg_busy/reg_busy_t bitplanes and the
      fu_user/reg_sto identity grids) is mutated only through the
      claim/release/staged-apply entry points in core/binding.{h,cpp} and
      core/search_engine.{h,cpp}. Anywhere else, poking the planes or grids
      — or calling claim/release ad hoc, outside a transaction — bypasses
      the undo journal and the auditor's seam, so it is flagged whether or
      not it happens to keep the representations in lockstep.

  simd-intrinsics-confined
      Raw SIMD intrinsics (_mm*/_mm256*/_mm512* calls, __m128/__m256/__m512
      vector types, the x86/NEON vector headers) live only in the kernel
      header src/util/bitplane.h, behind its word-level kernels. Those
      kernels are held to references: the per-bit model tests in
      tests/test_bitplane.cpp and the auditor's plane-vs-grid check.
      Intrinsics anywhere else escape both, and grow a second #ifdef
      jungle outside the checked kernels.

  raw-number-parse
      Numbers read from outside the program (design files, expressions,
      flags, environment variables) are parsed only through the
      range-checked helpers of src/util/args.h. Anywhere else under src/,
      a std::sto*, ato* or strto* call either reads a silent prefix
      ("3abc" as 3, "0x10" as 0, "1e3" as 1), returns 0 on junk, or throws
      a bare std::exception with no line number — so src/util/args.cpp is
      their only sanctioned home.

Suppressions:
      // salsa-lint: allow(<check-id>) <one-line rationale>
  on the offending line, or alone on the line above it. The rationale is
  mandatory; an allow() without one (or naming an unknown check) is itself
  a violation (bad-suppression), so the clean gate stays exact.

Fixtures (tests/lint_fixtures/) are known-bad files proving each check
fires — the same mutation-test culture as --break-flat-erase. A fixture
declares what it expects with `// salsa-lint: expect(<check-id>)`;
`--fixtures DIR` asserts every expected check fires on its fixture and
nothing unexpected does. A check that silently dies turns CI red.

Usage:
  salsa_lint.py [paths...]            lint (default: src/ under --root)
  salsa_lint.py --fixtures DIR        run fixture fire-assertions
  salsa_lint.py --list-checks         print the check catalogue

Options:
  --root DIR              repo root (default: the script's parent's parent)

Exit codes: 0 clean, 1 violations or fixture-assertion failures, 2 usage.
"""

import argparse
import os
import re
import sys

CHECKS = {
    "no-unordered-iteration":
        "no range-for/iterator/drain iteration over hash-ordered containers "
        "(std::unordered_*, FlatMap) in result-affecting modules",
    "no-nondeterministic-sources":
        "no wall clocks, rand()/random_device, or pointer-value hashing in "
        "deterministic modules",
    "thread-local-scratch-discipline":
        "every [static] thread_local scratch buffer is reset "
        "(clear/assign/zero) before its first read in scope",
    "transaction-seam-writes":
        "occupancy planes/grids are mutated only via the claim/release/"
        "staged-apply entry points in core/binding.* / core/search_engine.*",
    "simd-intrinsics-confined":
        "raw SIMD intrinsics (_mm*, __m128/__m256/__m512, vector headers) "
        "appear only in the src/util/bitplane.h kernels",
    "raw-number-parse":
        "no std::sto*/ato*/strto* number parsing under src/ outside "
        "src/util/args.cpp (use parse_int and friends from util/args.h)",
    "bad-suppression":
        "salsa-lint: allow() must name a known check and carry a rationale",
}

# Modules whose iteration order / randomness feeds search results.
STRICT_DIRS = ("src/core", "src/sched", "src/analysis")
# The sanctioned home of occupancy mutation (transaction-seam-writes).
SEAM_EXEMPT_FILES = (
    "src/core/binding.h", "src/core/binding.cpp",
    "src/core/search_engine.h", "src/core/search_engine.cpp",
)
# The sanctioned home of raw SIMD intrinsics (simd-intrinsics-confined).
SIMD_EXEMPT_FILES = ("src/util/bitplane.h",)
# The sanctioned home of raw number parsing (raw-number-parse).
PARSE_EXEMPT_FILES = ("src/util/args.cpp",)

UNORDERED_TYPE_RE = re.compile(
    r"\b(?:std\s*::\s*)?(unordered_(?:multi)?(?:map|set)|FlatMap)\s*<")
ALLOW_RE = re.compile(
    r"//\s*salsa-lint:\s*allow\(([A-Za-z0-9-]+)\)[ \t]*(.*?)\s*$")
EXPECT_RE = re.compile(r"//\s*salsa-lint:\s*expect\(([A-Za-z0-9-]+)\)")


class Violation:
    def __init__(self, path, line, check, message):
        self.path = path
        self.line = line
        self.check = check
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


def blank_comments_and_strings(text):
    """Returns text with comments and string/char literals replaced by
    spaces (newlines preserved), so token scans never match inside them."""
    out = []
    i, n = 0, len(text)
    NORMAL, LINE, BLOCK, STR, CHAR, RAW = range(6)
    state = NORMAL
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw string literal R"delim( ... )delim"
                if i >= 1 and text[i - 1] == "R" and (
                        i < 2 or not (text[i - 2].isalnum()
                                      or text[i - 2] == "_")):
                    m = re.match(r'"([^ ()\\\t\n]*)\(', text[i:])
                    if m:
                        raw_delim = ")" + m.group(1) + '"'
                        state = RAW
                        out.append(" " * (1 + len(m.group(1)) + 1))
                        i += 1 + len(m.group(1)) + 1
                        continue
                state = STR
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = CHAR
                out.append(" ")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == LINE:
            if c == "\n":
                state = NORMAL
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == BLOCK:
            if c == "*" and nxt == "/":
                state = NORMAL
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state in (STR, CHAR):
            quote = '"' if state == STR else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = NORMAL
                out.append(" ")
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == RAW:
            if text.startswith(raw_delim, i):
                state = NORMAL
                out.append(" " * len(raw_delim))
                i += len(raw_delim)
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def balance_forward(text, pos, open_ch, close_ch):
    """Index just past the close_ch matching the open_ch at `pos`."""
    depth = 0
    i = pos
    n = len(text)
    while i < n:
        c = text[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def declared_unordered_vars(code):
    """Maps variable/member/parameter names declared with an unordered type
    (std::unordered_* or FlatMap) to the matched type name. Token-level:
    finds each type mention, balances its template argument list, then
    reads the declarator name that follows (skipping cv/ref/ptr tokens)."""
    vars_ = {}
    for m in UNORDERED_TYPE_RE.finditer(code):
        type_name = m.group(1)
        after_args = balance_forward(code, m.end() - 1, "<", ">")
        rest = code[after_args:after_args + 200]
        dm = re.match(r"\s*(?:const\b\s*)?[&*]*\s*([A-Za-z_]\w*)", rest)
        if not dm:
            continue
        name = dm.group(1)
        # `FlatMap<K> foo()` is a function/ctor, not a variable — but a
        # following '(' can also be a constructor argument list of a
        # variable; treat names followed by ';', '=', '{', ',', ')' or '('
        # all as declarators. Keywords never match IDENT at this position.
        vars_[name] = type_name
    return vars_


def range_for_exprs(code):
    """Yields (line, iterated_expr_text) for every range-for in `code`."""
    for m in re.finditer(r"\bfor\s*\(", code):
        open_paren = m.end() - 1
        close = balance_forward(code, open_paren, "(", ")")
        inner = code[open_paren + 1:close - 1]
        # The range-for colon: depth 0 within the parens, not part of '::'
        # and not inside nested parens/brackets/braces (lambda captures,
        # template args handled by <> not tracked — ':' inside <> cannot
        # occur).
        depth = 0
        for i, c in enumerate(inner):
            if c in "([{":
                depth += 1
            elif c in ")]}":
                depth -= 1
            elif c == ":" and depth == 0:
                if i > 0 and inner[i - 1] == ":":
                    continue
                if i + 1 < len(inner) and inner[i + 1] == ":":
                    continue
                yield (line_of(code, open_paren + 1 + i),
                       inner[i + 1:].strip())
                break


class FileLint:
    """Lints one file: raw text for suppressions, blanked text for tokens."""

    def __init__(self, path, rel, text, strict, seam_exempt,
                 simd_exempt=False, parse_exempt=False):
        self.path = path
        self.rel = rel
        self.raw_lines = text.splitlines()
        self.code = blank_comments_and_strings(text)
        self.code_lines = self.code.splitlines()
        self.strict = strict
        self.seam_exempt = seam_exempt
        self.simd_exempt = simd_exempt
        self.parse_exempt = parse_exempt
        self.violations = []
        self.allows = {}     # line -> list of (check, reason)
        self.expects = []    # check ids declared via expect()

    def scan_directives(self):
        for idx, line in enumerate(self.raw_lines):
            lineno = idx + 1
            for em in EXPECT_RE.finditer(line):
                self.expects.append(em.group(1))
            am = ALLOW_RE.search(line)
            if not am:
                continue
            check, reason = am.group(1), am.group(2).strip()
            if check not in CHECKS or check == "bad-suppression":
                self.violations.append(Violation(
                    self.rel, lineno, "bad-suppression",
                    f"allow() names unknown check '{check}' "
                    f"(see --list-checks)"))
                continue
            if not reason:
                self.violations.append(Violation(
                    self.rel, lineno, "bad-suppression",
                    f"allow({check}) carries no rationale — say why the "
                    f"site is order-independent/safe"))
                continue
            target = lineno
            if line.strip().startswith("//"):
                # Standalone comment: covers the next code line.
                j = idx + 1
                while j < len(self.raw_lines) and (
                        not self.raw_lines[j].strip()
                        or self.raw_lines[j].strip().startswith("//")):
                    j += 1
                target = j + 1
            self.allows.setdefault(target, []).append((check, reason))

    def report(self, lineno, check, message):
        for c, _reason in self.allows.get(lineno, []):
            if c == check:
                return
        self.violations.append(Violation(self.rel, lineno, check, message))

    # -- check: no-unordered-iteration ------------------------------------
    def check_unordered_iteration(self):
        if not self.strict:
            return
        tracked = declared_unordered_vars(self.code)
        for lineno, expr in range_for_exprs(self.code):
            why = None
            tm = UNORDERED_TYPE_RE.search(expr)
            if tm:
                why = f"a {tm.group(1)} expression"
            else:
                for name in IDENT_RE.findall(expr):
                    if name in tracked:
                        why = f"'{name}' ({tracked[name]})"
                        break
            if why:
                self.report(
                    lineno, "no-unordered-iteration",
                    f"range-for over {why}: hash-layout iteration order is "
                    f"not deterministic — iterate a sorted/indexed view or "
                    f"suppress with an order-independence rationale")
        for m in re.finditer(
                r"\b([A-Za-z_]\w*)\s*\.\s*(begin|cbegin|rbegin)\s*\(",
                self.code):
            name = m.group(1)
            if name in tracked:
                self.report(
                    line_of(self.code, m.start()), "no-unordered-iteration",
                    f"iterator loop over '{name}' ({tracked[name]}): "
                    f"hash-layout order is not deterministic")
        # for_each is FlatMap's layout-order visitor, and a drain-style
        # visitor would be one too; receiver-based so a call on a member
        # declared in a header is still seen.
        for m in re.finditer(
                r"(?:\.|->)\s*(drain|for_each)\s*\(", self.code):
            self.report(
                line_of(self.code, m.start()), "no-unordered-iteration",
                f"FlatMap::{m.group(1)}() visits entries in slot-layout "
                f"order — only order-independent (commutative) folds may "
                f"use it, stated in an allow() rationale")

    # -- check: no-nondeterministic-sources -------------------------------
    NONDET_PATTERNS = (
        (re.compile(r"(?<![\w.>])s?rand\s*\("),
         "rand()/srand(): draw from the seeded SplitMix64 streams "
         "(util/rng.h) instead"),
        (re.compile(r"\brandom_device\b"),
         "std::random_device is environment entropy — results would differ "
         "run to run"),
        (re.compile(
            r"\b(?:steady_clock|system_clock|high_resolution_clock)\s*::"
            r"\s*now\s*\("),
         "wall-clock reads make results time-dependent; benchmarks time in "
         "bench/, never in deterministic modules"),
        (re.compile(r"(?<![\w.>])clock\s*\(\s*\)"),
         "clock() is a wall/CPU-clock read"),
        (re.compile(r"\bhash\s*<[^<>;]*\*\s*>"),
         "hashing a pointer value bakes ASLR into results"),
        (re.compile(r"\breinterpret_cast\s*<\s*(?:std\s*::\s*)?u?intptr_t"),
         "pointer-to-integer conversion is address-dependent (ASLR)"),
    )

    def check_nondeterministic_sources(self):
        if not self.strict:
            return
        for pat, why in self.NONDET_PATTERNS:
            for m in pat.finditer(self.code):
                self.report(
                    line_of(self.code, m.start()),
                    "no-nondeterministic-sources",
                    f"nondeterministic source: {why}")

    # -- check: thread-local-scratch-discipline ---------------------------
    RESET_METHODS = ("clear", "assign", "clear_all", "zero")

    def check_thread_local_scratch(self):
        for m in re.finditer(r"\b(?:static\s+)?thread_local\s+", self.code):
            decl_start = m.end()
            semi = self.code.find(";", decl_start)
            if semi < 0:
                continue
            decl = self.code[decl_start:semi]
            # Declarator name: the last identifier before any initializer.
            head = re.split(r"[={(]", decl, 1)[0]
            idents = IDENT_RE.findall(head)
            if not idents:
                continue
            name = idents[-1]
            decl_line = line_of(self.code, m.start())
            tail = self.code[semi + 1:]
            um = re.search(r"\b" + re.escape(name) + r"\b", tail)
            if not um:
                continue
            use_pos = semi + 1 + um.start()
            use_line = line_of(self.code, use_pos)
            after = tail[um.end():um.end() + 80]
            before = tail[:um.start()].rstrip()
            is_reset = False
            rm = re.match(r"\s*\.\s*([A-Za-z_]\w*)\s*\(", after)
            if rm and rm.group(1) in self.RESET_METHODS:
                is_reset = True
            # BitPlane::resize shapes AND zeroes by contract.
            elif (rm and rm.group(1) == "resize"
                  and re.search(r"\bBitPlane\b", decl)):
                is_reset = True
            elif re.match(r"\s*(=[^=]|\+\+|--)", after):
                is_reset = True  # whole-object overwrite / counter bump
            elif before.endswith("++") or before.endswith("--"):
                is_reset = True
            if not is_reset:
                self.report(
                    decl_line, "thread-local-scratch-discipline",
                    f"thread_local scratch '{name}' is read before being "
                    f"reset (first use at line {use_line}): stale contents "
                    f"from a previous call/thread leak in — clear/assign "
                    f"it first, or document the tag-guard/drained-to-zero "
                    f"invariant in an allow() suppression")

    # -- check: transaction-seam-writes -----------------------------------
    PLANE_MUTATORS = ("set", "clear", "set_range", "clear_range", "zero",
                      "resize", "word")

    def check_transaction_seam(self):
        if not self.strict or self.seam_exempt:
            return
        for m in re.finditer(
                r"(?:\.|->)\s*(fu_busy|reg_busy|reg_busy_t)\s*\.\s*"
                r"([A-Za-z_]\w*)", self.code):
            if m.group(2) in self.PLANE_MUTATORS:
                self.report(
                    line_of(self.code, m.start()), "transaction-seam-writes",
                    f"direct occupancy-plane mutation "
                    f"{m.group(1)}.{m.group(2)}(): planes and grids must "
                    f"move in lockstep through the claim/release entry "
                    f"points in core/binding.h")
        for m in re.finditer(
                r"(?:\.|->)\s*(fu_slot|reg_slot)\s*\(", self.code):
            self.report(
                line_of(self.code, m.start()), "transaction-seam-writes",
                f"{m.group(1)}() hands out a raw slot reference — only the "
                f"engine's journaled claim paths may use it")
        for m in re.finditer(
                r"(?:\.|->)\s*(fu_user|reg_sto)\s*\[", self.code):
            # Balance the (up to two) subscript groups, then look for an
            # assignment (writes); plain reads of the identity grids are
            # fine (verify.cpp, reports).
            pos = m.end() - 1
            end = balance_forward(self.code, pos, "[", "]")
            ws = re.match(r"\s*", self.code[end:])
            if self.code[end + ws.end():].startswith("["):
                end = balance_forward(self.code, end + ws.end(), "[", "]")
            rest = self.code[end:end + 4]
            if re.match(r"\s*=[^=]", rest):
                self.report(
                    line_of(self.code, m.start()), "transaction-seam-writes",
                    f"direct write to the {m.group(1)} identity grid "
                    f"bypasses the busy-plane lockstep and the undo journal")
        for m in re.finditer(
                r"(?:\.|->)\s*((?:claim|release)_(?:fu|reg)(?:_range)?)"
                r"\s*\(", self.code):
            self.report(
                line_of(self.code, m.start()), "transaction-seam-writes",
                f"ad-hoc {m.group(1)}() call outside "
                f"core/binding.*/core/search_engine.*: occupancy mutation "
                f"outside the transaction seam is invisible to rollback "
                f"and the auditor")

    # -- check: simd-intrinsics-confined ----------------------------------
    # Intrinsic calls (_mm_or_si128, _mm256_loadu_si256, ...), vector types
    # (__m128i, __m256d, ...) and the x86/NEON vector headers. The check is
    # not gated on STRICT_DIRS: confinement is repo-wide — a stray
    # intrinsic in a report generator escapes the kernels' references just
    # the same.
    SIMD_PATTERNS = (
        (re.compile(r"\b_mm(?:256|512)?_[a-z0-9_]+\s*\("),
         "raw SIMD intrinsic call"),
        (re.compile(r"\b__m(?:64|128|256|512)[di]?\b"),
         "raw SIMD vector type"),
        (re.compile(
            r"#\s*include\s*<(?:[a-z0-9]*mmintrin|immintrin|x86intrin|"
            r"arm_neon|arm_sve)\.h>"),
         "vector-intrinsics header include"),
    )

    def check_simd_intrinsics(self):
        if self.simd_exempt:
            return
        for pat, what in self.SIMD_PATTERNS:
            for m in pat.finditer(self.code):
                self.report(
                    line_of(self.code, m.start()), "simd-intrinsics-confined",
                    f"{what} outside src/util/bitplane.h: wrap it in a "
                    f"word kernel there, where the per-bit model tests "
                    f"check it")

    # -- check: raw-number-parse -------------------------------------------
    PARSE_RE = re.compile(
        r"(?<![\w.>])(?:std\s*::\s*)?"
        r"(sto(?:i|l|ll|ul|ull|f|d|ld)|ato(?:i|l|ll|f)|"
        r"strto(?:l|ll|ul|ull|f|d|ld|imax|umax))\s*\(")

    def check_raw_number_parse(self):
        if self.parse_exempt:
            return
        for m in self.PARSE_RE.finditer(self.code):
            self.report(
                line_of(self.code, m.start()), "raw-number-parse",
                f"{m.group(1)}() parses a number without the range and "
                f"trailing-junk checks of util/args.h: use parse_int "
                f"(with the caller's line or flag in the diagnostic)")

    def run(self):
        self.scan_directives()
        self.check_unordered_iteration()
        self.check_nondeterministic_sources()
        self.check_thread_local_scratch()
        self.check_transaction_seam()
        self.check_simd_intrinsics()
        self.check_raw_number_parse()
        # Deduplicate (two patterns can flag one line).
        seen = set()
        uniq = []
        for v in self.violations:
            key = (v.path, v.line, v.check)
            if key not in seen:
                seen.add(key)
                uniq.append(v)
        self.violations = sorted(uniq, key=lambda v: (v.path, v.line))
        return self.violations


# -- driver ----------------------------------------------------------------

def collect_files(root, paths):
    files = []
    for p in paths:
        ap = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(ap):
            files.append(ap)
            continue
        for dirpath, dirnames, filenames in os.walk(ap):
            dirnames[:] = [d for d in dirnames
                           if d not in ("build", "CMakeFiles", ".git")]
            for fn in sorted(filenames):
                if fn.endswith((".h", ".cpp", ".cc", ".hpp")):
                    files.append(os.path.join(dirpath, fn))
    return sorted(set(files))


def rel_to_root(root, path):
    try:
        return os.path.relpath(path, root).replace(os.sep, "/")
    except ValueError:
        return path


def lint_paths(root, paths, force_strict=False):
    files = collect_files(root, paths)
    violations = []
    for path in files:
        rel = rel_to_root(root, path)
        strict = force_strict or any(
            rel.startswith(d + "/") or rel == d for d in STRICT_DIRS)
        seam_exempt = rel in SEAM_EXEMPT_FILES
        simd_exempt = rel in SIMD_EXEMPT_FILES
        parse_exempt = (not rel.startswith("src/")
                        or rel in PARSE_EXEMPT_FILES)
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            print(f"salsa_lint: cannot read {path}: {e}", file=sys.stderr)
            return None
        fl = FileLint(path, rel, text, strict, seam_exempt,
                      simd_exempt=simd_exempt, parse_exempt=parse_exempt)
        violations.extend(fl.run())
    return violations


def run_fixtures(root, fixtures_dir):
    """Fire-assertions: every fixture's expect()ed checks must fire on it,
    and no unexpected check may. Returns process exit code."""
    files = collect_files(root, [fixtures_dir])
    if not files:
        print(f"salsa_lint: no fixtures under {fixtures_dir}",
              file=sys.stderr)
        return 2
    failed = False
    for path in files:
        rel = rel_to_root(root, path)
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        fl = FileLint(path, rel, text, strict=True, seam_exempt=False)
        fired = fl.run()
        fired_ids = {v.check for v in fired}
        expected = set(fl.expects)
        missing = expected - fired_ids
        unexpected = fired_ids - expected
        status = "ok" if not missing and not unexpected else "FAIL"
        label = ("clean (suppressions honoured)" if not expected
                 else ", ".join(sorted(expected)))
        print(f"fixture {rel}: expect [{label}] "
              f"fired {len(fired)} violation(s) — {status}")
        if missing:
            failed = True
            for c in sorted(missing):
                print(f"  MISSING: expected check '{c}' did not fire — "
                      f"the lint lost this check", file=sys.stderr)
        if unexpected:
            failed = True
            for v in fired:
                if v.check in unexpected:
                    print(f"  UNEXPECTED: {v}", file=sys.stderr)
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(
        prog="salsa_lint.py", add_help=True,
        description="SalsaLint: determinism & concurrency-discipline lint")
    ap.add_argument("paths", nargs="*", help="files/dirs to lint "
                    "(default: src/ under --root)")
    ap.add_argument("--root", default=None)
    ap.add_argument("--fixtures", metavar="DIR",
                    help="run fixture fire-assertions over DIR and exit")
    ap.add_argument("--list-checks", action="store_true")
    args = ap.parse_args()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))

    if args.list_checks:
        for check, desc in CHECKS.items():
            print(f"{check}\n    {desc}")
        return 0

    if args.fixtures:
        return run_fixtures(root, args.fixtures)

    paths = args.paths or ["src"]
    violations = lint_paths(root, paths)
    if violations is None:
        return 2
    for v in violations:
        print(v)
    if violations:
        print(f"salsa_lint: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    print(f"salsa_lint: clean ({len(collect_files(root, paths))} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
