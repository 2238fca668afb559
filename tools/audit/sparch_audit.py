#!/usr/bin/env python3
"""sparch-audit: project-specific static analysis for the SpArch simulator.

Enforces invariants the compiler cannot see:

  nondet-in-keyed          no nondeterminism sources in code that feeds
                           result-cache keys or emits CSV (src/driver,
                           src/cli): rand/time/chrono-clock calls,
                           iteration over unordered containers, and
                           pointer-keyed ordered containers.
  alloc-in-hot             no heap-allocation calls (new-expressions
                           except placement new, the malloc family,
                           make_unique/make_shared) inside functions
                           annotated SPARCH_HOT.
  schedule-point-coverage  every mutex/condition-variable site in
                           src/driver, src/exec and src/check sits in a
                           function that contains SPARCH_SCHEDULE_POINT
                           or carries an explicit allow annotation.
  nolint-reason            every NOLINT marker names specific checks
                           and carries a written justification.
  raw-mmap                 no raw mmap/munmap/mremap/msync calls
                           anywhere but src/matrix/mmap_file.cc, the
                           RAII wrapper that owns every mapping (a raw
                           call elsewhere is a leak or double-unmap
                           waiting to happen).
  shared-temp-path         no ::testing::TempDir() or
                           std::filesystem::temp_directory_path()
                           calls in tests/ outside tests/temp_path.hh
                           or in bench/: ctest -j runs each test case
                           in its own process, and benches run side by
                           side, so a fixed name in the shared temp
                           directory races; tests use uniqueTempPath(),
                           a bench names its files uniquely and says
                           so in an allow annotation.
  config-field-coverage    the field registries (*.def) and the config
                           structs cover each other exactly, and every
                           config enum value has a registered CLI
                           spelling.
  bad-annotation           malformed sparch-audit annotations (unknown
                           rule id, empty reason).

Annotation grammar (all inside comments):

  // sparch-audit: allow(<rule>, <reason>)
        suppress <rule> on this line and the next; for
        schedule-point-coverage, anywhere in the enclosing function.
  // sparch-audit: allow-file(<rule>, <reason>)
        suppress <rule> for the whole file.
  // sparch-audit: not-serialized(<member>, <reason>)
        (in record_fields.def) declare a record member that
        deliberately never serializes.
  // expect(<rule>)
        (fixture mode only) assert a violation of <rule> on this line.

The analysis is token-level by design: it runs on a bare toolchain
with no compiler plugins. When libclang python bindings are available
they are used for precise function extents; otherwise a brace-matching
fallback mirrors scripts/lint.sh's graceful degrade. Exit status: 0
clean, 1 violations (or fixture mismatch), 2 usage error.
"""

import argparse
import os
import re
import sys

RULES = {
    "nondet-in-keyed": "nondeterminism source in keyed/CSV-emitting code",
    "alloc-in-hot": "heap allocation inside a SPARCH_HOT function",
    "schedule-point-coverage": "synchronization site without a schedule point",
    "nolint-reason": "NOLINT without specific checks and a justification",
    "config-field-coverage": "field registry and struct disagree",
    "raw-mmap": "raw mmap call outside the MappedFile wrapper",
    "shared-temp-path": "temp directory path built outside uniqueTempPath",
    "bad-annotation": "malformed sparch-audit annotation",
}

# Path scopes for the tree scan (fixture mode ignores these).
KEYED_SCOPE = ("src/driver", "src/cli")
SCHEDULE_SCOPE = ("src/driver", "src/exec", "src/check")
# The one file allowed to touch the mmap syscall family directly.
MMAP_OWNER = "src/matrix/mmap_file.cc"
# Tests and benches are scanned for shared temp paths only; the one
# header allowed to build paths in the temp directory; fixtures are
# scanned on their own in fixture mode.
TEMP_PATH_SCOPES = ("tests", "bench")
TEMP_PATH_OWNER = "tests/temp_path.hh"
FIXTURES_DIR = "tests/audit/fixtures"

SOURCE_EXTS = (".cc", ".hh", ".cpp", ".hpp", ".h")


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


# ---------------------------------------------------------------- lexing


def split_code_and_comments(text):
    """Blank out comments and string/char-literal contents.

    Returns (code, comments): `code` is the source with every comment
    character and every literal's contents replaced by spaces (line
    structure preserved), `comments` maps line number -> concatenated
    comment text on that line.
    """
    code = []
    comments = {}
    i, n, line = 0, len(text), 1

    def note(ln, s):
        comments[ln] = comments.get(ln, "") + s

    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            note(line, text[i:j])
            code.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            chunk = text[i:j]
            for k, part in enumerate(chunk.split("\n")):
                note(line + k, part)
            code.append(re.sub(r"[^\n]", " ", chunk))
            line += chunk.count("\n")
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            out = [quote]
            while j < n and text[j] != quote:
                if text[j] == "\\" and j + 1 < n:
                    out.append("  ")
                    j += 2
                elif text[j] == "\n":  # unterminated; bail at newline
                    break
                else:
                    out.append(" ")
                    j += 1
            if j < n and text[j] == quote:
                out.append(quote)
                j += 1
            code.append("".join(out))
            i = j
        else:
            code.append(c)
            if c == "\n":
                line += 1
            i += 1
    return "".join(code), comments


def line_starts(code):
    starts = [0]
    for i, c in enumerate(code):
        if c == "\n":
            starts.append(i + 1)
    return starts


def line_of(offset, starts):
    lo, hi = 0, len(starts) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if starts[mid] <= offset:
            lo = mid
        else:
            hi = mid - 1
    return lo + 1


# ----------------------------------------------------------- annotations

ALLOW_RE = re.compile(
    r"sparch-audit:\s*(allow|allow-file|not-serialized)\s*"
    r"\(\s*([^,()]*?)\s*(?:,\s*([^()]*?)\s*)?\)")
EXPECT_RE = re.compile(r"expect\(\s*([a-z-]+)\s*\)")
# An annotation keyword that never reaches a well-formed open paren —
# e.g. `sparch-audit: allow schedule-point-coverage` — is malformed.
ANNOTATION_STEM_RE = re.compile(r"sparch-audit:\s*([a-z-]*)")


class Annotations:
    """Parsed sparch-audit annotations of one file."""

    def __init__(self):
        self.allow = {}  # rule -> set of line numbers
        self.allow_file = set()  # rules suppressed file-wide
        self.not_serialized = {}  # member -> reason
        self.bad = []  # (line, message)

    def allows(self, rule, lineno):
        if rule in self.allow_file:
            return True
        lines = self.allow.get(rule, ())
        # An allow on line L covers L and L+1 (comment-above style).
        return lineno in lines or lineno - 1 in lines

    def allow_lines(self, rule):
        return self.allow.get(rule, set())


def parse_annotations(comments, joined_comment_text=None):
    ann = Annotations()
    for lineno in sorted(comments):
        text = comments[lineno]
        if "sparch-audit:" not in text:
            continue
        matched = False
        for m in ALLOW_RE.finditer(text):
            matched = True
            kind, arg, reason = m.group(1), m.group(2), m.group(3)
            reason = (reason or "").strip()
            if kind in ("allow", "allow-file"):
                if arg not in RULES:
                    ann.bad.append(
                        (lineno, "unknown rule '%s' in %s()" %
                         (arg, kind)))
                    continue
                if not reason:
                    ann.bad.append(
                        (lineno,
                         "%s(%s) needs a non-empty reason" %
                         (kind, arg)))
                    continue
                if kind == "allow":
                    ann.allow.setdefault(arg, set()).add(lineno)
                else:
                    ann.allow_file.add(arg)
            else:  # not-serialized
                if not arg or not reason:
                    ann.bad.append(
                        (lineno, "not-serialized needs a member and "
                                 "a reason"))
                    continue
                ann.not_serialized[arg] = reason
        if not matched:
            stem = ANNOTATION_STEM_RE.search(text)
            ann.bad.append(
                (lineno, "malformed sparch-audit annotation '%s'" %
                 (stem.group(1) if stem else "")))
    return ann


def merge_multiline_annotations(comments):
    """Join run-on comment blocks so annotations may wrap lines.

    A `sparch-audit:` comment whose open paren is not closed on its
    own line continues onto following comment lines; the joined text
    is credited to the LAST line of the block, so an allow() written
    as a comment block directly above a statement covers it.
    """
    merged = dict(comments)
    for lineno in sorted(comments):
        text = merged.get(lineno)
        if text is None or "sparch-audit:" not in text:
            continue
        last = lineno
        while text.count("(") > text.count(")"):
            nxt = merged.pop(last + 1, None)
            if nxt is None:
                break
            text += " " + re.sub(r"^\s*(//|\*)\s?", "", nxt)
            last += 1
        if last != lineno:
            merged.pop(lineno, None)
        merged[last] = text
    return merged


# ------------------------------------------------------ function extents


# Build directory holding compile_commands.json (set via -p). When
# present and libclang is importable, each file is parsed with its
# real compile flags instead of the -std=c++20 -Isrc default.
BUILD_DIR = None


def compile_args_for(ci, path):
    if BUILD_DIR is None:
        return ["-std=c++20", "-Isrc"]
    try:
        db = ci.CompilationDatabase.fromDirectory(BUILD_DIR)
        cmds = db.getCompileCommands(os.path.abspath(path))
        if cmds:
            # Drop the compiler argv[0] and the source file itself;
            # libclang wants only the flags.
            args = list(cmds[0].arguments)[1:]
            return [a for a in args
                    if os.path.abspath(a) != os.path.abspath(path)]
    except Exception:
        pass
    return ["-std=c++20", "-Isrc"]


def libclang_function_extents(path):
    """Precise extents via libclang, or None to use the fallback."""
    try:
        import clang.cindex as ci  # noqa: F401
    except Exception:
        return None
    try:
        index = ci.Index.create()
        tu = index.parse(path, args=compile_args_for(ci, path))
        extents = []

        def walk(cur):
            if cur.kind in (ci.CursorKind.FUNCTION_DECL,
                            ci.CursorKind.CXX_METHOD,
                            ci.CursorKind.CONSTRUCTOR,
                            ci.CursorKind.DESTRUCTOR,
                            ci.CursorKind.LAMBDA_EXPR) and \
                    cur.is_definition():
                extents.append((cur.extent.start.line,
                                cur.extent.end.line))
            for child in cur.get_children():
                walk(child)

        walk(tu.cursor)
        return extents or None
    except Exception:
        return None


def fallback_function_extents(code, starts):
    """Brace-matched function-body extents, repo-style heuristic.

    A definition is a column-0 line containing an identifier and '('
    (the repo writes the return type on its own line and the qualified
    name at column 0), followed by a '{' at column 0. Returns a list
    of (first_line, last_line) body extents, outermost only.
    """
    extents = []
    lines = code.split("\n")
    i = 0
    while i < len(lines):
        line = lines[i]
        if re.match(r"^[A-Za-z_~][\w:<>,~]*\s*\(", line):
            j = i
            while j < len(lines) and not lines[j].startswith("{"):
                if lines[j].startswith("}") or \
                        lines[j].startswith("#") or \
                        (lines[j].endswith(";") and
                         "{" not in lines[j]):
                    j = -1
                    break
                j += 1
            if j < 0 or j >= len(lines):
                i += 1
                continue
            depth = 0
            end = j
            for k in range(j, len(lines)):
                depth += lines[k].count("{") - lines[k].count("}")
                if depth <= 0:
                    end = k
                    break
            extents.append((i + 1, end + 1))
            i = end + 1
        else:
            i += 1
    return extents


def function_extents(path, code, starts):
    extents = libclang_function_extents(path)
    if extents is None:
        extents = fallback_function_extents(code, starts)
    return extents


def enclosing_extent(extents, lineno):
    best = None
    for start, end in extents:
        if start <= lineno <= end:
            if best is None or start > best[0]:
                best = (start, end)
    return best


# ------------------------------------------------------------ line rules

NONDET_PATTERNS = [
    (re.compile(r"\b(?:std::)?s?rand\s*\("), "rand()/srand() call"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\b(?:std::)?time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "time() call"),
    (re.compile(r"\b(?:system_clock|steady_clock|"
                r"high_resolution_clock)\s*::\s*now\b"),
     "wall-clock read"),
    (re.compile(r"\bstd::(?:map|set)\s*<\s*[^,<>]*\*\s*[,>]"),
     "pointer-keyed ordered container (iteration order depends on "
     "allocation addresses)"),
]

UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s*"
    r"(\w+)\s*[;{=(]")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;()]*?:\s*(?:\w+\.)*(\w+)\s*\)")

ALLOC_PATTERNS = [
    (re.compile(r"\bnew\b(?!\s*\()"), "new-expression"),
    (re.compile(r"\b(?:std::)?(?:malloc|calloc|realloc|aligned_alloc|"
                r"strdup)\s*\("), "malloc-family call"),
    (re.compile(r"\bmake_(?:unique|shared)\s*<"),
     "make_unique/make_shared call"),
]

SYNC_SITE_RE = re.compile(
    r"\b(?:lock_guard|unique_lock|scoped_lock)\s*<|"
    r"\.\s*wait(?:_for|_until)?\s*\(")

NOLINT_RE = re.compile(r"NOLINT(?:NEXTLINE|BEGIN|END)?\b(\([^)]*\))?")

RAW_MMAP_RE = re.compile(r"\b(?:mmap|mmap64|munmap|mremap|msync)\s*\(")

TEMP_DIR_RE = re.compile(r"\b(?:TempDir|temp_directory_path)\s*\(")


def check_nondet(path, code, starts, ann, out):
    unordered = set(UNORDERED_DECL_RE.findall(code))
    for lineno, line in enumerate(code.split("\n"), start=1):
        for pat, what in NONDET_PATTERNS:
            if pat.search(line) and not ann.allows(
                    "nondet-in-keyed", lineno):
                out.append(Violation(
                    path, lineno, "nondet-in-keyed",
                    what + " in keyed/CSV-emitting code"))
        if unordered:
            m = RANGE_FOR_RE.search(line)
            if m and m.group(1).rstrip("_") in {
                    u.rstrip("_") for u in unordered}:
                if not ann.allows("nondet-in-keyed", lineno):
                    out.append(Violation(
                        path, lineno, "nondet-in-keyed",
                        "iteration over unordered container '%s' "
                        "(element order is unspecified)" %
                        m.group(1)))


def check_alloc_in_hot(path, code, starts, ann, out):
    lines = code.split("\n")
    for m in re.finditer(r"\bSPARCH_HOT\b", code):
        if lines[line_of(m.start(), starts) - 1].lstrip()\
                .startswith("#"):
            continue  # the macro's own #define, not an annotation
        start = m.end()
        open_brace = code.find("{", start)
        if open_brace < 0:
            continue
        depth, end = 0, open_brace
        for i in range(open_brace, len(code)):
            if code[i] == "{":
                depth += 1
            elif code[i] == "}":
                depth -= 1
                if depth == 0:
                    end = i
                    break
        first = line_of(open_brace, starts)
        last = line_of(end, starts)
        for lineno in range(first, last + 1):
            line = lines[lineno - 1]
            for pat, what in ALLOC_PATTERNS:
                if pat.search(line) and not ann.allows(
                        "alloc-in-hot", lineno):
                    out.append(Violation(
                        path, lineno, "alloc-in-hot",
                        what + " inside a SPARCH_HOT function"))


def check_schedule_points(path, code, starts, ann, out):
    extents = None
    lines = code.split("\n")
    for lineno, line in enumerate(lines, start=1):
        if not SYNC_SITE_RE.search(line):
            continue
        if ann.allows("schedule-point-coverage", lineno):
            continue
        if extents is None:
            extents = function_extents(path, code, starts)
        ext = enclosing_extent(extents, lineno)
        if ext is None:
            # Member declarations etc.; only flag sites inside bodies.
            continue
        body = "\n".join(lines[ext[0] - 1:ext[1]])
        if "SPARCH_SCHEDULE_POINT" in body:
            continue
        if any(ext[0] <= al <= ext[1] for al in
               ann.allow_lines("schedule-point-coverage")):
            continue
        out.append(Violation(
            path, lineno, "schedule-point-coverage",
            "synchronization site in a function with no "
            "SPARCH_SCHEDULE_POINT (add one, or annotate: "
            "// sparch-audit: allow(schedule-point-coverage, why))"))


def check_raw_mmap(path, code, starts, ann, out):
    for lineno, line in enumerate(code.split("\n"), start=1):
        if RAW_MMAP_RE.search(line) and not ann.allows(
                "raw-mmap", lineno):
            out.append(Violation(
                path, lineno, "raw-mmap",
                "raw mmap-family call outside %s; hold a MappedFile "
                "instead so unmapping cannot be forgotten or doubled" %
                MMAP_OWNER))


def check_shared_temp_path(path, code, ann, out):
    for lineno, line in enumerate(code.split("\n"), start=1):
        if TEMP_DIR_RE.search(line) and not ann.allows(
                "shared-temp-path", lineno):
            out.append(Violation(
                path, lineno, "shared-temp-path",
                "path built in the shared temp directory; concurrent "
                "processes race on a fixed name (tests: use "
                "uniqueTempPath() from %s; benches: make the name "
                "unique and annotate why)" % TEMP_PATH_OWNER))


def check_nolint(path, comments, ann, out):
    for lineno in sorted(comments):
        # Fixture expect() markers share the line; they are not part
        # of the justification.
        text = EXPECT_RE.sub("", comments[lineno])
        for m in NOLINT_RE.finditer(text):
            if ann.allows("nolint-reason", lineno):
                continue
            checks = m.group(1)
            if not checks or not checks.strip("()").strip():
                out.append(Violation(
                    path, lineno, "nolint-reason",
                    "NOLINT must name the suppressed checks, e.g. "
                    "NOLINT(bugprone-foo): reason"))
                continue
            rest = text[m.end():].lstrip(" :-")
            if not rest.strip():
                out.append(Violation(
                    path, lineno, "nolint-reason",
                    "NOLINT%s carries no justification" % checks))


# ----------------------------------------------- config-field coverage


def strip_comments(text):
    return split_code_and_comments(text)[0]


def struct_members(header_text, struct_name):
    """Data-member names of a struct, token-level."""
    code = strip_comments(header_text)
    m = re.search(r"\bstruct\s+%s\b[^;{]*\{" % re.escape(struct_name),
                  code)
    if not m:
        return None
    depth, start, end = 0, m.end() - 1, len(code)
    for i in range(m.end() - 1, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                end = i
                break
    body = code[start + 1:end]
    # Drop nested braces (member-function bodies, nested types).
    flat, depth = [], 0
    for c in body:
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
        elif depth == 0:
            flat.append(c)
    members = []
    for stmt in "".join(flat).split(";"):
        stmt = stmt.strip()
        if not stmt or "(" in stmt or stmt.startswith(
                ("using ", "typedef ", "static ", "friend ",
                 "enum ", "struct ", "class ", "public", "private",
                 "protected")):
            continue
        dm = re.search(r"(\w+)\s*(?:=.*|\{.*\})?$", stmt)
        if dm:
            members.append(dm.group(1))
    return members


def enum_values(header_text, enum_name):
    code = strip_comments(header_text)
    m = re.search(r"\benum\s+class\s+%s\b[^{]*\{([^}]*)\}" %
                  re.escape(enum_name), code)
    if not m:
        return None
    values = []
    for piece in m.group(1).split(","):
        vm = re.match(r"\s*(\w+)", piece)
        if vm:
            values.append(vm.group(1))
    return values


def def_entries(def_text, macro):
    """(line, [args]) for each expansion of one registry macro."""
    code = strip_comments(def_text)
    # Drop preprocessor lines: the default-empty #define of each macro
    # at the top of a .def is not an entry.
    code = "\n".join("" if line.lstrip().startswith("#") else line
                     for line in code.split("\n"))
    entries = []
    for m in re.finditer(r"\b%s\s*\(" % re.escape(macro), code):
        depth, j = 0, m.end() - 1
        for i in range(m.end() - 1, len(code)):
            if code[i] == "(":
                depth += 1
            elif code[i] == ")":
                depth -= 1
                if depth == 0:
                    j = i
                    break
        args_text = code[m.end():j]
        # Split on top-level commas only (KEY_EXEMPT(...) nests).
        args, depth, cur = [], 0, []
        for c in args_text:
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
            if c == "," and depth == 0:
                args.append("".join(cur).strip())
                cur = []
            else:
                cur.append(c)
        args.append("".join(cur).strip())
        lineno = code[:m.start()].count("\n") + 1
        entries.append((lineno, [re.sub(r"\s+", " ", a)
                                 for a in args]))
    return entries


def check_field_coverage_pair(def_path, def_text, hh_path, hh_text,
                              field_macros, struct_name, member_arg,
                              skip_members, out):
    """Generic two-way check: every struct member registered, every
    registry entry naming a live member."""
    members = struct_members(hh_text, struct_name)
    if members is None:
        out.append(Violation(hh_path, 1, "config-field-coverage",
                             "struct %s not found" % struct_name))
        return
    hh_ann = parse_annotations(
        merge_multiline_annotations(
            split_code_and_comments(hh_text)[1]))
    registered = set()
    for macro in field_macros:
        for lineno, args in def_entries(def_text, macro):
            if len(args) <= member_arg:
                continue
            path = args[member_arg]
            member = path.split(".")[0]
            registered.add(member)
            # A dotted path must start at a live member (the leaf is
            # validated against the nested struct separately); a plain
            # path must BE a live member.
            if member not in members:
                out.append(Violation(
                    def_path, lineno, "config-field-coverage",
                    "entry names '%s' which is not a member of %s" %
                    (path, struct_name)))
    hh_code, _ = split_code_and_comments(hh_text)
    for member in members:
        if member in skip_members or member in registered:
            continue
        decl = re.search(r"^.*\b%s\b\s*(?:=|;|\{)" %
                         re.escape(member), hh_code, re.M)
        lineno = (hh_code[:decl.start()].count("\n") + 1
                  if decl else 1)
        if hh_ann.allows("config-field-coverage", lineno):
            continue
        out.append(Violation(
            hh_path, lineno, "config-field-coverage",
            "member '%s' of %s has no registry entry in %s" %
            (member, struct_name, os.path.basename(def_path))))


def read(path):
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        return f.read()


def check_tree_field_coverage(root, out):
    cfg_def_path = os.path.join(root, "src/core/config_fields.def")
    mem_def_path = os.path.join(root, "src/mem/memory_fields.def")
    rec_def_path = os.path.join(root, "src/driver/record_fields.def")
    cfg_hh = os.path.join(root, "src/core/sparch_config.hh")
    tree_hh = os.path.join(root, "src/hw/merge_tree.hh")
    mem_hh = os.path.join(root, "src/mem/memory_model.hh")
    rec_hh = os.path.join(root, "src/driver/batch_runner.hh")
    sim_hh = os.path.join(root, "src/core/sparch_simulator.hh")
    for p in (cfg_def_path, mem_def_path, rec_def_path, cfg_hh,
              tree_hh, mem_hh, rec_hh, sim_hh):
        if not os.path.exists(p):
            out.append(Violation(p, 1, "config-field-coverage",
                                 "registry input missing"))
            return
    cfg_def, mem_def, rec_def = (read(cfg_def_path),
                                 read(mem_def_path),
                                 read(rec_def_path))

    # SpArchConfig <-> config_fields.def (the memory member is the
    # SPARCH_CONFIG_MEMORY() slot).
    check_field_coverage_pair(
        cfg_def_path, cfg_def, cfg_hh, read(cfg_hh),
        ["SPARCH_CONFIG_FIELD"], "SpArchConfig", 2,
        {"memory"}, out)
    if not def_entries(cfg_def, "SPARCH_CONFIG_MEMORY"):
        out.append(Violation(cfg_def_path, 1, "config-field-coverage",
                             "SPARCH_CONFIG_MEMORY() slot missing"))

    # MergeTreeConfig members appear as mergeTree.<member> paths.
    tree_members = struct_members(read(tree_hh), "MergeTreeConfig")
    paths = {args[2] for _, args in
             def_entries(cfg_def, "SPARCH_CONFIG_FIELD")
             if len(args) > 2}
    for member in tree_members or []:
        if ("mergeTree." + member) not in paths:
            out.append(Violation(
                tree_hh, 1, "config-field-coverage",
                "MergeTreeConfig member '%s' has no mergeTree.* "
                "entry in config_fields.def" % member))

    # Memory blocks <-> memory_fields.def.
    mem_text = read(mem_hh)
    for macro, struct in (("SPARCH_MEM_FIELD_HBM", "HbmConfig"),
                          ("SPARCH_MEM_FIELD_BANKED",
                           "BankedDramConfig"),
                          ("SPARCH_MEM_FIELD_IDEAL", "IdealConfig")):
        check_field_coverage_pair(
            mem_def_path, mem_def, mem_hh, mem_text, [macro],
            struct, 2, set(), out)
    kinds = {args[0] for _, args in
             def_entries(mem_def, "SPARCH_MEM_KIND")}
    for value in enum_values(mem_text, "MemoryKind") or []:
        if value not in kinds:
            out.append(Violation(
                mem_hh, 1, "config-field-coverage",
                "MemoryKind::%s has no SPARCH_MEM_KIND spelling" %
                value))

    # Config enums <-> SPARCH_CONFIG_ENUM_VALUE.
    cfg_text = read(cfg_hh)
    enum_entries = def_entries(cfg_def, "SPARCH_CONFIG_ENUM_VALUE")
    for enum in ("ReplacementPolicy", "SchedulerKind"):
        spelled = {args[1] for _, args in enum_entries
                   if args and args[0] == enum}
        for value in enum_values(cfg_text, enum) or []:
            if value not in spelled:
                out.append(Violation(
                    cfg_hh, 1, "config-field-coverage",
                    "%s::%s has no SPARCH_CONFIG_ENUM_VALUE "
                    "spelling" % (enum, value)))

    # Record schema <-> BatchRecord/SpArchResult members.
    rec_ann = parse_annotations(
        merge_multiline_annotations(
            split_code_and_comments(rec_def)[1]))
    rec_entries = def_entries(rec_def, "SPARCH_RECORD_FIELD")
    rec_members = struct_members(read(rec_hh), "BatchRecord") or []
    sim_members = struct_members(read(sim_hh), "SpArchResult") or []
    covered = {args[2] for _, args in rec_entries if len(args) > 2}
    exempt = set(rec_ann.not_serialized)
    for member in rec_members:
        if member == "sim" or member in exempt:
            continue
        if member not in covered:
            out.append(Violation(
                rec_def_path, 1, "config-field-coverage",
                "BatchRecord member '%s' is neither serialized nor "
                "declared not-serialized" % member))
    for member in sim_members:
        path = "sim." + member
        if path in covered or path in exempt:
            continue
        out.append(Violation(
            rec_def_path, 1, "config-field-coverage",
            "SpArchResult member '%s' is neither serialized nor "
            "declared not-serialized" % path))
    for lineno, args in rec_entries:
        if len(args) < 3:
            continue
        member = args[2]
        if "." in member:
            head, leaf = member.split(".", 1)
            ok = head == "sim" and leaf in sim_members
        else:
            ok = member in rec_members
        if not ok:
            out.append(Violation(
                rec_def_path, lineno, "config-field-coverage",
                "entry names '%s' which is not a record member" %
                member))
    for lineno, _ in enum_entries:
        pass  # line info only used above
    for _, bad in ((0, b) for b in rec_ann.bad):
        out.append(Violation(rec_def_path, bad[0], "bad-annotation",
                             bad[1]))


# --------------------------------------------------------------- drivers


def scan_file(path, rel, fixture_mode, out):
    text = read(path)
    code, comments = split_code_and_comments(text)
    comments = merge_multiline_annotations(comments)
    starts = line_starts(code)
    ann = parse_annotations(comments)
    for lineno, message in ann.bad:
        out.append(Violation(rel, lineno, "bad-annotation", message))

    in_keyed = fixture_mode or rel.replace(os.sep, "/").startswith(
        KEYED_SCOPE)
    in_sched = fixture_mode or rel.replace(os.sep, "/").startswith(
        SCHEDULE_SCOPE)
    if in_keyed:
        check_nondet(rel, code, starts, ann, out)
    check_alloc_in_hot(rel, code, starts, ann, out)
    if in_sched:
        check_schedule_points(rel, code, starts, ann, out)
    if rel.replace(os.sep, "/") != MMAP_OWNER:
        check_raw_mmap(rel, code, starts, ann, out)
    if fixture_mode:
        check_shared_temp_path(rel, code, ann, out)
    check_nolint(rel, comments, ann, out)
    return comments


def scan_temp_path_file(path, rel, out):
    code, comments = split_code_and_comments(read(path))
    ann = parse_annotations(merge_multiline_annotations(comments))
    for lineno, message in ann.bad:
        out.append(Violation(rel, lineno, "bad-annotation", message))
    if rel.replace(os.sep, "/") != TEMP_PATH_OWNER:
        check_shared_temp_path(rel, code, ann, out)


def dedupe(violations):
    seen, unique = set(), []
    for v in violations:
        key = (v.path, v.line, v.rule, v.message)
        if key not in seen:
            seen.add(key)
            unique.append(v)
    return unique


def run_tree(root):
    out = []
    for base, dirs, files in os.walk(os.path.join(root, "src")):
        dirs.sort()
        for name in sorted(files):
            if not name.endswith(SOURCE_EXTS):
                continue
            path = os.path.join(base, name)
            scan_file(path, os.path.relpath(path, root), False, out)
    for scope in TEMP_PATH_SCOPES:
        for base, dirs, files in os.walk(os.path.join(root, scope)):
            dirs.sort()
            if os.path.relpath(base, root).replace(os.sep, "/") == \
                    os.path.dirname(FIXTURES_DIR):
                dirs.remove(os.path.basename(FIXTURES_DIR))
            for name in sorted(files):
                if name.endswith(SOURCE_EXTS):
                    path = os.path.join(base, name)
                    scan_temp_path_file(
                        path, os.path.relpath(path, root), out)
    check_tree_field_coverage(root, out)
    return dedupe(out)


def run_fixtures(fixtures_dir):
    """Scan fixture files and compare against their expect() markers."""
    out = []
    expected = set()
    for base, dirs, files in os.walk(fixtures_dir):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            rel = os.path.relpath(path, fixtures_dir)
            if name.endswith(SOURCE_EXTS):
                comments = scan_file(path, rel, True, out)
            elif name.endswith(".def") or name.endswith(".hh.in"):
                comments = merge_multiline_annotations(
                    split_code_and_comments(read(path))[1])
            else:
                continue
            for lineno in sorted(comments):
                for m in EXPECT_RE.finditer(comments[lineno]):
                    expected.add((rel, lineno, m.group(1)))

    # Coverage fixtures: <name>_fields.def paired with <name>_config.hh;
    # the struct under test is the first struct in the header.
    for base, dirs, files in os.walk(fixtures_dir):
        for name in sorted(files):
            if not name.endswith("_fields.def"):
                continue
            def_path = os.path.join(base, name)
            hh_path = os.path.join(
                base, name[:-len("_fields.def")] + "_config.hh")
            if not os.path.exists(hh_path):
                continue
            hh_text = read(hh_path)
            sm = re.search(r"\bstruct\s+(\w+)",
                           strip_comments(hh_text))
            if not sm:
                continue
            pair_out = []
            check_field_coverage_pair(
                os.path.relpath(def_path, fixtures_dir), read(def_path),
                os.path.relpath(hh_path, fixtures_dir), hh_text,
                ["SPARCH_FIXTURE_FIELD"], sm.group(1), 2, set(),
                pair_out)
            out.extend(pair_out)

    out = dedupe(out)
    actual = {(v.path, v.line, v.rule) for v in out}
    ok = True
    for miss in sorted(expected - actual):
        print("MISSING %s:%d: expected [%s] was not reported" % miss)
        ok = False
    for extra in sorted(actual - expected):
        v = next(v for v in out
                 if (v.path, v.line, v.rule) == extra)
        print("UNEXPECTED %s" % v)
        ok = False
    print("fixtures: %d expected, %d reported, %s" %
          (len(expected), len(actual), "OK" if ok else "MISMATCH"))
    return 0 if ok else 1


def main(argv):
    parser = argparse.ArgumentParser(
        prog="sparch_audit",
        description="SpArch project-specific static analysis")
    parser.add_argument("--root", default=".",
                        help="repository root to scan")
    parser.add_argument("--fixtures",
                        help="run in fixture mode over this directory")
    parser.add_argument("-p", "--build-dir", dest="build_dir",
                        help="build tree with compile_commands.json "
                             "(used for real compile flags in "
                             "libclang mode)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.build_dir:
        global BUILD_DIR
        BUILD_DIR = args.build_dir

    if args.list_rules:
        for rule in sorted(RULES):
            print("%-24s %s" % (rule, RULES[rule]))
        return 0

    try:
        import clang.cindex  # noqa: F401
        mode = "libclang"
    except Exception:
        mode = "token-level (libclang python bindings not found; "\
               "analysis degrades gracefully like scripts/lint.sh)"
    print("sparch-audit: %s" % mode, file=sys.stderr)

    if args.fixtures:
        if not os.path.isdir(args.fixtures):
            print("fixtures directory '%s' not found" % args.fixtures,
                  file=sys.stderr)
            return 2
        return run_fixtures(args.fixtures)

    if not os.path.isdir(os.path.join(args.root, "src")):
        print("no src/ under root '%s'" % args.root, file=sys.stderr)
        return 2
    violations = run_tree(args.root)
    for v in violations:
        print(v)
    print("sparch-audit: %d violation(s)" % len(violations))
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
