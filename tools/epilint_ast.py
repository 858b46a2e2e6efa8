#!/usr/bin/env python3
"""AST-grounded concurrency lint for the epidemic tree (epilint).

protocol_lint.py catches protocol-shape hazards with line regexes; the rules
here need real syntax — lambda extents, capture lists, call structure — so
they run on the clang AST via the `clang` python bindings (libclang).

  task-capture-lifetime     a lambda handed to ShardScheduler::Post captures
                            by reference ([&] or [&x]): Post is
                            fire-and-forget, so the task can outlive every
                            captured frame and the reference dangles.
                            Execute/ExecuteBatch*/ExecuteExclusive join
                            before returning, so reference captures are fine
                            there (and idiomatic).
  seqlock-read-discipline   between an optimistic read sample (ReadBegin /
                            ReadVersion) and its Validate / ValidateVersion,
                            code must not write member or global state and
                            must not take the address of members: the read
                            section may be observing a torn snapshot, so it
                            has to stay side-effect free until validation
                            (runtime/optimistic_lock.h).
  relaxed-atomic-rationale  every std::memory_order_relaxed use needs a
                            `// relaxed:` comment on the same line or within
                            the 4 preceding lines saying why relaxed
                            ordering is sound (the window covers the
                            multi-line reset ? exchange : load statements in
                            Stats()-style reporting).
  scheduler-reentry         a task body calls back into a scheduler
                            (Execute / ExecuteBatch / ExecuteBatchIndexed /
                            ExecuteExclusive / Post): the task already runs
                            behind a shard gate, so re-entry self-deadlocks
                            or violates the drain-then-release invariant
                            (runtime/scheduler.h's reentry contract).
  decode-bounds-discipline  inside the decode TUs (the files that parse
                            untrusted network / disk bytes — DECODE_TUS
                            below), every read must flow through the
                            bounds-checked ByteReader / view API
                            (common/bytes.h). Raw pointer arithmetic,
                            subscripts on raw pointers, and memcpy/memmove
                            calls are rejected: each one is a place where a
                            forged length can walk past the end of the
                            input, which is exactly the bug class the fuzz
                            harnesses (fuzz/) exist to catch at run time.

relaxed-atomic-rationale is purely lexical and ALWAYS runs. The others
need libclang; when the bindings are unavailable the tool prints a skip
diagnostic and exits 0, so gcc-only checkouts stay usable while the CI
lint-ast job (pinned libclang) enforces the full set.

Findings are waivable with the same comment protocol_lint.py uses, on the
flagged line or the comment block right above it:

    // NOLINT-PROTOCOL(<rule>): <reason>

Usage:
    epilint_ast.py                     # lint src/ (uses build/compile_commands.json when present)
    epilint_ast.py --build-dir out     # explicit compilation database dir
    epilint_ast.py FILE [FILE...]      # lint specific files (fixture mode:
                                       # parsed standalone as C++17)
    epilint_ast.py --probe             # report whether libclang is usable

Exit status: 0 clean (or AST rules skipped), 1 violations, 2 usage errors;
--probe exits 0 when libclang loads and 3 when it does not.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

WAIVER_RE = re.compile(r"NOLINT-PROTOCOL\((?P<rules>[\w,\s-]+)\)\s*:\s*\S")
RELAXED_RE = re.compile(r"\bmemory_order_relaxed\b")
RATIONALE_RE = re.compile(r"//.*\brelaxed:")
# Lines the relaxed rule must not count as uses: the rationale convention
# documentation itself and string literals in this linter's fixtures.
RELAXED_LOOKBACK = 4

SCHEDULER_METHODS = {
    "Execute", "ExecuteBatch", "ExecuteBatchIndexed", "ExecuteExclusive",
    "Post",
}
READ_SAMPLE_METHODS = {"ReadBegin", "ReadVersion"}
READ_VALIDATE_METHODS = {"Validate", "ValidateVersion"}

# The TUs that decode untrusted bytes (network frames, snapshots, journal
# replay): decode-bounds-discipline applies only here. common/bytes.h is
# the blessed cursor implementation and is deliberately NOT listed — it is
# the one place allowed to do arithmetic, and its own correctness is pinned
# by common_bytes_test and the fuzz corpora.
DECODE_TUS = {
    "src/core/wire.h", "src/core/wire.cc",
    "src/core/snapshot.h", "src/core/snapshot.cc",
    "src/core/journal.h", "src/core/journal.cc",
    "src/net/codec.h", "src/net/codec.cc",
    "src/vv/vv_codec.h", "src/vv/vv_codec.cc",
    "src/tokens/token_service.cc",
}
RAW_COPY_FNS = {"memcpy", "memmove", "__builtin_memcpy", "__builtin_memmove"}


def is_decode_tu(path: Path, root: Path) -> bool:
    """True when `path` is one of the decode TUs (or a decode_bounds
    fixture, so the rule is testable standalone)."""
    if "decode_bounds" in path.name:
        return True
    try:
        return str(path.resolve().relative_to(root)) in DECODE_TUS
    except ValueError:
        return False


class Findings:
    def __init__(self, root: Path):
        self.root = root
        self.items: list[str] = []

    def report(self, path: Path, line: int, rule: str, message: str) -> None:
        try:
            shown = path.relative_to(self.root)
        except ValueError:
            shown = path
        self.items.append(f"{shown}:{line}: [{rule}] {message}")


def waived(lines: list[str], idx: int, rule: str) -> bool:
    """True if 0-based line idx or the contiguous comment block right above
    it carries a NOLINT-PROTOCOL waiver naming `rule` (same contract as
    protocol_lint.py; staleness of epilint waivers is protocol_lint's job
    via the shared syntax)."""
    probe = idx
    while probe >= 0:
        m = WAIVER_RE.search(lines[probe])
        if m:
            return rule in [r.strip() for r in m.group("rules").split(",")]
        if probe < idx and not lines[probe].lstrip().startswith("//"):
            return False
        probe -= 1
    return False


# ---------------------------------------------------------------------------
# Lexical rule: relaxed-atomic-rationale (no libclang needed).


def check_relaxed_rationale(findings: Findings, path: Path) -> None:
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        code = line.split("//", 1)[0]
        if not RELAXED_RE.search(code):
            continue
        window = lines[max(0, i - RELAXED_LOOKBACK): i + 1]
        if any(RATIONALE_RE.search(w) for w in window):
            continue
        if waived(lines, i, "relaxed-atomic-rationale"):
            continue
        findings.report(
            path, i + 1, "relaxed-atomic-rationale",
            "memory_order_relaxed without a `// relaxed:` rationale on this "
            "line or the 4 lines above — say why dropping the ordering is "
            "sound (monotonic stats counter, conservative probe, seqlock "
            "fence pairing, ...) per CONTRIBUTING.md",
        )


# ---------------------------------------------------------------------------
# AST rules (libclang).


def load_libclang():
    """Returns the clang.cindex module with a working Index, or None."""
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None
    try:
        cindex.Index.create()
        return cindex
    except Exception:
        # Bindings importable but libclang.so missing or version-mismatched;
        # try the common soname stems before giving up.
        for stem in ("libclang.so", "libclang-14.so.1", "libclang.so.14",
                     "libclang.so.1"):
            try:
                cindex.Config.set_library_file(stem)
                cindex.Index.create()
                return cindex
            except Exception:
                cindex.Config.loaded = False
                continue
        return None


def libclang_version(cindex) -> str:
    """Resolved libclang version string for --probe, e.g. 'clang version
    14.0.6'. Defensive: the CXString plumbing differs across binding
    versions, so any failure degrades to 'version unknown'."""
    try:
        from clang.cindex import _CXString  # type: ignore
        fn = cindex.conf.lib.clang_getClangVersion
        fn.restype = _CXString
        fn.errcheck = _CXString.from_result
        return str(fn())
    except Exception:
        return "version unknown"


def compile_args_for(path: Path, build_dir: Path, root: Path) -> list[str]:
    """Arguments for parsing `path`: from compile_commands.json when the
    build exported one, else a standalone C++17 parse against src/."""
    db = build_dir / "compile_commands.json"
    if db.exists():
        try:
            for entry in json.loads(db.read_text()):
                if Path(entry["file"]).resolve() == path.resolve():
                    raw = entry.get("arguments") or entry["command"].split()
                    args = []
                    skip_next = False
                    for a in raw[1:]:  # drop the compiler itself
                        if skip_next:
                            skip_next = False
                            continue
                        if a in ("-c", str(path)):
                            continue
                        if a == "-o":
                            skip_next = True
                            continue
                        args.append(a)
                    return args
        except (json.JSONDecodeError, KeyError, OSError):
            pass
    return ["-x", "c++", "-std=c++17", f"-I{root / 'src'}",
            "-DEPIDEMIC_CHECK_SHARD_CONTEXT=1"]


def walk(cursor):
    for child in cursor.get_children():
        yield child
        yield from walk(child)


def in_file(cursor, path: Path) -> bool:
    loc = cursor.location
    return loc.file is not None and Path(loc.file.name).resolve() == path


def extent_contains(outer, inner) -> bool:
    return (outer.start.offset <= inner.start.offset
            and inner.end.offset <= outer.end.offset)


def capture_list_tokens(cindex, lam) -> list[str]:
    """Tokens of the lambda introducer `[...]` (balanced brackets)."""
    out: list[str] = []
    depth = 0
    for tok in lam.get_tokens():
        s = tok.spelling
        out.append(s)
        if s == "[":
            depth += 1
        elif s == "]":
            depth -= 1
            if depth == 0:
                break
    return out


def binop_opcode(cursor) -> str:
    """Spelling of a BINARY_OPERATOR's operator token (py bindings for
    clang 14 do not expose it directly): the first token between the two
    operand extents."""
    children = list(cursor.get_children())
    if len(children) != 2:
        return ""
    lhs_end = children[0].extent.end.offset
    rhs_start = children[1].extent.start.offset
    for tok in cursor.get_tokens():
        off = tok.extent.start.offset
        if lhs_end <= off < rhs_start:
            return tok.spelling
    return ""


def pointer_operand(cindex, cursor) -> bool:
    """True when any direct operand of `cursor` has pointer type."""
    TK = cindex.TypeKind
    for child in cursor.get_children():
        if child.type.kind == TK.POINTER:
            return True
    return False


def check_decode_bounds(cindex, findings: Findings, path: Path, lines,
                        cursors) -> None:
    """decode-bounds-discipline: no raw pointer reads in decode TUs."""
    CK = cindex.CursorKind
    TK = cindex.TypeKind
    rule = "decode-bounds-discipline"
    for c in cursors:
        hit = None
        if c.kind in (CK.BINARY_OPERATOR, CK.COMPOUND_ASSIGNMENT_OPERATOR):
            op = binop_opcode(c)
            if op in ("+", "-", "+=", "-=") and pointer_operand(cindex, c):
                hit = ("raw pointer arithmetic in a decode TU — route the "
                       "read through ByteReader (GetBytesView/GetStringView "
                       "advance the cursor with bounds checks); a forged "
                       "length here walks past the end of the input")
        elif c.kind == CK.ARRAY_SUBSCRIPT_EXPR:
            base = next(iter(c.get_children()), None)
            if base is not None and base.type.kind == TK.POINTER:
                hit = ("subscript on a raw pointer in a decode TU — index "
                       "math on attacker-supplied offsets must go through "
                       "the bounds-checked cursor/view API (common/bytes.h)")
        elif c.kind == CK.CALL_EXPR and c.spelling in RAW_COPY_FNS:
            hit = (f"{c.spelling} in a decode TU — the length operand is "
                   "unchecked against the source; use ByteReader::GetBytes/"
                   "GetBytesView or PutBytes, which carry the bounds check")
        if hit is None:
            continue
        line = c.location.line
        if waived(lines, line - 1, rule):
            continue
        findings.report(path, line, rule, hit)


def check_ast_rules(cindex, findings: Findings, path: Path,
                    args: list[str], decode_tu: bool = False) -> bool:
    """Runs the AST rules on one TU. Returns False when the parse was
    too broken to trust (caller reports the diagnostic)."""
    index = cindex.Index.create()
    try:
        tu = index.parse(str(path), args=args)
    except cindex.TranslationUnitLoadError:
        return False
    fatal = [d for d in tu.diagnostics
             if d.severity >= cindex.Diagnostic.Fatal]
    if fatal:
        print(f"epilint: warning: {path}: parse failed "
              f"({fatal[0].spelling}); AST rules skipped for this file",
              file=sys.stderr)
        return False

    lines = path.read_text().splitlines()
    rpath = path.resolve()

    CK = cindex.CursorKind
    cursors = [c for c in walk(tu.cursor) if in_file(c, rpath)]

    if decode_tu:
        check_decode_bounds(cindex, findings, path, lines, cursors)

    lambdas = [c for c in cursors if c.kind == CK.LAMBDA_EXPR]
    sched_calls = [c for c in cursors
                   if c.kind == CK.CALL_EXPR
                   and c.spelling in SCHEDULER_METHODS]

    # A task lambda is one lexically inside a scheduler call's argument
    # list. Track the owning call so the reentry rule does not count it
    # against its own body.
    task_lambdas = []
    for lam in lambdas:
        owners = [c for c in sched_calls if extent_contains(c.extent,
                                                            lam.extent)]
        if owners:
            # Innermost owner: the call whose extent starts last.
            owner = max(owners, key=lambda c: c.extent.start.offset)
            task_lambdas.append((lam, owner))

    # -- rule: scheduler-reentry ----------------------------------------
    for lam, owner in task_lambdas:
        for call in sched_calls:
            if call is owner:
                continue
            if not extent_contains(lam.extent, call.extent):
                continue
            # A call nested in an inner lambda that is NOT itself inside
            # this lambda's task section still re-enters at run time if the
            # inner lambda runs inline; stay conservative and flag it.
            line = call.location.line
            if waived(lines, line - 1, "scheduler-reentry"):
                continue
            findings.report(
                path, line, "scheduler-reentry",
                f"task body calls ShardScheduler::{call.spelling} — the "
                "task already holds its shard gate, so re-entry "
                "self-deadlocks (inline fast path) or breaks the "
                "drain-then-release invariant (runtime/scheduler.h)",
            )

    # -- rule: task-capture-lifetime -------------------------------------
    for lam, owner in task_lambdas:
        if owner.spelling != "Post":
            continue
        toks = capture_list_tokens(cindex, lam)
        if "&" not in toks:
            continue
        line = lam.location.line
        if waived(lines, line - 1, "task-capture-lifetime"):
            continue
        findings.report(
            path, line, "task-capture-lifetime",
            "lambda posted fire-and-forget captures by reference "
            f"([{''.join(toks[1:-1])}]) — Post does not join, so the task "
            "can outlive the captured frame; capture by value or use "
            "Execute/ExecuteBatch, which join before returning",
        )

    # -- rule: seqlock-read-discipline -----------------------------------
    # For every function-like body that both samples (ReadBegin/ReadVersion)
    # and validates (Validate/ValidateVersion), the statements between the
    # first sample and the last validation must not write members/globals
    # or take a member's address.
    bodies = [c for c in cursors
              if c.kind in (CK.FUNCTION_DECL, CK.CXX_METHOD, CK.LAMBDA_EXPR,
                            CK.CONSTRUCTOR, CK.FUNCTION_TEMPLATE)
              and c.is_definition()]
    for body in bodies:
        calls = [c for c in cursors
                 if c.kind == CK.CALL_EXPR
                 and extent_contains(body.extent, c.extent)]
        samples = [c for c in calls if c.spelling in READ_SAMPLE_METHODS]
        validates = [c for c in calls if c.spelling in READ_VALIDATE_METHODS]
        if not samples or not validates:
            continue
        lo = min(c.extent.end.offset for c in samples)
        hi = max(c.extent.start.offset for c in validates)
        if hi <= lo:
            continue

        def in_section(c) -> bool:
            return lo <= c.extent.start.offset <= hi

        for c in cursors:
            if not extent_contains(body.extent, c.extent) or not in_section(c):
                continue
            hit = None
            if c.kind in (CK.BINARY_OPERATOR,
                          CK.COMPOUND_ASSIGNMENT_OPERATOR):
                op = binop_opcode(c)
                if (op == "=" or op.endswith("=")) and op not in (
                        "==", "!=", "<=", ">="):
                    lhs = next(iter(c.get_children()), None)
                    if lhs is not None and any(
                            d.kind == CK.MEMBER_REF_EXPR
                            for d in [lhs, *walk(lhs)]):
                        hit = ("writes member/shared state inside an "
                               "optimistic read section — the snapshot is "
                               "unvalidated and may be torn; buffer into "
                               "locals and commit after Validate "
                               "(runtime/optimistic_lock.h)")
            elif c.kind == CK.UNARY_OPERATOR:
                toks = list(c.get_tokens())
                if toks and toks[0].spelling == "&" and any(
                        d.kind == CK.MEMBER_REF_EXPR for d in walk(c)):
                    hit = ("takes the address of shared state inside an "
                           "optimistic read section — a retained pointer "
                           "outlives validation and can dangle into a "
                           "torn snapshot (runtime/optimistic_lock.h)")
            if hit is None:
                continue
            line = c.location.line
            if waived(lines, line - 1, "seqlock-read-discipline"):
                continue
            findings.report(path, line, "seqlock-read-discipline", hit)
    return True


# ---------------------------------------------------------------------------
# Drivers.


def default_sources(root: Path) -> list[Path]:
    src = root / "src"
    return sorted(src.rglob("*.h")) + sorted(src.rglob("*.cc"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root (default: the checkout containing this script)")
    parser.add_argument(
        "--build-dir", type=Path, default=None,
        help="build directory holding compile_commands.json "
             "(default: <root>/build)")
    parser.add_argument(
        "--probe", action="store_true",
        help="report whether libclang is usable and exit (0 yes, 3 no)")
    parser.add_argument(
        "files", nargs="*", type=Path,
        help="specific files to lint instead of src/ (fixture mode)")
    args = parser.parse_args()

    root = args.root.resolve()
    build_dir = (args.build_dir or (root / "build")).resolve()

    cindex = load_libclang()
    if args.probe:
        if cindex is None:
            print("epilint: libclang unavailable (need the python `clang` "
                  "bindings plus a loadable libclang.so)")
            return 3
        print(f"epilint: libclang available ({libclang_version(cindex)})")
        return 0

    if args.files:
        files = [f.resolve() for f in args.files]
        for f in files:
            if not f.exists():
                print(f"error: no such file: {f}", file=sys.stderr)
                return 2
    else:
        files = default_sources(root)

    findings = Findings(root)
    for f in files:
        if f.suffix in (".h", ".cc", ".cpp"):
            check_relaxed_rationale(findings, f)

    if cindex is None:
        print("epilint: libclang unavailable — AST rules "
              "(task-capture-lifetime, seqlock-read-discipline, "
              "scheduler-reentry, decode-bounds-discipline) SKIPPED; only "
              "relaxed-atomic-rationale ran. The CI lint-ast job enforces "
              "the full set.",
              file=sys.stderr)
    else:
        for f in files:
            if f.suffix not in (".h", ".cc", ".cpp"):
                continue
            check_ast_rules(cindex, findings, f,
                            compile_args_for(f, build_dir, root),
                            decode_tu=is_decode_tu(f, root))

    for item in findings.items:
        print(item)
    if findings.items:
        print(f"epilint: {len(findings.items)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
