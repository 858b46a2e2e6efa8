#!/usr/bin/env python3
"""Protocol-level lint for the epidemic tree.

Catches hazards the compiler (even with -Wthread-safety) cannot see:

  wire-tag-duplicate    two entries of a wire enum share a numeric tag
                        (src/net/codec.h, src/core/wire.h)
  wire-tag-v3-range     tags 17-31 are reserved for wire v3: an enum entry
                        named *V3 must take a value in that range, and a
                        non-V3 entry must not (docs/PROTOCOL.md)
  unlogged-store-write  a mutation path in core/replica.cc obtains a
                        mutable item (store_.GetOrCreate) without a paired
                        AddLogRecord / DBVV bump in the same function
  doc-unknown-tag       docs/PROTOCOL.md, EXPERIMENTS.md or DESIGN.md
                        reference a wire tag number that does not exist in
                        net::MessageType
  unguarded-mutex       a raw std::mutex declaration (must use the
                        annotated epidemic::Mutex), or an epidemic::Mutex
                        member no GUARDED_BY/PT_GUARDED_BY/REQUIRES names
  shard-lock-outside-runtime
                        shard state synchronized with mutexes outside
                        src/runtime: a striped mutex array, a shard-named
                        mutex, or an indexed per-shard MutexLock. Shards
                        are single-writer — all access runs as tasks on
                        runtime::ShardScheduler (DESIGN.md §11)
  nondeterminism        protocol code (src/core, src/log, src/vv, src/sim,
                        src/runtime)
                        reads wall clocks, host entropy, C-library RNG
                        state, std <random> engines, or iterates/hashes by
                        pointer address — any of which would make epicheck's
                        state exploration and trace replay unsound
  serve-cache-discipline
                        the fan-out serve cache (DESIGN.md §14) publishes
                        frames to concurrent serves through shared_ptr: a
                        cached-frame slot or entry typed as a non-const
                        shared_ptr (mutable after publication), or an
                        InsertServeCache call with no MutationEpoch()
                        re-check nearby (a frame built across a mutation
                        could mix shard states from two epochs)
  stale-waiver          a NOLINT-PROTOCOL comment (or one of the rules it
                        names) that no longer suppresses any finding; stale
                        waivers must be deleted or narrowed, not waived

A finding can be waived with a same-function (unlogged-store-write) or
nearby-line comment:

    // NOLINT-PROTOCOL(<rule>): <reason>

The reason is mandatory: waivers are how exceptions to the protocol
discipline get documented. Every waiver must currently suppress at least
one finding — otherwise it is itself reported (stale-waiver).

Usage:
    protocol_lint.py                 # lint the whole repository
    protocol_lint.py FILE [FILE...]  # lint specific files (fixture/test
                                     # mode: wire-tag + mutex rules only)

Exit status: 0 when clean, 1 when any violation is reported, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

WAIVER_RE = re.compile(r"NOLINT-PROTOCOL\((?P<rules>[\w,\s-]+)\)\s*:\s*\S")

# Declaration of a raw standard mutex (any flavour). Template usages such
# as std::lock_guard<std::mutex> also match on purpose: they imply a raw
# mutex somewhere and bypass the annotated epidemic::Mutex.
STD_MUTEX_RE = re.compile(r"\bstd::(?:recursive_|shared_|timed_)*mutex\b")

# Declaration of an annotated mutex member/global:
#   Mutex mu_;   mutable Mutex mu;   epidemic::Mutex g_mu;
# and the striped-array form: std::unique_ptr<Mutex[]> shard_mu_;
EPI_MUTEX_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:epidemic::)?Mutex\s+(?P<name>\w+)"
    r"(?:\s+\w+\([^;]*\))?\s*(?:;|=|\{)"  # optional ACQUIRED_BEFORE(...) etc.
)
EPI_MUTEX_ARRAY_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?std::unique_ptr<(?:epidemic::)?Mutex\[\]>\s+"
    r"(?P<name>\w+)\s*;"
)

ENUM_HEAD_RE = re.compile(r"^\s*enum\s+(?:class\s+|struct\s+)?(?P<name>\w+)")
ENUM_ENTRY_RE = re.compile(r"^\s*(?P<entry>k\w+)\s*(?:=\s*(?P<value>\d+))?\s*,?")

# "tag 14", "tags 14/15/16", "Tags 14-16", "tags 14–16" (en dash).
DOC_TAG_RE = re.compile(r"\btags?\s+(?P<spec>\d+(?:\s*[-–—/,]\s*\d+)*)", re.I)

FUNC_DEF_RE = re.compile(r"^[\w:<>,&*~\s]+\b(?P<name>\w+)::(?P<method>\w+)\s*\(")

MUTATING_STORE_RE = re.compile(r"\bstore_\.GetOrCreate\s*\(")
BOOKKEEPING_RE = re.compile(
    r"\bAddLogRecord\s*\(|\bdbvv_\.(?:Increment|AddDelta)\s*\("
)

# Sources of run-to-run nondeterminism banned from protocol code. The model
# checker replays snapshots of this code and hashes its canonical state; one
# wall-clock read or address-ordered iteration makes counterexample replay
# unsound. (pattern, explanation) — the first matching pattern per line wins.
NONDET_PATTERNS: list[tuple[re.Pattern[str], str]] = [
    (re.compile(r"\bstd::random_device\b"),
     "std::random_device draws host entropy — thread a seeded "
     "epidemic::Rng through instead"),
    (re.compile(r"\b(?:std::)?(?:s?rand|[dlm]rand48)\s*\("),
     "C-library RNG reads hidden global state"),
    (re.compile(r"\bstd::(?:mt19937(?:_64)?|minstd_rand0?"
                r"|default_random_engine|ranlux\d+(?:_base)?|knuth_b)\b"),
     "std <random> engine — use the explicitly seeded epidemic::Rng"),
    (re.compile(r"\bstd::chrono::(?:system|steady|high_resolution)"
                r"_clock::now\b|\bgettimeofday\s*\(|\bclock_gettime\s*\("
                r"|\btime\s*\(\s*(?:nullptr|NULL|0)?\s*\)|\bRealClock\b"),
     "wall-clock read — protocol code must take time as an argument "
     "(the sim's virtual clock, a TimeMicros parameter)"),
    (re.compile(r"\bstd::hash<[^<>]*\*\s*>"),
     "hashing a pointer is address-dependent and varies run to run"),
    (re.compile(r"\bstd::unordered_(?:map|set|multimap|multiset)"
                r"<\s*(?:const\s+)?[\w:\s]+\*"),
     "container keyed on pointer addresses iterates in a run-dependent "
     "order"),
]

# Directories under src/ whose code feeds the model checker's state space
# and therefore must be schedule-deterministic. "runtime" is here because
# the checker drives the daemon's inline scheduler: a clock or entropy
# read in the task runtime would leak into every sharded exploration.
NONDET_DIRS = ("core", "log", "vv", "sim", "runtime")

# Striped shard locking, the shape the shard-owner scheduler retired
# (DESIGN.md §11): an array of mutexes indexed by shard, a mutex named
# after shards, or an indexed per-shard lock acquisition. Shard state is
# single-writer — access runs as tasks on runtime::ShardScheduler, and
# only src/runtime may implement the synchronization underneath.
SHARD_LOCK_PATTERNS: list[tuple[re.Pattern[str], str]] = [
    (re.compile(r"std::unique_ptr<\s*(?:epidemic::|std::)?[Mm]utex\s*"
                r"\[\s*\]\s*>|"
                r"std::(?:vector|array)<\s*(?:epidemic::|std::)?[Mm]utex\b"),
     "an array of mutexes is the striped-shard-lock shape the scheduler "
     "replaced"),
    (re.compile(r"^\s*(?:mutable\s+)?(?:epidemic::)?Mutex\s+"
                r"\w*[Ss]hard\w*\s*(?:;|=|\{)"),
     "a mutex named after shards guards shard state directly"),
    (re.compile(r"\bMutexLock\s+\w+\s*\(\s*[^)]*[Ss]hard[^)]*\["),
     "indexed acquisition of a per-shard mutex (striped-lock relapse)"),
]


# Serve-cache discipline (DESIGN.md §14). Cached reply frames are handed
# to concurrent serve paths by aliasing shared_ptr, so they must be
# immutable the moment they are published: any cached-frame slot or entry
# declared as shared_ptr<T> with a mutable T is a data race waiting for
# the first post-publication touch. And a frame is only sound to cache if
# the scheduler's mutation epoch provably did not advance while it was
# being built — epoch keying pins every in-between sample to one state.
SERVE_CACHE_MUTABLE_RE = re.compile(
    r"std::shared_ptr<\s*(?!const\b)[^<>]*Cached\w*Frame"
)
SERVE_CACHE_INSERT_RE = re.compile(r"\bInsertServeCache\s*\(")
# Definition/declaration lines ("void [Class::]InsertServeCache(...)")
# are not call sites.
SERVE_CACHE_DEF_RE = re.compile(r"\bvoid\b[^;{=]*\bInsertServeCache\s*\(")
SERVE_CACHE_EPOCH_RE = re.compile(
    r"MutationEpoch\s*\(\s*\)\s*==|==\s*[\w.>-]*\s*MutationEpoch\s*\(\s*\)"
)
SERVE_CACHE_EPOCH_WINDOW = 12


class Linter:
    def __init__(self, root: Path):
        self.root = root
        self.findings: list[str] = []
        # (path, 0-based line, rule) of every waiver rule that suppressed a
        # finding. Tracked per rule, not per line: a waiver naming several
        # rules is stale rule-by-rule, and one live rule must not carry its
        # dead neighbours.
        self.used_waivers: set[tuple[Path, int, str]] = set()

    def report(self, path: Path, line: int, rule: str, message: str) -> None:
        try:
            shown = path.relative_to(self.root)
        except ValueError:
            shown = path
        self.findings.append(f"{shown}:{line}: [{rule}] {message}")

    # -- waivers ----------------------------------------------------------

    def waived(self, path: Path, lines: list[str], idx: int,
               rule: str) -> bool:
        """True if line idx (0-based) or the contiguous comment block right
        above it carries a NOLINT-PROTOCOL waiver naming `rule`. Matching
        waivers are recorded as used for stale-waiver detection."""
        probe = idx
        while probe >= 0:
            m = WAIVER_RE.search(lines[probe])
            if m:
                if rule in [r.strip() for r in m.group("rules").split(",")]:
                    self.used_waivers.add((path, probe, rule))
                    return True
                return False
            if probe < idx and not lines[probe].lstrip().startswith("//"):
                return False
            probe -= 1
        return False

    # -- rule: wire-tag-duplicate ----------------------------------------

    def check_wire_tags(self, path: Path) -> dict[str, set[int]]:
        """Reports duplicated tag values; returns {enum name: {values}}."""
        enums: dict[str, set[int]] = {}
        if not path.exists():
            return enums
        lines = path.read_text().splitlines()
        current = None
        seen: dict[int, str] = {}
        next_implicit = 0
        for i, line in enumerate(lines):
            head = ENUM_HEAD_RE.match(line)
            if head:
                current = head.group("name")
                enums[current] = set()
                seen = {}
                next_implicit = 0
                continue
            if current is None:
                continue
            if "}" in line:
                current = None
                continue
            entry = ENUM_ENTRY_RE.match(line)
            if not entry:
                continue
            value = (
                int(entry.group("value"))
                if entry.group("value") is not None
                else next_implicit
            )
            next_implicit = value + 1
            name = entry.group("entry")
            if value in seen and not self.waived(path, lines, i,
                                                 "wire-tag-duplicate"):
                self.report(
                    path, i + 1, "wire-tag-duplicate",
                    f"{current}::{name} reuses tag {value} already taken by "
                    f"{seen[value]} — wire tags are append-only and must be "
                    "unique (CONTRIBUTING.md)",
                )
            seen.setdefault(value, name)
            enums[current].add(value)

            # -- rule: wire-tag-v3-range ---------------------------------
            # docs/PROTOCOL.md reserves tags 17-31 for the v3 wire format:
            # the range is what lets a v2 decoder classify an unseen v3 tag
            # as "newer format" rather than garbage. Enforce it both ways.
            in_v3_range = 17 <= value <= 31
            is_v3_name = "V3" in name
            if (in_v3_range != is_v3_name and
                    not self.waived(path, lines, i, "wire-tag-v3-range")):
                if is_v3_name:
                    why = (f"{current}::{name} is a v3 entry but takes tag "
                           f"{value}, outside the reserved v3 range 17-31")
                else:
                    why = (f"{current}::{name} takes tag {value} inside the "
                           "range 17-31, which is reserved for wire-v3 "
                           "entries (suffix V3)")
                self.report(path, i + 1, "wire-tag-v3-range",
                            why + " (docs/PROTOCOL.md)")
        return enums

    # -- rule: unlogged-store-write --------------------------------------

    def check_store_mutations(self, path: Path) -> None:
        if not path.exists():
            return
        text = path.read_text()
        lines = text.splitlines()
        # Walk top-level function definitions by brace matching.
        i = 0
        while i < len(lines):
            m = FUNC_DEF_RE.match(lines[i])
            if not m:
                i += 1
                continue
            # Find the opening brace of the body, then its matching close.
            depth = 0
            start = i
            opened = False
            j = i
            while j < len(lines):
                depth += lines[j].count("{") - lines[j].count("}")
                if "{" in lines[j]:
                    opened = True
                if opened and depth == 0:
                    break
                j += 1
            body = "\n".join(lines[start : j + 1])
            func = f"{m.group('name')}::{m.group('method')}"
            if MUTATING_STORE_RE.search(body):
                in_body_re = re.compile(
                    r"NOLINT-PROTOCOL\([^)]*unlogged-store-write[^)]*\)\s*:\s*\S"
                )
                in_body = None
                for bi in range(start, j + 1):
                    if bi < len(lines) and in_body_re.search(lines[bi]):
                        in_body = bi
                        break
                if in_body is not None:
                    self.used_waivers.add((path, in_body,
                                           "unlogged-store-write"))
                if (not BOOKKEEPING_RE.search(body) and in_body is None
                        and not self.waived(path, lines, start,
                                            "unlogged-store-write")):
                    self.report(
                        path, start + 1, "unlogged-store-write",
                        f"{func} mutates the item store "
                        "(store_.GetOrCreate) without a paired AddLogRecord "
                        "or DBVV bump — the §4.1 invariant "
                        "V_i[l] == Σ_x v_i(x)[l] breaks if the copy changes "
                        "without bookkeeping",
                    )
            i = j + 1

    # -- rule: doc-unknown-tag -------------------------------------------

    def check_doc_tags(self, doc: Path, known: set[int]) -> None:
        if not doc.exists():
            return
        for i, line in enumerate(doc.read_text().splitlines()):
            for m in DOC_TAG_RE.finditer(line):
                spec = m.group("spec")
                nums = [int(x) for x in re.split(r"[-–—/,]", spec) if x.strip()]
                referenced: set[int] = set()
                if len(nums) == 2 and ("-" in spec or "–" in spec or "—" in spec):
                    referenced.update(range(nums[0], nums[1] + 1))
                else:
                    referenced.update(nums)
                for tag in sorted(referenced):
                    if tag not in known:
                        self.report(
                            doc, i + 1, "doc-unknown-tag",
                            f"references wire tag {tag}, which does not "
                            "exist in net::MessageType — fix the doc or add "
                            "the tag",
                        )

    # -- rule: unguarded-mutex -------------------------------------------

    def check_mutexes(self, path: Path) -> None:
        if not path.exists():
            return
        text = path.read_text()
        lines = text.splitlines()
        for i, line in enumerate(lines):
            code = line.split("//", 1)[0]
            if STD_MUTEX_RE.search(code):
                if not self.waived(path, lines, i, "unguarded-mutex"):
                    self.report(
                        path, i + 1, "unguarded-mutex",
                        "raw std::mutex — use the annotated epidemic::Mutex "
                        "and MutexLock from common/thread_annotations.h so "
                        "-Wthread-safety can check the lock discipline",
                    )
                continue
            decl = EPI_MUTEX_DECL_RE.match(code) or EPI_MUTEX_ARRAY_DECL_RE.match(
                code
            )
            if decl:
                name = decl.group("name")
                guarded = re.search(
                    r"\b(?:PT_)?GUARDED_BY\(\s*" + re.escape(name) + r"\b",
                    text,
                ) or re.search(
                    r"\bREQUIRES(?:_SHARED)?\(\s*" + re.escape(name) + r"\b",
                    text,
                )
                if not guarded and not self.waived(path, lines, i,
                                                   "unguarded-mutex"):
                    self.report(
                        path, i + 1, "unguarded-mutex",
                        f"mutex '{name}' guards nothing: no GUARDED_BY/"
                        "PT_GUARDED_BY/REQUIRES in this file names it — "
                        "annotate what it protects, or waive with "
                        "NOLINT-PROTOCOL(unguarded-mutex): <reason>",
                    )

    # -- rule: shard-lock-outside-runtime --------------------------------

    def check_shard_locks(self, path: Path) -> None:
        if not path.exists():
            return
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            code = line.split("//", 1)[0]
            for pattern, why in SHARD_LOCK_PATTERNS:
                if not pattern.search(code):
                    continue
                if not self.waived(path, lines, i,
                                   "shard-lock-outside-runtime"):
                    self.report(
                        path, i + 1, "shard-lock-outside-runtime",
                        f"{why} — shard state is single-writer: route the "
                        "access through a runtime::ShardScheduler task "
                        "(DESIGN.md §11); only src/runtime implements shard "
                        "synchronization",
                    )
                break  # one finding per line

    # -- rule: serve-cache-discipline ------------------------------------

    def check_serve_cache(self, path: Path) -> None:
        if not path.exists():
            return
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            code = line.split("//", 1)[0]
            if SERVE_CACHE_MUTABLE_RE.search(code):
                if not self.waived(path, lines, i, "serve-cache-discipline"):
                    self.report(
                        path, i + 1, "serve-cache-discipline",
                        "cached serve frame held through a non-const "
                        "shared_ptr — a published frame is read by "
                        "concurrent serves and must be immutable: type the "
                        "slot/entry std::shared_ptr<const ...> and finish "
                        "building before publishing (DESIGN.md §14)",
                    )
                continue
            if (SERVE_CACHE_INSERT_RE.search(code)
                    and not SERVE_CACHE_DEF_RE.search(code)):
                lo = max(0, i - SERVE_CACHE_EPOCH_WINDOW)
                window = [ln.split("//", 1)[0] for ln in lines[lo:i + 1]]
                if any(SERVE_CACHE_EPOCH_RE.search(w) for w in window):
                    continue
                if not self.waived(path, lines, i, "serve-cache-discipline"):
                    self.report(
                        path, i + 1, "serve-cache-discipline",
                        "InsertServeCache call with no MutationEpoch() "
                        "equality re-check in the preceding "
                        f"{SERVE_CACHE_EPOCH_WINDOW} lines — a frame built "
                        "while a mutation landed can mix shard states from "
                        "two epochs; sample the epoch before building and "
                        "insert only if it is unchanged (DESIGN.md §14)",
                    )

    # -- rule: nondeterminism --------------------------------------------

    def check_nondeterminism(self, path: Path) -> None:
        if not path.exists():
            return
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            code = line.split("//", 1)[0]
            for pattern, why in NONDET_PATTERNS:
                if not pattern.search(code):
                    continue
                if not self.waived(path, lines, i, "nondeterminism"):
                    self.report(
                        path, i + 1, "nondeterminism",
                        f"{why} — protocol code must be deterministic so "
                        "epicheck's state hashing and trace replay stay "
                        "sound; waive with NOLINT-PROTOCOL(nondeterminism): "
                        "<reason> if the value provably never reaches "
                        "protocol state",
                    )
                break  # one finding per line

    # -- rule: stale-waiver ----------------------------------------------

    def check_stale_waivers(self, paths: list[Path]) -> None:
        """Must run after every other check: reports waiver rules that
        suppressed nothing. Checked per rule — a waiver naming several rules
        only stays if *every* named rule still fires; otherwise the dead
        rules are reported individually. Deliberately unwaivable — a stale
        waiver is dead documentation and gets deleted (or narrowed), not
        re-waived."""
        skip = self.root / "src" / "common" / "thread_annotations.h"
        for path in sorted(set(paths)):
            if path == skip or not path.exists():
                continue
            lines = path.read_text().splitlines()
            for i, line in enumerate(lines):
                m = WAIVER_RE.search(line)
                if not m:
                    continue
                rules = [r.strip() for r in m.group("rules").split(",")]
                dead = [r for r in rules
                        if (path, i, r) not in self.used_waivers]
                if not dead:
                    continue
                if len(dead) == len(rules):
                    self.report(
                        path, i + 1, "stale-waiver",
                        f"NOLINT-PROTOCOL({', '.join(rules)}) no longer "
                        "suppresses any finding — the waived code is gone or "
                        "the rule no longer fires; delete the waiver",
                    )
                else:
                    self.report(
                        path, i + 1, "stale-waiver",
                        f"NOLINT-PROTOCOL({', '.join(rules)}) names "
                        f"rule(s) that no longer fire here: {', '.join(dead)}"
                        " — narrow the waiver to the rules it still "
                        "suppresses",
                    )

    # -- drivers ----------------------------------------------------------

    def lint_repo(self) -> None:
        codec = self.root / "src" / "net" / "codec.h"
        wire = self.root / "src" / "core" / "wire.h"
        enums = self.check_wire_tags(codec)
        self.check_wire_tags(wire)
        known = enums.get("MessageType", set())
        self.check_store_mutations(self.root / "src" / "core" / "replica.cc")
        for doc in ("docs/PROTOCOL.md", "EXPERIMENTS.md", "DESIGN.md"):
            self.check_doc_tags(self.root / doc, known)
        skip = self.root / "src" / "common" / "thread_annotations.h"
        sources = sorted((self.root / "src").rglob("*.h")) + sorted(
            (self.root / "src").rglob("*.cc")
        )
        runtime_dir = self.root / "src" / "runtime"
        for path in sources:
            if path == skip:
                continue
            self.check_mutexes(path)
            self.check_serve_cache(path)
            if runtime_dir not in path.parents:
                self.check_shard_locks(path)
        for sub in NONDET_DIRS:
            for path in sorted((self.root / "src" / sub).rglob("*.h")) + sorted(
                (self.root / "src" / sub).rglob("*.cc")
            ):
                self.check_nondeterminism(path)
        self.check_stale_waivers(sources)

    def lint_files(self, files: list[Path]) -> None:
        for path in files:
            if not path.exists():
                print(f"error: no such file: {path}", file=sys.stderr)
                sys.exit(2)
            self.check_wire_tags(path)
            if path.suffix in (".h", ".cc"):
                self.check_mutexes(path)
                self.check_serve_cache(path)
                self.check_shard_locks(path)
                self.check_nondeterminism(path)
            if path.name == "replica.cc":
                self.check_store_mutations(path)
        self.check_stale_waivers(files)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root (default: the checkout containing this script)",
    )
    parser.add_argument(
        "files",
        nargs="*",
        type=Path,
        help="specific files to lint instead of the whole repository",
    )
    args = parser.parse_args()

    linter = Linter(args.root.resolve())
    if args.files:
        linter.lint_files(args.files)
    else:
        linter.lint_repo()

    for finding in linter.findings:
        print(finding)
    if linter.findings:
        print(f"protocol_lint: {len(linter.findings)} violation(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
