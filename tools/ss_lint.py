#!/usr/bin/env python3
"""SparkScore project lint: stdlib-only enforcement of repo invariants.

Rules (see docs/STATIC_ANALYSIS.md for rationale and examples):

  naked-new        `new`/`delete` expressions are confined to src/support/;
                   everywhere else ownership goes through containers and
                   make_unique/make_shared. Intentional exceptions (leaked
                   process-global singletons) carry a suppression comment.
  nodiscard        `Status` and `Result` must stay declared [[nodiscard]]
                   so the compiler rejects silently dropped error codes,
                   and no source line re-introduces `std::rand`-style
                   fire-and-forget error handling by assigning a Status
                   to an unused dummy.
  std-rand         `std::rand`, `srand`, `std::random_device` and the
                   <random> engines are banned: all randomness must flow
                   through ss::Rng (support/rng.hpp) so runs stay
                   deterministic and replayable from one seed.
  pragma-once      every project header uses `#pragma once` (no #ifndef
                   guards, no guard/pragma mixes).
  iwyu-project     a file that includes a project header must actually use
                   an identifier that header declares, and a .cpp must
                   include its own header first — include-what-you-use,
                   scoped to project headers only.
  simd-dispatch    raw SIMD — `__AVX2__`/`__SSE2__` preprocessor tests and
                   the <immintrin.h>/<emmintrin.h> intrinsic headers — is
                   confined to src/stats/kernels/. Everywhere else goes
                   through the runtime dispatch table (kernels.hpp), so
                   a single SS_KERNEL switch really covers every SIMD
                   code path.
  mmap-confine     raw memory-mapped I/O — `mmap`/`munmap`/`madvise`/
                   `ftruncate` calls and the <sys/mman.h> header — is
                   confined to src/dfs/genotype_store.cpp. Everywhere
                   else reads store files through dfs::GenotypeStore so
                   mapping lifetimes, page-cache advice, and corruption
                   handling stay in one audited translation unit.
  faithful-confine the paper-faithful U RDD state and its builders —
                   `u_observed_`, `BuildU`, `SetScoresFromU`,
                   `EnsureUBuilt`, `snp_to_sets_` — are confined to
                   src/core/paper_faithful.*. The default path scores
                   packed genotypes and never names them, so U cannot
                   creep back into a default run unnoticed.
  naked-mutex      raw `std::mutex` (and lock_guard/unique_lock/plain
                   condition_variable) is confined to src/support/; the
                   rest of src/ locks through support::RankedMutex and
                   its MutexLock/UniqueLock guards so every acquisition
                   carries a rank and thread-safety annotations.
  guarded-by-coverage
                   a RankedMutex declared in src/ must be referenced by at
                   least one SS_GUARDED_BY / SS_PT_GUARDED_BY /
                   SS_REQUIRES / SS_ASSERT_HELD annotation in the same
                   file — a mutex protecting nothing annotated is either
                   unannotated state (fix it) or needs a waiver comment.
  lock-rank-registry
                   every RankedMutex in src/ is constructed from a
                   `lock_rank::k<Name>` entry in the single registry
                   (src/support/lock_ranks.hpp); duplicate names or ranks
                   in the registry are rejected.
  counter-doc-sync every counter name used with CounterRegistry
                   Get/Add (or a *Counter helper) in src/, tests/,
                   tools/, bench/, or examples/ must be documented in
                   docs/OBSERVABILITY.md; the "test." namespace is
                   exempt (scoped test-scratch counters).

A finding is suppressed by appending `// ss-lint: allow(<rule>) <why>` to
the offending line (or the line directly above it).
Exit code: 0 clean, 1 findings, 2 usage error.

Usage: ss_lint.py [--root DIR] [--list-rules] [--github]
"""

import argparse
import os
import re
import sys

SRC_DIRS = ("src",)
ALL_CODE_DIRS = ("src", "tests", "tools", "bench", "examples")
SUPPRESS_RE = re.compile(r"//\s*ss-lint:\s*allow\(([a-z\-,\s]+)\)")

FINDINGS = []


def finding(path, line_no, rule, message, line=""):
    match = SUPPRESS_RE.search(line)
    if match and rule in [r.strip() for r in match.group(1).split(",")]:
        return
    FINDINGS.append((path, line_no, rule, message))


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving newlines
    and the suppression comments (kept so per-line allows still match)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            end = text.find("\n", i)
            end = n if end == -1 else end
            comment = text[i:end]
            out.append(comment if "ss-lint:" in comment else " " * len(comment))
            i = end
        elif c == "/" and nxt == "*":
            end = text.find("*/", i + 2)
            end = n if end == -1 else end + 2
            out.append(re.sub(r"[^\n]", " ", text[i:end]))
            i = end
        elif c == "'" and i > 0 and (text[i - 1].isalnum() or
                                     text[i - 1] == "_"):
            out.append(c)  # digit separator (1'000'000), not a char literal
            i += 1
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + quote if j - i >= 2 else c)
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def iter_files(root, dirs, exts):
    for base in dirs:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, base)):
            dirnames[:] = [d for d in dirnames if d != "CMakeFiles"]
            for name in sorted(filenames):
                if os.path.splitext(name)[1] in exts:
                    yield os.path.join(dirpath, name)


def rel(root, path):
    return os.path.relpath(path, root)


# --- rule: naked-new -------------------------------------------------------

NEW_RE = re.compile(r"\bnew\b\s*(\(\s*std::nothrow\s*\)\s*)?[A-Za-z_(:<]")
DELETE_RE = re.compile(r"\bdelete\b(\s*\[\s*\])?\s*[A-Za-z_(*]")


def check_naked_new(root):
    for path in iter_files(root, SRC_DIRS, {".cpp", ".hpp"}):
        rpath = rel(root, path)
        if rpath.startswith(os.path.join("src", "support") + os.sep):
            continue
        with open(path, encoding="utf-8") as handle:
            raw_lines = handle.read().splitlines()
        stripped = strip_comments_and_strings("\n".join(raw_lines)).splitlines()
        for no, (line, raw) in enumerate(zip(stripped, raw_lines), 1):
            # Suppressions may sit on the line itself or the one above it.
            context = (raw_lines[no - 2] + "\n" if no >= 2 else "") + raw
            if NEW_RE.search(line):
                finding(rpath, no, "naked-new",
                        "naked `new` outside src/support/ — use make_unique/"
                        "make_shared or a container", context)
            if DELETE_RE.search(line) and "= delete" not in line:
                finding(rpath, no, "naked-new",
                        "naked `delete` outside src/support/", context)


# --- rule: nodiscard -------------------------------------------------------

def check_nodiscard(root):
    status_hpp = os.path.join(root, "src", "support", "status.hpp")
    with open(status_hpp, encoding="utf-8") as handle:
        text = handle.read()
    if not re.search(r"class\s*\[\[nodiscard\]\]\s*Status\b", text):
        finding("src/support/status.hpp", 1, "nodiscard",
                "class Status must be declared [[nodiscard]]")
    if not re.search(r"class\s*\[\[nodiscard\]\]\s*Result\b", text):
        finding("src/support/status.hpp", 1, "nodiscard",
                "class Result must be declared [[nodiscard]]")
    # A Status assigned to a never-read dummy defeats [[nodiscard]]; the
    # deliberate-drop idiom is a (void) cast.
    dummy = re.compile(r"\b(?:ss::)?Status\s+(_|unused|ignored?|dummy)\s*=")
    for path in iter_files(root, SRC_DIRS, {".cpp", ".hpp"}):
        rpath = rel(root, path)
        with open(path, encoding="utf-8") as handle:
            raw_lines = handle.read().splitlines()
        stripped = strip_comments_and_strings("\n".join(raw_lines)).splitlines()
        for no, (line, raw) in enumerate(zip(stripped, raw_lines), 1):
            if dummy.search(line):
                finding(rpath, no, "nodiscard",
                        "Status assigned to a dummy variable — handle it or "
                        "drop it explicitly with (void)", raw)


# --- rule: std-rand --------------------------------------------------------

BANNED_RANDOM = re.compile(
    r"\bstd::(rand|srand|random_device|mt19937(_64)?|minstd_rand0?|"
    r"default_random_engine|uniform_(int|real)_distribution|"
    r"normal_distribution|bernoulli_distribution)\b|(?<![\w:])s?rand\s*\(")


def check_std_rand(root):
    for path in iter_files(root, ALL_CODE_DIRS, {".cpp", ".hpp", ".cc", ".h"}):
        rpath = rel(root, path)
        with open(path, encoding="utf-8") as handle:
            raw_lines = handle.read().splitlines()
        stripped = strip_comments_and_strings("\n".join(raw_lines)).splitlines()
        for no, (line, raw) in enumerate(zip(stripped, raw_lines), 1):
            match = BANNED_RANDOM.search(line)
            if match:
                finding(rpath, no, "std-rand",
                        f"banned randomness source `{match.group(0).strip()}` "
                        "— use ss::Rng (support/rng.hpp)", raw)


# --- rule: pragma-once -----------------------------------------------------

def check_pragma_once(root):
    for path in iter_files(root, SRC_DIRS, {".hpp", ".h"}):
        rpath = rel(root, path)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        if "#pragma once" not in text:
            finding(rpath, 1, "pragma-once",
                    "header lacks `#pragma once` (repo convention; no "
                    "#ifndef guards)")
        stripped = strip_comments_and_strings(text)
        guard = re.search(r"#ifndef\s+\w+_(H|HPP|H_|HPP_)\b", stripped)
        if guard:
            line_no = stripped[:guard.start()].count("\n") + 1
            finding(rpath, line_no, "pragma-once",
                    "#ifndef include guard mixed with the pragma-once "
                    "convention")


# --- rule: iwyu-project ----------------------------------------------------

DECL_RES = (
    re.compile(r"\b(?:class|struct)\s+(?:\[\[nodiscard\]\]\s*)?(\w+)"),
    re.compile(r"\benum\s+(?:class\s+)?(\w+)"),
    re.compile(r"#define\s+(\w+)"),
    re.compile(r"\busing\s+(\w+)\s*="),
    re.compile(r"^[\w:<>,&*\s]+?\b(\w+)\s*\(", re.M),
    re.compile(r"\bconstexpr\s+[\w:<>]+\s+(\w+)"),
    re.compile(r"\binline\s+[\w:<>]+\s+(\w+)\s*[;{=]"),
)
GENERIC_NAMES = {"main", "operator", "if", "for", "while", "switch", "do",
                 "return", "sizeof", "decltype", "static_assert"}


def header_symbols(text):
    """Identifiers a header plausibly declares, for usage matching."""
    stripped = strip_comments_and_strings(text)
    symbols = set()
    for regex in DECL_RES:
        for match in regex.finditer(stripped):
            name = match.group(1)
            if name not in GENERIC_NAMES and len(name) > 2:
                symbols.add(name)
    return symbols


INCLUDE_RE = re.compile(r'^\s*#include\s+"([^"]+)"', re.M)


def check_iwyu(root):
    symbol_cache = {}

    def symbols_for(header_rel):
        if header_rel not in symbol_cache:
            path = os.path.join(root, "src", header_rel)
            if not os.path.isfile(path):
                symbol_cache[header_rel] = None
            else:
                with open(path, encoding="utf-8") as handle:
                    symbol_cache[header_rel] = header_symbols(handle.read())
        return symbol_cache[header_rel]

    for path in iter_files(root, SRC_DIRS, {".cpp", ".hpp"}):
        rpath = rel(root, path)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        stripped = strip_comments_and_strings(text)
        includes = INCLUDE_RE.findall(text)

        # A .cpp must pair with its header as the first project include.
        if rpath.endswith(".cpp"):
            own = rel(os.path.join(root, "src"),
                      os.path.join(root, rpath))[: -len(".cpp")] + ".hpp"
            own = own.replace(os.sep, "/")
            if os.path.isfile(os.path.join(root, "src", own)):
                if not includes or includes[0] != own:
                    finding(rpath, 1, "iwyu-project",
                            f'first project include must be own header '
                            f'"{own}"')

        seen = set()
        for inc in includes:
            inc_line = text[: text.index(f'"{inc}"')].count("\n") + 1
            raw_line = text.splitlines()[inc_line - 1]
            if inc in seen:
                finding(rpath, inc_line, "iwyu-project",
                        f'duplicate include "{inc}"', raw_line)
                continue
            seen.add(inc)
            if "IWYU pragma:" in raw_line:
                continue  # export/keep: umbrella headers re-exporting an API
            symbols = symbols_for(inc)
            if symbols is None or not symbols:
                continue  # not a project header / nothing extractable
            own_header = rpath.endswith(".cpp") and includes and inc == includes[0]
            if own_header:
                continue  # the own-header pairing rule, not usage, applies
            body = stripped.replace(f'"{inc}"', "")
            used = any(re.search(rf"\b{re.escape(sym)}\b", body)
                       for sym in symbols)
            if not used:
                finding(rpath, inc_line, "iwyu-project",
                        f'include "{inc}" appears unused (no identifier it '
                        "declares is referenced)", raw_line)


# --- rule: simd-dispatch ---------------------------------------------------

SIMD_MACRO_RE = re.compile(r"\b__(AVX2|SSE2|AVX512[A-Z]*)__\b")
SIMD_INCLUDE_RE = re.compile(r'#\s*include\s*<(x?immintrin|[a-z]mmintrin)\.h>')


def check_simd_dispatch(root):
    kernels_dir = os.path.join("src", "stats", "kernels") + os.sep
    for path in iter_files(root, ALL_CODE_DIRS, {".cpp", ".hpp", ".cc", ".h"}):
        rpath = rel(root, path)
        if rpath.startswith(kernels_dir):
            continue
        with open(path, encoding="utf-8") as handle:
            raw_lines = handle.read().splitlines()
        stripped = strip_comments_and_strings("\n".join(raw_lines)).splitlines()
        for no, (line, raw) in enumerate(zip(stripped, raw_lines), 1):
            match = SIMD_MACRO_RE.search(line)
            if match:
                finding(rpath, no, "simd-dispatch",
                        f"raw `{match.group(0)}` test outside "
                        "src/stats/kernels/ — route SIMD through the "
                        "dispatch table (stats/kernels/kernels.hpp)", raw)
            match = SIMD_INCLUDE_RE.search(line)
            if match:
                finding(rpath, no, "simd-dispatch",
                        f"intrinsic header <{match.group(1)}.h> outside "
                        "src/stats/kernels/ — route SIMD through the "
                        "dispatch table (stats/kernels/kernels.hpp)", raw)


# --- rule: mmap-confine ----------------------------------------------------

MMAP_CALL_RE = re.compile(r"\b(mmap|munmap|madvise|ftruncate)\s*\(")
MMAP_INCLUDE_RE = re.compile(r"#\s*include\s*<sys/mman\.h>")


def check_mmap_confine(root):
    store_tu = os.path.join("src", "dfs", "genotype_store.cpp")
    for path in iter_files(root, ALL_CODE_DIRS, {".cpp", ".hpp", ".cc", ".h"}):
        rpath = rel(root, path)
        if rpath == store_tu:
            continue
        with open(path, encoding="utf-8") as handle:
            raw_lines = handle.read().splitlines()
        stripped = strip_comments_and_strings("\n".join(raw_lines)).splitlines()
        for no, (line, raw) in enumerate(zip(stripped, raw_lines), 1):
            match = MMAP_CALL_RE.search(line)
            if match:
                finding(rpath, no, "mmap-confine",
                        f"raw `{match.group(1)}` call outside "
                        "src/dfs/genotype_store.cpp — go through "
                        "dfs::GenotypeStore so mapping lifetime and "
                        "corruption handling stay centralized", raw)
            if MMAP_INCLUDE_RE.search(line):
                finding(rpath, no, "mmap-confine",
                        "<sys/mman.h> outside src/dfs/genotype_store.cpp — "
                        "go through dfs::GenotypeStore", raw)


# --- rule: faithful-confine ------------------------------------------------

FAITHFUL_RE = re.compile(
    r"\b(u_observed_|BuildU|SetScoresFromU|EnsureUBuilt|snp_to_sets_)\b")


def check_faithful_confine(root):
    unit = os.path.join("src", "core", "paper_faithful.")
    for path in iter_files(root, SRC_DIRS, {".cpp", ".hpp", ".cc", ".h"}):
        rpath = rel(root, path)
        if rpath.startswith(unit):
            continue
        with open(path, encoding="utf-8") as handle:
            raw_lines = handle.read().splitlines()
        stripped = strip_comments_and_strings("\n".join(raw_lines)).splitlines()
        for no, (line, raw) in enumerate(zip(stripped, raw_lines), 1):
            match = FAITHFUL_RE.search(line)
            if match:
                finding(rpath, no, "faithful-confine",
                        f"`{match.group(1)}` outside src/core/paper_faithful.* "
                        "— the U RDD belongs to the paper-faithful unit; the "
                        "default path scores packed genotypes", raw)


# --- rule: naked-mutex -----------------------------------------------------

NAKED_MUTEX_RE = re.compile(
    r"\bstd::(mutex|recursive_mutex|shared_mutex|timed_mutex|"
    r"recursive_timed_mutex|lock_guard|unique_lock|scoped_lock|shared_lock|"
    r"condition_variable)\b(?!_any)")


def check_naked_mutex(root):
    support_dir = os.path.join("src", "support") + os.sep
    for path in iter_files(root, SRC_DIRS, {".cpp", ".hpp"}):
        rpath = rel(root, path)
        if rpath.startswith(support_dir):
            continue  # RankedMutex itself wraps std::mutex here
        with open(path, encoding="utf-8") as handle:
            raw_lines = handle.read().splitlines()
        stripped = strip_comments_and_strings("\n".join(raw_lines)).splitlines()
        for no, (line, raw) in enumerate(zip(stripped, raw_lines), 1):
            match = NAKED_MUTEX_RE.search(line)
            if match:
                context = (raw_lines[no - 2] + "\n" if no >= 2 else "") + raw
                finding(rpath, no, "naked-mutex",
                        f"raw `std::{match.group(1)}` outside src/support/ — "
                        "use support::RankedMutex with MutexLock/UniqueLock "
                        "(and condition_variable_any) so the acquisition is "
                        "ranked and annotated", context)


# --- rule: guarded-by-coverage ---------------------------------------------

RANKED_MUTEX_DECL_RE = re.compile(
    r"\bRankedMutex\s+(\w+)\s*[{(;=]")
ANNOTATION_USE_TEMPLATE = (
    r"\b(?:SS_GUARDED_BY|SS_PT_GUARDED_BY|SS_REQUIRES|SS_EXCLUDES|"
    r"SS_ACQUIRED_BEFORE|SS_ACQUIRED_AFTER|SS_ASSERT_HELD)\s*\([^)]*\b{m}\b")


def check_guarded_by_coverage(root):
    for path in iter_files(root, SRC_DIRS, {".cpp", ".hpp"}):
        rpath = rel(root, path)
        if rpath == os.path.join("src", "support", "ranked_mutex.hpp"):
            continue  # defines RankedMutex; nothing of its own to guard
        with open(path, encoding="utf-8") as handle:
            raw_lines = handle.read().splitlines()
        stripped_text = strip_comments_and_strings("\n".join(raw_lines))
        stripped = stripped_text.splitlines()
        for no, (line, raw) in enumerate(zip(stripped, raw_lines), 1):
            match = RANKED_MUTEX_DECL_RE.search(line)
            if not match:
                continue
            name = match.group(1)
            use_re = re.compile(ANNOTATION_USE_TEMPLATE.format(
                m=re.escape(name)))
            if use_re.search(stripped_text):
                continue
            context = (raw_lines[no - 2] + "\n" if no >= 2 else "") + raw
            finding(rpath, no, "guarded-by-coverage",
                    f"RankedMutex `{name}` has no SS_GUARDED_BY/SS_REQUIRES "
                    "annotation referencing it in this file — annotate the "
                    "state it protects or add a waiver comment "
                    "(docs/STATIC_ANALYSIS.md)", context)


# --- rule: lock-rank-registry ----------------------------------------------

REGISTRY_ENTRY_RE = re.compile(
    r'inline constexpr LockRank (k\w+)\{"([a-z0-9_.]+)", (\d+)\};')


def check_lock_rank_registry(root):
    registry_rel = os.path.join("src", "support", "lock_ranks.hpp")
    registry_path = os.path.join(root, registry_rel)
    if not os.path.isfile(registry_path):
        finding(registry_rel, 1, "lock-rank-registry",
                "lock-rank registry src/support/lock_ranks.hpp is missing")
        return
    with open(registry_path, encoding="utf-8") as handle:
        registry_text = handle.read()
    by_name, by_rank = {}, {}
    for match in REGISTRY_ENTRY_RE.finditer(registry_text):
        const, name, rank = match.group(1), match.group(2), int(match.group(3))
        line_no = registry_text[: match.start()].count("\n") + 1
        if name in by_name:
            finding(registry_rel, line_no, "lock-rank-registry",
                    f'duplicate lock name "{name}" (also {by_name[name]})')
        if rank in by_rank:
            finding(registry_rel, line_no, "lock-rank-registry",
                    f"duplicate rank {rank} ({const} collides with "
                    f"{by_rank[rank]})")
        by_name.setdefault(name, const)
        by_rank.setdefault(rank, const)
    if not by_name:
        finding(registry_rel, 1, "lock-rank-registry",
                "no LockRank entries parsed from the registry (format "
                'drifted? expected `inline constexpr LockRank kX{"name", N};`)')
        return

    # Every RankedMutex constructed in src/ must draw from the registry.
    construct_re = re.compile(r"\bRankedMutex\s+\w+\s*[{(]")
    for path in iter_files(root, SRC_DIRS, {".cpp", ".hpp"}):
        rpath = rel(root, path)
        if rpath.startswith(os.path.join("src", "support") + os.sep):
            if os.path.basename(rpath).startswith("ranked_mutex"):
                continue  # the wrapper's own declarations take any LockRank
        with open(path, encoding="utf-8") as handle:
            raw_lines = handle.read().splitlines()
        stripped = strip_comments_and_strings("\n".join(raw_lines)).splitlines()
        for no, (line, raw) in enumerate(zip(stripped, raw_lines), 1):
            if construct_re.search(line) and "lock_rank::k" not in line:
                context = (raw_lines[no - 2] + "\n" if no >= 2 else "") + raw
                finding(rpath, no, "lock-rank-registry",
                        "RankedMutex constructed without a lock_rank::k* "
                        "registry entry (src/support/lock_ranks.hpp)", context)


# --- rule: counter-doc-sync ------------------------------------------------

# Dotted-name string literals handed to the counter registry, covering
# direct Get/Add calls and local helpers like CacheCounter("...").
COUNTER_CALL_RE = re.compile(
    r"\b(?:Get|Add|\w*Counter)\s*\(\s*\"([a-z0-9_]+(?:\.[a-z0-9_.]+)+)\"")


def check_counter_doc_sync(root):
    doc_rel = os.path.join("docs", "OBSERVABILITY.md")
    doc_path = os.path.join(root, doc_rel)
    if not os.path.isfile(doc_path):
        finding(doc_rel, 1, "counter-doc-sync",
                "docs/OBSERVABILITY.md is missing")
        return
    with open(doc_path, encoding="utf-8") as handle:
        doc_text = handle.read()
    # Scan every code dir, not just src/: a bench or tool that mints an
    # undocumented counter pollutes the same process-global registry (and
    # the metrics JSON "counters" section) just as much as src/ does.
    # Counters under the "test." namespace are exempt — tests mint scoped
    # scratch counters by design (e.g. "test.trace_test.a").
    for path in iter_files(root, ALL_CODE_DIRS, {".cpp", ".hpp"}):
        rpath = rel(root, path)
        with open(path, encoding="utf-8") as handle:
            raw_lines = handle.read().splitlines()
        for no, raw in enumerate(raw_lines, 1):
            if raw.lstrip().startswith("//"):
                continue  # doc comments may show example names
            for match in COUNTER_CALL_RE.finditer(raw):
                name = match.group(1)
                if name.startswith("test."):
                    continue
                if name not in doc_text:
                    context = ((raw_lines[no - 2] + "\n" if no >= 2 else "")
                               + raw)
                    finding(rpath, no, "counter-doc-sync",
                            f'counter "{name}" is not documented in '
                            "docs/OBSERVABILITY.md", context)


RULES = {
    "naked-new": check_naked_new,
    "nodiscard": check_nodiscard,
    "std-rand": check_std_rand,
    "pragma-once": check_pragma_once,
    "iwyu-project": check_iwyu,
    "simd-dispatch": check_simd_dispatch,
    "mmap-confine": check_mmap_confine,
    "faithful-confine": check_faithful_confine,
    "naked-mutex": check_naked_mutex,
    "guarded-by-coverage": check_guarded_by_coverage,
    "lock-rank-registry": check_lock_rank_registry,
    "counter-doc-sync": check_counter_doc_sync,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--rule", action="append", choices=sorted(RULES),
                        help="run only the named rule(s)")
    parser.add_argument("--github", action="store_true",
                        help="emit GitHub workflow ::error annotations so "
                        "findings show inline on pull requests")
    args = parser.parse_args()

    if args.list_rules:
        for name in sorted(RULES):
            print(name)
        return 0

    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"ss_lint: no src/ under {root}", file=sys.stderr)
        return 2

    for name in args.rule or sorted(RULES):
        RULES[name](root)

    for path, line_no, rule, message in sorted(FINDINGS):
        if args.github:
            # GitHub strips %, \r and \n from workflow-command messages
            # unless escaped; paths/rules are repo-controlled and safe.
            escaped = (message.replace("%", "%25").replace("\r", "%0D")
                       .replace("\n", "%0A"))
            print(f"::error file={path},line={line_no},"
                  f"title=ss-lint {rule}::{escaped}")
        else:
            print(f"{path}:{line_no}: [{rule}] {message}")
    if FINDINGS:
        print(f"ss_lint: {len(FINDINGS)} finding(s)", file=sys.stderr)
        return 1
    print("ss_lint: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
