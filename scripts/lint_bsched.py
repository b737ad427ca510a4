#!/usr/bin/env python3
"""Project lint: repo-specific rules no generic tool knows.

Usage:
  lint_bsched.py [--root DIR]     lint the tree (exit 1 on findings)
  lint_bsched.py --self-test      run the lint's own unit tests

Rules (see README "Correctness tooling"):

  no-io             src/ library code must not write to the process's
                    stdout/stderr (std::cout/std::cerr/std::clog/printf/
                    fprintf/puts). Reporting goes through returned values
                    or caller-supplied std::ostream&/std::ostream* sinks;
                    only tools/, examples/, bench/ own the terminal.
                    Allowlisted: src/util/error.cpp (the BSCHED_ASSERT
                    abort path must print before dying).

  require-prefix    require() and `throw error(...)` messages that start
                    with a string literal must be prefixed "<origin>: "
                    where <origin> names
                    the throwing module — the file's directory ("net:"),
                    its stem ("spec:"), or a function/class defined in
                    the file ("plan_shards:", "csv_writer:", "round
                    robin:") — so a thrown bsched::error names its
                    source without a stack trace, and a rename cannot
                    leave a stale or foreign prefix behind.

  rng-discipline    no rand()/srand()/time()/clock()/std::random_device/
                    std::mt19937 outside src/util/rng.* — all randomness
                    derives from explicit seeds (util/rng.hpp) or the
                    determinism contract ("byte-identical for any thread
                    count") silently dies.

  pragma-once       every header (src/, tools/, tests/, bench/) carries
                    #pragma once.

  version-literal   wire-format version strings ("bsched-shard",
                    "bsched-sweep", "bsched-msg", "bsched-telemetry")
                    appear in exactly one owning codec file each
                    (src/dist/codec.cpp, src/net/message.cpp,
                    src/obs/telemetry.cpp) — in src/ and tools/, nothing
                    else may embed them, so a version bump cannot miss a
                    stray literal. tests/ may forge foreign versions in
                    negative tests. The match set derives from
                    VERSION_OWNERS, so adding a format means adding its
                    owner here and nothing else.

  obs-discipline    instrumentation goes through the BSCHED_* macros of
                    obs/obs.hpp (which compile away under
                    BSCHED_OBS=OFF): outside src/obs/, library and tool
                    code must not name obs::detail — a direct handle or
                    span would survive an obs-off build and break the
                    zero-overhead guarantee. tests/ may poke the detail
                    layer (reading-side white-box tests).

  thread-discipline library code must not spawn raw threads (std::thread/
                    std::jthread construction, std::async) outside the
                    two budgeted layers: src/util (the work-stealing
                    task_pool and the process thread_budget) and
                    src/api/engine* (the sweep worker pool, which leases
                    its width from that budget). A policy or kernel that
                    spawned its own threads would bypass the
                    oversubscription accounting and the determinism
                    contract. `std::thread::hardware_concurrency()` and
                    other static members stay fine anywhere.
"""

import argparse
import os
import re
import sys

LINT_DIRS = ("src", "tools", "tests", "bench")

IO_ALLOWLIST = {os.path.join("src", "util", "error.cpp")}

IO_PATTERN = re.compile(
    r"std::(?:cout|cerr|clog)\b|(?<![\w:])(?:printf|puts)\s*\(|"
    r"(?<![\w:])fprintf\s*\(")

RNG_PATTERN = re.compile(
    r"(?<![\w:])(?:rand|srand|time|clock)\s*\(|"
    r"std::random_device|std::mt19937")

VERSION_OWNERS = {
    "bsched-shard": os.path.join("src", "dist", "codec.cpp"),
    "bsched-sweep": os.path.join("src", "dist", "codec.cpp"),
    "bsched-msg": os.path.join("src", "net", "message.cpp"),
    "bsched-telemetry": os.path.join("src", "obs", "telemetry.cpp"),
}

# Built from VERSION_OWNERS so a new wire format only needs its owner
# registered above.
VERSION_PATTERN = re.compile(
    r'"[^"\n]*bsched-(' +
    "|".join(sorted(k.removeprefix("bsched-") for k in VERSION_OWNERS)) +
    r')[^"\n]*"')

OBS_DETAIL_PATTERN = re.compile(r"\bobs\s*::\s*detail\b")

# std::thread/std::jthread not followed by '::' (static members like
# hardware_concurrency are not a spawn), plus std::async.
THREAD_PATTERN = re.compile(r"std::j?thread\b(?!\s*::)|std::async\b")

THREAD_ALLOW_PREFIXES = (
    os.path.join("src", "util") + os.sep,
    os.path.join("src", "api", "engine"),
)



def strip_comments(text):
    """Blanks comments (preserving newlines) so code rules don't fire on
    prose; string literals are left intact."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == '"' or c == "'":
            quote = c
            out.append(c)
            i += 1
            while i < n:
                out.append(text[i])
                if text[i] == "\\":
                    if i + 1 < n:
                        out.append(text[i + 1])
                    i += 2
                    continue
                if text[i] == quote:
                    i += 1
                    break
                i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
            continue
        out.append(c)
        i += 1
    return "".join(out)


def strip_strings(text):
    """Blanks string/char literal contents (on comment-stripped text) so
    identifier rules don't fire inside messages."""
    return re.sub(r'"(?:[^"\\\n]|\\.)*"', '""', text)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def split_require_args(code, start):
    """`start` points just past 'require('. Returns the argument list
    split at top-level commas, or None when the call never closes."""
    depth = 1
    args, current = [], []
    i, n = start, len(code)
    while i < n:
        c = code[i]
        if c == '"':
            current.append(c)
            i += 1
            while i < n:
                current.append(code[i])
                if code[i] == "\\":
                    if i + 1 < n:
                        current.append(code[i + 1])
                    i += 2
                    continue
                if code[i] == '"':
                    i += 1
                    break
                i += 1
            continue
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                args.append("".join(current))
                return args
        elif c == "," and depth == 1:
            args.append("".join(current))
            current = []
            i += 1
            continue
        current.append(c)
        i += 1
    return None


def check_no_io(rel, code):
    if rel in IO_ALLOWLIST or not rel.startswith("src" + os.sep):
        return []
    findings = []
    for m in IO_PATTERN.finditer(strip_strings(code)):
        findings.append((line_of(code, m.start()), "no-io",
                         f"library code writes to stdout/stderr "
                         f"('{m.group().strip()}'); return values or take "
                         f"an std::ostream sink"))
    return findings


def origin_tag(text):
    """The "<origin>" of a message literal: everything before the first
    ':' when one appears early, else the first word (messages like
    "spec '" are the leading fragment of a concatenation)."""
    colon = text.find(":")
    if 0 < colon <= 40:
        return text[:colon]
    word = re.match(r"[^ ']+", text)
    return word.group() if word else text


def check_require_prefix(rel, code):
    if not rel.startswith("src" + os.sep):
        return []
    parts = rel.split(os.sep)
    stem = os.path.splitext(parts[-1])[0]
    module = parts[1] if len(parts) > 2 else stem
    identifiers = strip_strings(code)
    findings = []
    # require(cond, msg) carries the message second; a check moved to
    # `if (!cond) throw error(msg)` (build the message only on failure)
    # carries it first.
    for m in re.finditer(r"(?<![\w:.])(require|throw\s+(?:bsched::)?error)"
                         r"\s*\(", code):
        at = 1 if m.group(1) == "require" else 0
        args = split_require_args(code, m.end())
        if args is None or len(args) <= at:
            continue
        msg = args[at].strip()
        lit = re.match(r'"((?:[^"\\]|\\.)*)"', msg)
        if lit is None:
            continue  # message built from a variable; out of scope
        text = lit.group(1)
        tag = origin_tag(text)
        # Normalize display forms ("round robin", "best-of-n",
        # "dist::codec") to identifier shape, then accept the module
        # directory, the file stem, or any identifier in this file that
        # the tag is a \b-anchored prefix of ("plan_shard" -> matches
        # plan_shards; "fixed" -> matches fixed_schedule).
        norm = tag.replace("-", "_").replace(" ", "_").split("::")[0]
        ok = (re.fullmatch(r"[a-z][a-z0-9_]*", norm) is not None and
              (norm in (module, stem) or
               re.search(r"\b" + re.escape(norm), identifiers) is not None))
        if not ok:
            findings.append(
                (line_of(code, m.start()), "require-prefix",
                 f"error message '{text[:40]}' must start with "
                 f"\"<origin>: \" naming this module ('{module}', "
                 f"'{stem}', or a function/class defined here)"))
    return findings


def check_rng(rel, code):
    if not rel.startswith("src" + os.sep):
        return []
    if os.path.splitext(rel)[0] == os.path.join("src", "util", "rng"):
        return []
    findings = []
    for m in RNG_PATTERN.finditer(strip_strings(code)):
        findings.append((line_of(code, m.start()), "rng-discipline",
                         f"'{m.group().strip()}' bypasses util/rng — all "
                         f"randomness/time must come from explicit seeds"))
    return findings


def check_pragma_once(rel, code):
    if not rel.endswith(".hpp"):
        return []
    if re.search(r"^#pragma once\s*$", code, re.MULTILINE):
        return []
    return [(1, "pragma-once", "header is missing '#pragma once'")]


def check_version_literals(rel, code):
    if not (rel.startswith("src" + os.sep) or
            rel.startswith("tools" + os.sep)):
        return []
    findings = []
    for m in VERSION_PATTERN.finditer(code):
        owner = VERSION_OWNERS["bsched-" + m.group(1)]
        if rel != owner:
            findings.append(
                (line_of(code, m.start()), "version-literal",
                 f"wire version string {m.group()} belongs only in its "
                 f"owning codec file {owner}"))
    return findings


def check_threads(rel, code):
    if not rel.startswith("src" + os.sep):
        return []
    if rel.startswith(THREAD_ALLOW_PREFIXES):
        return []
    findings = []
    for m in THREAD_PATTERN.finditer(strip_strings(code)):
        findings.append((line_of(code, m.start()), "thread-discipline",
                         f"'{m.group().strip()}' spawns outside the budgeted "
                         f"pools — go through util::task_pool / "
                         f"util::thread_budget (src/util) or the engine "
                         f"sweep pool (src/api/engine*)"))
    return findings


def check_obs_detail(rel, code):
    if not (rel.startswith("src" + os.sep) or
            rel.startswith("tools" + os.sep)):
        return []
    if rel.startswith(os.path.join("src", "obs") + os.sep):
        return []
    findings = []
    for m in OBS_DETAIL_PATTERN.finditer(strip_strings(code)):
        findings.append(
            (line_of(code, m.start()), "obs-discipline",
             "direct obs::detail use outside src/obs — instrument through "
             "the BSCHED_* macros of obs/obs.hpp so the site compiles away "
             "under BSCHED_OBS=OFF"))
    return findings


CODE_CHECKS = (check_no_io, check_require_prefix, check_rng,
               check_version_literals, check_threads, check_obs_detail)


def lint_file(rel, text):
    code = strip_comments(text)
    findings = []
    for check in CODE_CHECKS:
        findings.extend(check(rel, code))
    findings.extend(check_pragma_once(rel, text))
    return findings


def lint_tree(root):
    findings = []
    count = 0
    for top in LINT_DIRS:
        for dirpath, _, names in sorted(os.walk(os.path.join(root, top))):
            for name in sorted(names):
                if not name.endswith((".cpp", ".hpp")):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root)
                with open(path, encoding="utf-8", errors="surrogateescape") \
                        as f:
                    text = f.read()
                count += 1
                for line, rule, msg in lint_file(rel, text):
                    findings.append(f"{rel}:{line}: {rule}: {msg}")
    return findings, count


# --- self-test ---------------------------------------------------------------

def self_test():
    def rules(rel, text):
        return sorted({rule for _, rule, _ in lint_file(rel, text)})

    cases = [
        # (name, path, content, expected rules)
        ("cout in library code",
         "src/api/engine.cpp", 'void f() { std::cout << "x"; }\n#pragma once',
         ["no-io"]),
        ("cout in a tool is fine",
         "tools/sweep_merge.cpp", 'void f() { std::cout << "x"; }', []),
        ("cout in a comment is fine",
         "src/api/engine.cpp", "// std::cout is forbidden here\n", []),
        ("printf in a string literal is fine",
         "src/api/engine.cpp", 'const char* s = "printf(%d)";', []),
        ("allowlisted abort path",
         "src/util/error.cpp", 'void g() { fprintf(stderr, "boom"); }', []),
        ("snprintf to a buffer is fine",
         "src/exp/report.cpp", "void f() { std::snprintf(b, n, \"%f\", v); }",
         []),
        ("require with module prefix",
         "src/net/message.cpp",
         'void f() { require(ok, "net: bad frame"); }', []),
        ("require with file-stem prefix",
         "src/api/sweep.cpp",
         'void f() { require(ok, "sweep: needs cells"); }', []),
        ("require with a function-name prefix",
         "src/dist/shard.cpp",
         'void plan_shards() { require(ok, "plan_shards: need one"); }',
         []),
        ("require with a display-form prefix matching a class",
         "src/sched/policy.cpp",
         'class best_of_n_policy {};\n'
         'void f() { require(ok, "best-of-n: all batteries empty"); }', []),
        ("require prefix naming another module",
         "src/kibam/bank.cpp",
         'void f() { require(ok, "plan_shards: foreign prefix"); }',
         ["require-prefix"]),
        ("require with a leading-fragment literal",
         "src/util/spec.cpp",
         'void f() { require(ok, "spec \'" + name + "\': boom"); }', []),
        ("require without prefix",
         "src/net/message.cpp", 'void f() { require(ok, "bad frame"); }',
         ["require-prefix"]),
        ("require with a foreign prefix",
         "src/net/message.cpp", 'void f() { require(ok, "svc: bad"); }',
         ["require-prefix"]),
        ("throw error with a module prefix",
         "src/util/spec.cpp",
         'void f() { if (!ok) throw error("spec \'" + name + "\': bad"); }',
         []),
        ("throw error without prefix",
         "src/net/message.cpp",
         'void f() { if (!ok) throw error("bad frame " + clip(h)); }',
         ["require-prefix"]),
        ("require message from variable is out of scope",
         "src/net/message.cpp", "void f() { require(ok, msg); }", []),
        ("literal in the condition is not the message",
         "src/svc/worker.cpp",
         'void f() { require(t == "sweep", "svc: expected sweep"); }', []),
        ("nested parens and commas in the condition",
         "src/svc/worker.cpp",
         'void f() { require(std::max(a, b) == f(c, d), "svc: ok"); }', []),
        ("multi-line concatenated message checks its first literal",
         "src/net/socket.cpp",
         'void f() {\n  require(ok,\n          "net: frame of " +\n'
         '          std::to_string(n));\n}', []),
        ("rand in library code",
         "src/sched/policy.cpp", "int f() { return rand(); }",
         ["rng-discipline"]),
        ("time() in library code",
         "src/svc/coordinator.cpp", "long f() { return time(nullptr); }",
         ["rng-discipline"]),
        ("steady_clock now is fine",
         "src/svc/coordinator.cpp",
         "auto f() { return std::chrono::steady_clock::now(); }", []),
        ("random_device in library code",
         "src/load/random.cpp", "std::random_device rd;",
         ["rng-discipline"]),
        ("rng.hpp itself is exempt",
         "src/util/rng.hpp",
         "#pragma once\nstd::random_device rd;  // seeding", []),
        ("random_device in a doc comment is fine",
         "src/sched/registry.hpp",
         "#pragma once\n// std::random_device would break replication\n",
         []),
        ("header without pragma once",
         "src/kibam/bank.hpp", "struct bank {};\n", ["pragma-once"]),
        ("cpp never needs pragma once",
         "src/kibam/bank.cpp", "int x;\n", []),
        ("version literal in its owner",
         "src/dist/codec.cpp", 'auto m = "bsched-shard v1";', []),
        ("version literal astray in src",
         "src/svc/worker.cpp", 'auto m = "bsched-sweep v1";',
         ["version-literal"]),
        ("version literal astray in tools",
         "tools/sweep_serve.cpp", 'auto m = "bsched-msg v1";',
         ["version-literal"]),
        ("tests may forge versions",
         "tests/test_dist.cpp", 'auto m = "bsched-shard v2";', []),
        ("version string mentioned in a comment is fine",
         "src/net/message.hpp",
         '#pragma once\n// the N of "bsched-msg vN"\n', []),
        ("telemetry version literal in its owner",
         "src/obs/telemetry.cpp", 'auto m = "bsched-telemetry v1";', []),
        ("telemetry version literal astray in src",
         "src/svc/worker.cpp", 'auto m = "bsched-telemetry v1";',
         ["version-literal"]),
        ("obs::detail outside src/obs",
         "src/api/engine.cpp",
         "void f() { static obs::detail::counter_handle h{\"x\"}; }",
         ["obs-discipline"]),
        ("qualified obs::detail in a tool",
         "tools/sweep_serve.cpp",
         "bsched::obs::detail::span s{t, \"x\"};", ["obs-discipline"]),
        ("obs::detail inside src/obs is the implementation",
         "src/obs/metrics.cpp", "obs::detail::counter_handle h{\"x\"};", []),
        ("obs macros at a call site are fine",
         "src/kibam/bank.cpp",
         'void f() { BSCHED_COUNTER_ADD("kibam.calls_total", 1); }', []),
        ("obs::detail in a comment is fine",
         "src/api/engine.cpp", "// never name obs::detail here\n", []),
        ("tests may poke obs::detail",
         "tests/test_obs.cpp", "obs::detail::span s{t, \"x\"};", []),
        ("raw std::thread in library code",
         "src/opt/search.cpp", "void f() { std::thread t{[] {}}; }",
         ["thread-discipline"]),
        ("std::jthread in library code",
         "src/sched/simulator.cpp", "void f() { std::jthread t{[] {}}; }",
         ["thread-discipline"]),
        ("std::async in library code",
         "src/svc/coordinator.cpp",
         "auto f() { return std::async([] {}); }",
         ["thread-discipline"]),
        ("task_pool may spawn",
         "src/util/task_pool.cpp",
         "void f() { std::vector<std::thread> pool; }", []),
        ("engine sweep pool may spawn",
         "src/api/engine.cpp",
         "void f() { std::vector<std::thread> pool; }", []),
        ("hardware_concurrency is not a spawn",
         "src/opt/search.cpp",
         "auto n = std::thread::hardware_concurrency();", []),
        ("std::thread in a comment is fine",
         "src/opt/search.cpp", "// never hold a raw std::thread here\n", []),
        ("tests may spawn threads",
         "tests/test_stress.cpp", "std::thread t{[] {}};", []),
    ]

    failures = 0
    for name, path, content, expected in cases:
        rel = path.replace("/", os.sep)
        got = rules(rel, content)
        if got != expected:
            print(f"self-test FAIL: {name}: expected {expected}, got {got}",
                  file=sys.stderr)
            failures += 1
    if failures:
        print(f"lint_bsched --self-test: {failures}/{len(cases)} failed",
              file=sys.stderr)
        return 1
    print(f"lint_bsched --self-test: OK ({len(cases)} cases)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), ".."),
        help="repository root (default: the script's parent)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the lint's own unit tests and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    findings, count = lint_tree(os.path.abspath(args.root))
    for f in findings:
        print(f)
    if findings:
        print(f"\nlint_bsched: {len(findings)} finding(s) in {count} files",
              file=sys.stderr)
        return 1
    print(f"lint_bsched: OK ({count} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
