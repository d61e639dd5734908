#!/usr/bin/env python3
"""Names every library function that only its own crate's unit tests reach.

Exports REV (default HEAD) with `git archive` into a temporary directory and
works there, never on the checkout. Every non-test `pub fn` under
`crates/*/src` and `src/` (the harness `bin/` directories and `src/main.rs`
excepted) is narrowed to `pub(crate) fn`. Then `cargo check --offline
--keep-going --workspace --all-targets` runs on the workspace and on
`perf_suite/Cargo.toml`. Each E0603 or E0624 error (another crate's binary,
example, integration test or `perf_suite` calls a narrowed function) restores
`pub` on the definition it points at, and each E0364 (a `pub use` of a
narrowed name) restores it on that name in the re-exporting crate. This
repeats until both build. rustc's `dead_code` warnings then name what only
unit tests reach. Doc tests are not built, so an item that only a doc
example calls is named too.

Each warning is printed with its reason from KEPT, the items kept on purpose.
A warning with no entry there is printed as UNLISTED and makes the script
exit 1.

Usage (from the repo root):
    scripts/dead_code/check.py [REV]
    scripts/dead_code/check.py $(git stash create)   # uncommitted tracked changes
"""
import json
import os
import re
import subprocess
import sys
import tempfile

# (file, name) -> why the item stays although only tests or doc examples reach it.
PROGRAM_TIMING = "crates/arch/src/program_timing.rs"
ENGINE = "part of run_program's engine, the test oracle above"
KEPT = {
    (PROGRAM_TIMING, "run_program"):
        "test oracle: the instruction-driven cross-check of RankUnit that EXPERIMENTS.md cites",
    (PROGRAM_TIMING, "Ticket"): ENGINE,
    (PROGRAM_TIMING, "Engine"): ENGINE,
    (PROGRAM_TIMING, "tick"): ENGINE,
    (PROGRAM_TIMING, "load"): ENGINE,
    (PROGRAM_TIMING, "consume"): ENGINE,
    (PROGRAM_TIMING, "outstanding"): ENGINE,
    (PROGRAM_TIMING, "drain"): ENGINE,
    ("crates/tensor/src/projection.rs", "to_dense"):
        "test oracle: the dense reference that SparseProjection::project is tested against",
    ("crates/tensor/src/quant.rs", "dequantize"):
        "test oracle: the FP32 reference that QuantMatrix::matvec_quant is tested against",
    ("crates/obs/src/trace.rs", "dropped"):
        "counts lost data: the events a full TraceBuffer evicted",
    ("crates/dram/src/checker.rs", "dropped"):
        "counts lost data: the violations a TimingChecker counted past its record cap",
    ("crates/model/src/synth.rs", "sample_queries"):
        "doc example: the SyntheticClassifier example in synth.rs calls it",
    ("crates/tensor/src/matrix.rs", "dot"):
        "doc example: the Vector example in matrix.rs calls it",
}

NARROW = re.compile(r"^(\s*)pub ((?:const |unsafe |async )*fn )")
CFG_TEST = re.compile(r"^\s*#\[cfg\(test\)\]\s*$")


def test_lines(text):
    """Line numbers (1-based) of every `#[cfg(test)]` item, attribute included."""
    lines = text.split("\n")
    out = set()
    i = 0
    while i < len(lines):
        if not CFG_TEST.match(lines[i]):
            i += 1
            continue
        start = i
        depth = 0
        opened = False
        j = i + 1
        while j < len(lines):
            code = strip_literals(lines[j])
            depth += code.count("{") - code.count("}")
            opened = opened or "{" in code
            if (opened and depth <= 0) or (not opened and code.rstrip().endswith(";")):
                break
            j += 1
        out.update(range(start + 1, j + 2))
        i = j + 1
    return out


def strip_literals(line):
    """The line without its string and char literals and `//` comment."""
    line = re.sub(r'"(?:\\.|[^"\\])*"', '""', line)
    line = re.sub(r"'(?:\\.|[^'\\])'", "''", line)
    return line.split("//", 1)[0]


def narrow(root):
    """Rewrites `pub fn` to `pub(crate) fn`; returns {(file, line): name}."""
    sources = []
    for d in sorted(os.listdir(os.path.join(root, "crates"))):
        sources.append(os.path.join("crates", d, "src"))
    sources.append("src")
    narrowed = {}
    for src in sources:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, src)):
            dirnames[:] = [d for d in dirnames if d != "bin"]
            for f in filenames:
                rel = os.path.relpath(os.path.join(dirpath, f), root)
                if not f.endswith(".rs") or rel == "src/main.rs":
                    continue
                path = os.path.join(root, rel)
                text = open(path).read()
                tests = test_lines(text)
                lines = text.split("\n")
                for n, line in enumerate(lines, 1):
                    m = NARROW.match(line)
                    if m and n not in tests:
                        lines[n - 1] = NARROW.sub(r"\1pub(crate) \2", line, count=1)
                        name = re.search(r"fn\s+(\w+)", line).group(1)
                        narrowed[(rel, n)] = name
                open(path, "w").write("\n".join(lines))
    return narrowed


def restore(root, rel, line):
    path = os.path.join(root, rel)
    lines = open(path).read().split("\n")
    lines[line - 1] = lines[line - 1].replace("pub(crate) ", "pub ", 1)
    open(path, "w").write("\n".join(lines))


def check(root, manifest_dir):
    """Runs cargo check; returns its compiler messages with resolved paths."""
    cmd = ["cargo", "check", "--offline", "--keep-going", "--workspace", "--all-targets",
           "--message-format=json", "--manifest-path",
           os.path.join(root, manifest_dir, "Cargo.toml")]
    run = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    messages = []
    for raw in run.stdout.splitlines():
        try:
            item = json.loads(raw)
        except ValueError:
            continue
        if item.get("reason") == "compiler-message":
            messages.append(item["message"])
    base = os.path.join(root, manifest_dir)

    def resolve(span):
        path = os.path.normpath(os.path.join(base, span["file_name"]))
        return os.path.relpath(path, root), span["line_start"]

    return run.returncode, messages, resolve


def spans(message):
    yield from message["spans"]
    for child in message["children"]:
        yield from spans(child)


def crate_of(rel):
    parts = rel.split("/")
    return "/".join(parts[:2]) if parts[0] == "crates" else "src"


def main():
    rev = sys.argv[1] if len(sys.argv) > 1 else "HEAD"
    commit = subprocess.check_output(["git", "rev-parse", rev], text=True).strip()
    with tempfile.TemporaryDirectory(prefix="dead_code.") as root:
        archive = subprocess.run(["git", "archive", commit], capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", root], input=archive.stdout, check=True)
        narrowed = narrow(root)
        public = set()
        rounds = 0
        while True:
            rounds += 1
            warnings = []
            found = set()
            stuck = []
            for manifest_dir in (".", "perf_suite"):
                code, messages, resolve = check(root, manifest_dir)
                errors = [m for m in messages if m["level"] == "error"]
                warnings += [(m, resolve) for m in messages
                             if m["level"] == "warning" and (m.get("code") or {}).get("code") == "dead_code"]
                for m in errors:
                    kind = (m.get("code") or {}).get("code")
                    hits = set()
                    if kind in ("E0603", "E0624"):
                        hits = {resolve(s) for s in spans(m)} & narrowed.keys()
                    elif kind == "E0364":
                        name = re.search(r"`(\w+)`", m["message"]).group(1)
                        crates = {crate_of(resolve(s)[0]) for s in m["spans"]}
                        hits = {k for k, v in narrowed.items() if v == name and crate_of(k[0]) in crates}
                    if hits - public:
                        found |= hits - public
                    else:
                        stuck.append(m["rendered"])
                if code != 0 and not errors:
                    sys.exit(f"cargo check failed in {manifest_dir} without a compiler error")
            if not found:
                if stuck:
                    sys.exit("errors that no restored `pub` mends:\n" + "".join(stuck))
                break
            for rel, line in sorted(found):
                restore(root, rel, line)
            public |= found
    items = {}
    for m, resolve in warnings:
        for s in m["spans"]:
            if not s["is_primary"]:
                continue
            rel, line = resolve(s)
            text = s["text"][0]
            name = text["text"][text["highlight_start"] - 1:text["highlight_end"] - 1]
            items[(rel, line, name)] = m["message"]
    print(f"# scripts/dead_code/check.py {rev} ({commit[:12]}): {rounds} rounds, "
          f"pub kept on {len(public)} of {len(narrowed)} narrowed functions")
    unlisted = 0
    for (rel, line, name), message in sorted(items.items()):
        reason = KEPT.get((rel, name))
        if reason is None:
            unlisted += 1
            reason = f"UNLISTED ({message})"
        print(f"{rel}:{line} {name}: {reason}")
    print(f"# {len(items)} items, {unlisted} unlisted")
    sys.exit(1 if unlisted else 0)


if __name__ == "__main__":
    main()
