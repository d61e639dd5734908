#!/usr/bin/env python3
"""Non-test, non-comment, non-blank lines of each touched .rs file at the
parent and the change, after rustfmt (edition 2021, default config).
Usage: count_lines.py PARENT_REV  (run from the repo root)."""
import os, subprocess, sys, tempfile

rev = sys.argv[1]
files = subprocess.check_output(["git", "diff", "--name-only", rev, "--", "*.rs"], text=True).split()
files += subprocess.check_output(["git", "ls-files", "--others", "--exclude-standard", "--", "*.rs"], text=True).split()

def fmt(text):
    if text is None:
        return None
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "f.rs")
        open(p, "w").write(text)
        subprocess.run(["rustfmt", "--edition", "2021", p], capture_output=True)
        return open(p).read()

def count(text, path):
    if text is None:
        return 0, 0
    lines = text.splitlines()
    is_test_file = path.startswith("tests/") or "/tests/" in path or "/benches/" in path
    code = test = 0
    in_test = is_test_file
    for l in lines:
        t = l.strip()
        if t == "#[cfg(test)]":
            in_test = True
        if not t or t.startswith("//"):
            continue
        if in_test:
            test += 1
        else:
            code += 1
    return code, test

def show(rev, path):
    r = subprocess.run(["git", "show", f"{rev}:{path}"], capture_output=True, text=True)
    return r.stdout if r.returncode == 0 else None

tot = [0, 0, 0, 0]
rows = []
for f in sorted(set(files)):
    if f.startswith("vendor/") or f.startswith("perf_suite/") or f.startswith("target/"):
        continue
    old = show(rev, f)
    new = open(f).read() if os.path.exists(f) else None
    oc, ot = count(fmt(old), f)
    nc, nt = count(fmt(new), f)
    tot = [tot[0] + oc, tot[1] + nc, tot[2] + ot, tot[3] + nt]
    rows.append(f"{f:<44} {oc:>6} {nc:>6} {nc-oc:>+6}   {ot:>6} {nt:>6} {nt-ot:>+6}")
print(f"{'file':<44} {'code':>6} {'':>6} {'':>6}   {'test':>6}")
print(f"{'':<44} {'parent':>6} {'change':>6} {'delta':>6}   {'parent':>6} {'change':>6} {'delta':>6}")
print("\n".join(rows))
print(f"{'total':<44} {tot[0]:>6} {tot[1]:>6} {tot[1]-tot[0]:>+6}   {tot[2]:>6} {tot[3]:>6} {tot[3]-tot[2]:>+6}")
