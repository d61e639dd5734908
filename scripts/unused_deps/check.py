#!/usr/bin/env python3
"""Names every dependency a workspace manifest declares and its sources never use.

For the root package and each workspace member (the `members` globs of the
root Cargo.toml), every key of `[dependencies]`, `[dev-dependencies]` and
`[build-dependencies]` must be named by one of that package's Rust sources as
`<crate>::`, `use <crate>`, `<crate> as` or `extern crate <crate>`, with the
crate's name spelled with underscores. A member's sources are every `.rs`
file under its directory; the root package's are `build.rs` and the files
under `src/`, `tests/`, `examples/` and `benches/`. Doc examples count: they
are sources too.

Prints one line per unused declaration and exits 1 if there is any, else 0.

Usage (from the repo root):
    scripts/unused_deps/check.py
"""
import glob
import os
import re
import sys
import tomllib

SECTIONS = ("dependencies", "dev-dependencies", "build-dependencies")
ROOT_SOURCES = ("build.rs", "src", "tests", "examples", "benches")


def rust_files(paths):
    for path in paths:
        if os.path.isfile(path) and path.endswith(".rs"):
            yield path
        for base, _, files in os.walk(path):
            yield from (os.path.join(base, f) for f in files if f.endswith(".rs"))


def unused(package_dir, sources):
    with open(os.path.join(package_dir, "Cargo.toml"), "rb") as f:
        manifest = tomllib.load(f)
    text = ""
    for path in rust_files(sources):
        with open(path, encoding="utf-8") as f:
            text += f.read() + "\n"
    for section in SECTIONS:
        for name in manifest.get(section, {}):
            ident = re.escape(name.replace("-", "_"))
            named = rf"(?<![\w:]){ident}::|\buse\s+{ident}\b|(?<![\w:]){ident}\s+as\b"
            if not re.search(rf"{named}|\bextern\s+crate\s+{ident}\b", text):
                yield f"{os.path.join(package_dir, 'Cargo.toml')}: [{section}] {name}"


def main():
    with open("Cargo.toml", "rb") as f:
        members = tomllib.load(f)["workspace"]["members"]
    packages = [(".", [os.path.join(".", s) for s in ROOT_SOURCES])]
    for pattern in members:
        for member in sorted(glob.glob(pattern)):
            if os.path.isfile(os.path.join(member, "Cargo.toml")):
                packages.append((member, [member]))
    found = [line for package, sources in packages for line in unused(package, sources)]
    for line in found:
        print(f"unused: {line}")
    print(f"{len(packages)} manifest(s), {len(found)} unused declaration(s)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
