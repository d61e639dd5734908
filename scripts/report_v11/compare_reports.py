#!/usr/bin/env python3
"""Compare `enmc` outputs of the parent (schema v10) and the change (v11).

Usage: compare_reports.py PARENT_DIR CHANGE_DIR

Each directory holds `<name>.out` (stdout), `<name>.code` (exit code) and
`files/` (files the runs wrote), as produced by run.sh. For every stdout
that is a RunReport, the v11 report is flattened (each section's keys keep
their v10 names) and checked:

  * every v11 leaf equals the parent's value under the same key;
  * every key the parent wrote and v11 dropped held its v10 default.

Allowed differences: `schema_version` 10 -> 11, and the error-profile
triplet (`ber_scale`, `retention_base`, `weak_column_scale`) leaving
non-fault reports. Host time is masked: `speedup`, `phases[].wall_ns` and
the `sharded run:` note. Every other stdout, every exit code and every
written file must match byte for byte (text stdout with the host-side
speedup masked).
"""

import json
import os
import re
import sys

V10_DEFAULTS = {
    "threads": 0, "speedup": 1.0, "protocol_violations": 0,
    "slo_attainment": 0.0, "p99_ns": 0.0, "shed": 0, "degrade_transitions": 0,
    "ber": 0.0, "refresh_multiplier": 1.0, "ecc_corrected": 0,
    "ecc_uncorrected": 0, "quality_degradation_pct": 0.0,
    "energy_nj": 0.0, "breakdown": [],
    "cost_backend": "cycle-accurate", "fit_anchors": 0, "audit_points": 0,
    "audit_max_rel_err": 0.0,
    "nodes": 0, "placement": "", "hot_shard_replicas": 0, "network_share": 0.0,
    "tenants": [],
    "space_size": 0, "evaluated_designs": 0, "audited_designs": 0,
    "frontier_points": 0, "dominated_points": 0, "max_area_mm2": 0.0,
    "max_power_mw": 0.0, "offload_nmp": 0, "offload_cpu": 0,
    "memory_tech": "", "ber_scale": 1.0, "retention_base": 0.0,
    "weak_column_scale": 1.0,
}
SECTIONS = ["attribution", "serving", "fault", "surrogate", "fleet", "tune", "offload"]
TRIPLET = {"ber_scale", "retention_base", "weak_column_scale"}


def mask(report):
    report.pop("speedup", None)
    for p in report.get("phases", []):
        p["wall_ns"] = "X"
    report["notes"] = [re.sub(r"speedup [0-9.]+x", "speedup Xx", n) for n in report.get("notes", [])]
    return report


def flatten_v11(report):
    flat, sections = {}, []
    for key, value in report.items():
        if key in SECTIONS:
            sections.append(key)
            for k, v in value.items():
                assert k not in flat, f"duplicate key {k}"
                flat[k] = v
        else:
            flat[key] = value
    return flat, sections


def compare_report(name, old, new, problems, exceptions):
    if old.get("schema_version") != 10 or new.get("schema_version") != 11:
        problems.append(f"{name}: schema_version {old.get('schema_version')} -> {new.get('schema_version')}")
    old, new = mask(dict(old)), mask(dict(new))
    flat, sections = flatten_v11(new)
    for key, value in flat.items():
        if key == "schema_version":
            continue
        if key not in old:
            problems.append(f"{name}: v11 key {key} absent from the parent")
        elif old[key] != value:
            problems.append(f"{name}: {key} {old[key]!r} -> {value!r}")
    for key, value in old.items():
        if key in flat:
            continue
        if key in TRIPLET and "fault" not in sections:
            if value != V10_DEFAULTS[key]:
                exceptions.append(f"{name}: dropped {key}={value!r} (error profile on a non-fault report)")
            continue
        if key not in V10_DEFAULTS:
            problems.append(f"{name}: dropped non-section key {key}")
        elif value != V10_DEFAULTS[key]:
            problems.append(f"{name}: dropped {key}={value!r}, not its default {V10_DEFAULTS[key]!r}")
    return sections


def read(path):
    with open(path, "rb") as f:
        return f.read()


def main(parent, change):
    problems, exceptions, rows = [], [], []
    names = sorted(n[:-4] for n in os.listdir(parent) if n.endswith(".out"))
    for name in names:
        code_old = read(f"{parent}/{name}.code").strip()
        code_new = read(f"{change}/{name}.code").strip()
        out_old, out_new = read(f"{parent}/{name}.out"), read(f"{change}/{name}.out")
        kind = "text"
        try:
            old, new = json.loads(out_old), json.loads(out_new)
            is_report = isinstance(old, dict) and "schema_version" in old
        except ValueError:
            is_report = False
        if is_report:
            sections = compare_report(name, old, new, problems, exceptions)
            kind = "report [" + ",".join(sections) + "]"
        else:
            t_old = re.sub(rb"parallel speedup [0-9.]+x", b"parallel speedup Xx", out_old)
            t_new = re.sub(rb"parallel speedup [0-9.]+x", b"parallel speedup Xx", out_new)
            if t_old != t_new:
                problems.append(f"{name}: stdout differs")
        if code_old != code_new:
            problems.append(f"{name}: exit {code_old.decode()} -> {code_new.decode()}")
        rows.append(f"{name:<24} exit {code_new.decode():>2}  {kind}")
    files = sorted(os.listdir(f"{parent}/files"))
    for f in files:
        if read(f"{parent}/files/{f}") != read(f"{change}/files/{f}"):
            problems.append(f"files/{f} differs")
    print("\n".join(rows))
    print(f"\n{len(names)} invocations, {len(files)} written files compared")
    print("allowed exceptions:" if exceptions else "allowed exceptions: none")
    for e in exceptions:
        print("  " + e)
    print("problems:" if problems else "problems: none")
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
