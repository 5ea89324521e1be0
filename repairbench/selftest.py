#!/usr/bin/env python3
"""Self-test of the repair-session benchmark.

Checks BENCHMARK.json against its schema limits, then runs the benchmark's
command on every workload it lists (or on those named with --workload),
once untraced and once traced, and fails if

  * a run exits non-zero, reports correct=false, or its last line is not
    the result object;
  * an end-to-end metric (untraced) or per-layer metric (traced) named in
    BENCHMARK.json is missing, or carries another unit;
  * the run prints a metric that BENCHMARK.json does not name.

Run from the repository root:

    python3 repairbench/selftest.py [--workload NAME ...] [--seed N]

A full pass runs every workload twice, a few minutes in all.
"""

import argparse
import json
import math
import re
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check_schema(bench):
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(bench) != keys:
        errors.append(f"top-level keys {sorted(bench)} != {sorted(keys)}")
    command = bench.get("command", [])
    if not (1 <= len(command) <= 32) or any(len(c) > 200 for c in command):
        errors.append("command must be 1-32 strings of at most 200 characters")
    for part in command:
        if part.startswith("/") or ".." in part.split("/"):
            errors.append(f"command part {part!r} leaves the checkout")
    paths = bench.get("paths", [])
    if not (1 <= len(paths) <= 16) or not all(PATH.match(p) and ".." not in p.split("/") for p in paths):
        errors.append(f"bad paths {paths}")
    if not (isinstance(bench.get("run_seconds"), int) and 1 <= bench["run_seconds"] <= 60):
        errors.append("run_seconds must be a whole number from 1 to 60")
    names = []
    workloads = bench.get("workloads", [])
    if not 2 <= len(workloads) <= 8:
        errors.append("2 to 8 workloads")
    for w in workloads:
        if set(w) != {"name", "why"} or "\n" in w["why"] or len(w["why"]) > 200:
            errors.append(f"workload {w} needs exactly a name and a one-line why")
        names.append(w.get("name", ""))
    for section, limit, keys in (
        ("end_to_end", 16, {"name", "unit", "better", "bound"}),
        ("per_layer", 128, {"name", "unit", "better"}),
    ):
        metrics = bench.get(section, [])
        if not 1 <= len(metrics) <= limit:
            errors.append(f"{section}: 1 to {limit} metrics")
        for m in metrics:
            if set(m) != keys:
                errors.append(f"{section} metric {m} must have exactly {sorted(keys)}")
                continue
            if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
                errors.append(f"bad unit or direction in {m}")
            if section == "end_to_end" and not (0 < m["bound"] <= 0.25):
                errors.append(f"bound of {m['name']} must be in (0, 0.25]")
            names.append(m["name"])
    for name in names:
        if not NAME.match(name):
            errors.append(f"bad name {name!r}")
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        errors.append(f"names used more than once: {sorted(dupes)}")
    setup = [m for m in bench.get("end_to_end", []) if m.get("name") == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("end_to_end must hold setup_s in s, lower is better")
    return errors


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    errors = []
    if proc.returncode != 0:
        errors.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as err:
        return errors + [f"last line is not JSON ({err})"], None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("correct is not true")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not (isinstance(attempted, int) and attempted >= 1 and isinstance(failed, int) and 0 <= failed <= attempted):
        errors.append(f"attempted={attempted} failed={failed}")
    declared = {m["name"]: m for m in bench["per_layer" if trace else "end_to_end"]}
    printed = result.get("metrics", {})
    for name, metric in declared.items():
        if name not in printed:
            errors.append(f"missing metric {name}")
        elif printed[name].get("unit") != metric["unit"]:
            errors.append(f"{name}: unit {printed[name].get('unit')} != {metric['unit']}")
    for name, metric in printed.items():
        if name not in declared:
            errors.append(f"prints undeclared metric {name}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            errors.append(f"{name}: value {value!r} is not a finite number")
        elif not trace and value == 0:
            errors.append(f"{name}: an end-to-end metric reads 0")
    return errors, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    failures = [f"BENCHMARK.json: {e}" for e in check_schema(bench)]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        for trace in (0, 1):
            errors, _ = run(bench, workload, args.seed, trace)
            status = "ok" if not errors else "FAIL"
            print(f"{workload} trace={trace}: {status}", flush=True)
            failures += [f"{workload} trace={trace}: {e}" for e in errors]
    for failure in failures:
        print(failure, file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
