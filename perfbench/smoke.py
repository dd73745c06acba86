#!/usr/bin/env python3
"""Smoke test of the benchmark itself (not of beamstab).

Usage (from the repository root): python3 perfbench/smoke.py

Checks BENCHMARK.json against its contract, that the ref1d workload is
configs/reference_1d.ini field for field, and then makes a two-step pass
over every workload with --trace 0 and --trace 1: each metric of
BENCHMARK.json must print with its unit, the result line must validate and
the correctness gate must pass.  Last, a directory holding only
BENCHMARK.json and the benchmark must make run.py fail without a result.
Takes under a minute; exits nonzero on the first problem.
"""

from __future__ import annotations

import configparser
import json
import math
import re
import shutil
import subprocess
import sys

from run import HERE, ROOT, WORK
from workloads import WORKLOADS, config_text

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(condition, message):
    if not condition:
        raise SystemExit(f"smoke: {message}")


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}, "BENCHMARK.json keys")
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.py")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    check(len(names) == len(set(names)), "a name is used twice")
    check(all(NAME.match(n) for n in names), "a name breaks the naming rule")
    for metric in spec["end_to_end"]:
        check(set(metric) == {"name", "unit", "better", "bound"}, f"keys of {metric}")
        check(0 < metric["bound"] <= 0.25, f"bound of {metric['name']}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
          "setup_s missing or malformed")
    check(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s must have the largest bound")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        check(UNIT.match(metric["unit"]), f"unit of {metric['name']}")
        check(metric["better"] in ("lower", "higher"), f"better of {metric['name']}")
    for workload in spec["workloads"]:
        check(set(workload) == {"name", "why"} and len(workload["why"]) <= 200
              and "\n" not in workload["why"], f"workload entry {workload['name']}")


def check_reference_config():
    """ref1d differs from configs/reference_1d.ini only in T, output and amplitudes."""
    ours, theirs = configparser.ConfigParser(), configparser.ConfigParser()
    ours.read_string(config_text(WORKLOADS["ref1d"], 0))
    theirs.read(ROOT / "configs" / "reference_1d.ini")
    varying = {("time", "t"), ("initial", "u0_amplitude"), ("initial", "v0_amplitude")}
    for parser_a, parser_b in ((ours, theirs), (theirs, ours)):
        for section in parser_a.sections():
            if section == "output":
                continue
            for key, value in parser_a[section].items():
                if (section, key) not in varying:
                    check(parser_b.get(section, key, fallback=None) == value,
                          f"ref1d [{section}] {key} differs from configs/reference_1d.ini")


def check_result(spec, workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0", "--steps", "2", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0 and lines, f"{workload} trace {trace}: exit {proc.returncode}\n"
          f"{proc.stdout[-3000:]}{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    where = f"{workload} trace {trace}"
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys")
    check(result["correct"] is True, f"{where}: gate failed\n{proc.stdout[-3000:]}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1
          and isinstance(result["failed"], int) and result["failed"] == 0,
          f"{where}: attempted/failed")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    check(sorted(result["metrics"]) == sorted(m["name"] for m in wanted),
          f"{where}: metric names")
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        check(set(got) == {"value", "unit"} and got["unit"] == metric["unit"],
              f"{where}: {metric['name']} unit")
        check(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
              f"{where}: {metric['name']} value")
        if not trace:
            check(got["value"] > 0, f"{where}: {metric['name']} is not positive")
        check(any(line.split()[:1] == [metric["name"]] and f" {metric['unit']} " in line
                  for line in lines), f"{where}: {metric['name']} not printed with its unit")
    check(any(line.startswith("failed_frac") for line in lines), f"{where}: failed_frac")
    print(f"ok {where}: {result['attempted']} runs", flush=True)


def check_bare_directory():
    """Without the program next to it, run.py must fail and print no result."""
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "ref1d",
                           "--seed", "1", "--seconds", "10", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "bare directory: run.py exited 0")
    check('"correct"' not in proc.stdout, "bare directory: run.py printed a result")
    print("ok bare directory: exit", proc.returncode, flush=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    check_reference_config()
    print("ok BENCHMARK.json and the ref1d config", flush=True)
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_result(spec, workload, trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
