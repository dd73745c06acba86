#!/usr/bin/env python3
"""beamstab benchmark: time to a certified trace, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

One client, closed loop: workload runs go one after another, each in a
fresh Python process (CLI users pay first-call costs on every run), with
BLAS/OpenMP threads pinned to 1.  The loop keeps starting runs until the
next one would end after --seconds, with a floor of MIN_PLAIN runs
(--trace 0) or MIN_PAIRS untraced/traced pairs (--trace 1).

--trace 0  untraced runs through harness.run_simulate / run_check; prints
           the end-to-end metrics of BENCHMARK.json (medians over runs).
--trace 1  alternates untraced and traced runs; prints the per-layer
           metrics (medians over traced runs) and the tracing overhead.

Every run passes the correctness gate or counts as failed: see gate().
The last line of standard output is the result JSON; the full record
(quartiles, sample counts, provenance, per-run data) is written to
.perfbench_out/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_KERNEL_S  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, config_text  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".perfbench_out"
MIN_PLAIN = 3
MIN_PAIRS = 2
CHILD_TIMEOUT_S = 150
# printed and saved, but not part of the result line
EXTRA_UNITS = {"raw_wall_s": "s", "raw_setup_s": "s", "host.slowdown": "ratio",
               "timestepper.steps_per_s": "1/s", "timestepper.raw_steps_per_s": "1/s"}
PINNED_ENV = {
    **{name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")},
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
    # glibc's default initial mmap threshold, pinned: its dynamic adjustment
    # made the peak RSS of one and the same run vary between 116 and 154 MiB
    "MALLOC_MMAP_THRESHOLD_": "131072",
}


def child_env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED_ENV)


def launch(workload, mode, text, run_id):
    """One child process in a fresh directory; returns its result dict."""
    rundir = WORK / "runs" / workload.name / run_id
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    (rundir / "config.ini").write_text(text)
    cmd = [sys.executable, str(HERE / "child.py"), mode, workload.command, run_id]
    try:
        proc = subprocess.run(cmd, cwd=rundir, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"mode": mode, "run_id": run_id, "error": f"timeout after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0 or not (rundir / "result.json").exists():
        return {"mode": mode, "run_id": run_id,
                "error": f"child exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    result = json.loads((rundir / "result.json").read_text())
    result.update(mode=mode, run_id=run_id)
    if (rundir / "spans.json").exists():
        spans_dir = WORK / "spans" / workload.name
        spans_dir.mkdir(parents=True, exist_ok=True)
        shutil.move(str(rundir / "spans.json"), str(spans_dir / f"{run_id}.json"))
    shutil.rmtree(rundir, ignore_errors=True)
    return result


# ---------------------------------------------------------------------------
# correctness gate

def _rel_diff(value, expected):
    return abs(value - expected) / max(abs(expected), 1e-300)


def _finite_positive(text):
    try:
        value = float(text)
    except (TypeError, ValueError):
        return False
    return math.isfinite(value) and value > 0


def gate(workload, result, expected, steps):
    """Failures of one run; `expected` holds stored references or is None."""
    if "error" in result:
        return [result["error"]]
    failures = []
    if result["exit_code"] != 0:
        failures.append(f"exit code {result['exit_code']}")
    if workload.command == "check":
        cert = result["certificate"]
        if cert.get("admissible") != "true":
            failures.append("certificate not admissible")
        checked = {k: cert.get(k) for k in ("eta", "M", "N")}
    else:
        summary = result["summary"]
        if summary.get("bound_violations") != "0":
            failures.append(f"bound_violations {summary.get('bound_violations')}")
        if summary.get("samples") != str(steps + 1):
            failures.append(f"samples {summary.get('samples')} != {steps + 1}")
        if not result.get("trace_csv_bytes"):
            failures.append("no trace CSV written")
        checked = {k: summary.get(k) for k in ("E_final", "eta")}
    for key, text in checked.items():
        if not _finite_positive(text):
            failures.append(f"{key} = {text!r} is not a finite positive number")
    if expected is not None:
        if expected.get("config_hash", result["config_hash"]) != result["config_hash"]:
            failures.append("config differs from the one the reference was recorded for")
        for key, value in expected["values"].items():
            if _finite_positive(checked.get(key)) and \
                    _rel_diff(float(checked[key]), value) > expected["rel_tol"]:
                failures.append(f"{key} {checked[key]} != reference {value!r} "
                                f"(rel tol {expected['rel_tol']:g})")
    return failures


def stored_reference(workload, seed, steps):
    """Reference values for this workload and seed, or None."""
    if steps != workload.steps:
        return None
    table = json.loads((HERE / "reference.json").read_text())
    entries = table["workloads"].get(workload.name, {})
    entry = entries.get(str(seed), entries.get("*"))
    if entry is None:
        return None
    return dict(entry, rel_tol=table["rel_tol"])


def artifact_digest(result):
    return result.get("trace_csv_sha256") or result.get("check_csv_sha256")


# ---------------------------------------------------------------------------
# statistics

def summarize(values):
    values = sorted(values)
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def step_percentiles(step_ms):
    """p50 and the highest order statistic with >= 10 steps beyond it."""
    if not step_ms:
        return {"timestepper.step_ms_p50": 0.0, "timestepper.step_ms_tail": 0.0,
                "timestepper.step_tail_pct": 0.0, "timestepper.step_tail_beyond": 0}
    ordered = sorted(step_ms)
    n = len(ordered)
    k = max(n - 11, 0)
    return {"timestepper.step_ms_p50": statistics.median(ordered),
            "timestepper.step_ms_tail": ordered[k],
            "timestepper.step_tail_pct": 100.0 * k / max(n - 1, 1),
            "timestepper.step_tail_beyond": n - 1 - k}


def host_slowdown(result):
    return result["kernel_s"] / REFERENCE_KERNEL_S


def steps_per_s(plain, corrected=True):
    """Time steps per second inside integrate, untraced runs (none for check).

    At the reference host speed (calibrate.py), like wall_s, unless not corrected.
    """
    return [(int(r["summary"]["samples"]) - 1) / r["integrate_s"]
            * (host_slowdown(r) if corrected else 1.0)
            for r in plain if r.get("integrate_s")]


def end_to_end(plain):
    """Times at the reference host speed (calibrate.py), plus the raw figures."""
    slowdown = [host_slowdown(r) for r in plain]
    samples = {"wall_s": [r["wall_s"] / f for r, f in zip(plain, slowdown)],
               "setup_s": [r["setup_s"] / f for r, f in zip(plain, slowdown)],
               "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
               "raw_wall_s": [r["wall_s"] for r in plain],
               "raw_setup_s": [r["setup_s"] for r in plain],
               "host.slowdown": slowdown,
               "timestepper.steps_per_s": steps_per_s(plain),
               "timestepper.raw_steps_per_s": steps_per_s(plain, corrected=False)}
    return {name: summarize(v) for name, v in samples.items() if v}


def per_layer(plain, traced, pairs):
    layers = [r["layers"] for r in traced]
    stats = {name: summarize([layer[name] for layer in layers])
             for name in layers[0] if not name.startswith("_")}
    stats["timestepper.steps_per_s"] = summarize(steps_per_s(plain) or [0.0])
    stats["timestepper.raw_steps_per_s"] = summarize(
        steps_per_s(plain, corrected=False) or [0.0])
    stats["host.slowdown"] = summarize([host_slowdown(r) for r in plain])
    pooled = [ms for r in traced for ms in r["layers"]["_step_ms"]]
    for name, value in step_percentiles(pooled).items():
        stats[name] = {"median": value, "q1": value, "q3": value, "n": len(pooled)}
    # untraced and traced runs alternate, so each pair shares the machine's state
    stats["trace_overhead"] = summarize(
        [t["wall_s"] / p["wall_s"] - 1.0 for p, t in pairs] or [0.0])
    return stats


# ---------------------------------------------------------------------------
# provenance

def provenance(results):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "not installed"

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    problem = next((r["problem"] for r in results if "problem" in r), {})
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "commit": commit,
            "config_hash": next((r["config_hash"] for r in results if "config_hash" in r), None),
            "pinned_env": PINNED_ENV, **problem}


# ---------------------------------------------------------------------------
# main

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring budget (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steps", type=int, default=None,
                    help="override the horizon in time steps (smoke test); "
                         "stored references then do not apply")
    return ap.parse_args(argv)


def measure(workload, text, seconds, trace, seed):
    """Run children until the budget is spent; returns (plain, traced) results."""
    modes = ("plain", "traced") if trace else ("plain",)
    minimum = MIN_PAIRS if trace else MIN_PLAIN
    plain, traced = [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        for mode in modes:
            run_id = f"{workload.name}-s{seed}-{mode}-{rounds}"
            (traced if mode == "traced" else plain).append(
                launch(workload, mode, text, run_id))
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= minimum and elapsed + elapsed / rounds > seconds:
            return plain, traced


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "beamstab" / "__init__.py").is_file():
        print("error: run from the root of a beamstab checkout (src/beamstab not found)",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workload = WORKLOADS[args.workload]
    steps = workload.steps if args.steps is None else args.steps
    text = config_text(workload, args.seed, steps)
    shutil.rmtree(WORK / "spans" / workload.name, ignore_errors=True)

    plain, traced = measure(workload, text, seconds, args.trace, args.seed)
    runs = plain + traced
    expected = stored_reference(workload, args.seed, steps)
    reference_digest = next((artifact_digest(r) for r in plain if "error" not in r), None)
    for result in runs:
        result["failures"] = gate(workload, result, expected, steps)
        if "error" not in result and artifact_digest(result) != reference_digest:
            result["failures"].append(
                f"{'trace' if workload.command == 'simulate' else 'check'} CSV differs "
                "from the first untraced run's")
    good_plain = [r for r in plain if not r["failures"]]
    good_traced = [r for r in traced if not r["failures"]]
    failed = sum(1 for r in runs if r["failures"])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    stats = {}
    if good_plain and (good_traced or not args.trace):
        pairs = [(p, t) for p, t in zip(plain, traced) if not p["failures"] + t["failures"]]
        stats = per_layer(good_plain, good_traced, pairs) if args.trace \
            else end_to_end(good_plain)
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": seconds, "steps": steps, "reference_checked": expected is not None,
        "attempted": len(runs), "failed": failed,
        "failed_frac": failed / len(runs),
        "provenance": provenance(runs),
        "metrics": {m["name"]: dict(stats.get(m["name"], {}), unit=m["unit"]) for m in wanted},
        "extra": {name: dict(stats[name], unit=unit) for name, unit in EXTRA_UNITS.items()
                  if name in stats and name not in {m["name"] for m in wanted}},
        "runs": [{k: v for k, v in r.items() if k not in ("output", "layers")} for r in runs],
        "layers": [r["layers"] for r in traced if "layers" in r and not r["failures"]],
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"beamstab benchmark: workload {workload.name}, seed {args.seed}, "
          f"trace {args.trace}, {f'{steps} steps' if workload.command == 'simulate' else 'check'}, "
          f"{len(runs)} runs, "
          f"reference {'checked' if expected is not None else 'not stored for this seed'}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    for name, s in {**record["metrics"], **record["extra"]}.items():
        if "median" in s:
            print(f"{name:40s} {s['median']:.6g} {s['unit']}  "
                  f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    print(f"{'failed_frac':40s} {record['failed_frac']:.6g} ratio  ({failed}/{len(runs)})")
    for result in runs:
        for failure in result["failures"]:
            print(f"FAILED {result['run_id']}: {failure}")

    metrics = {name: {"value": s["median"], "unit": s["unit"]}
               for name, s in record["metrics"].items() if "median" in s}
    correct = failed == 0 and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
