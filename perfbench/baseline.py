#!/usr/bin/env python3
"""Fold saved benchmark results into perfbench/baseline.json.

Usage (from the repository root), after runs of run.py on several seeds:

    python3 perfbench/baseline.py

Reads .perfbench_out/results/*.json.  For each workload and end-to-end
metric it records the median and quartiles (statistics.quantiles, n=4) of
the per-seed medians and their spread (q3 - q1) / median; for the per-layer
metrics it records the median over traced runs, with the layer accounting
of the traced wall time.
"""

from __future__ import annotations

import json
import sys

from run import HERE, WORK, WORKLOADS, summarize


def spread(values):
    stats = summarize(values)
    if stats["n"] > 1 and stats["median"]:
        stats["spread"] = (stats["q3"] - stats["q1"]) / stats["median"]
    return stats


ACCOUNTED = ("geometry.mesh_s", "geometry.constants_s", "geometry.embedding_s",
             "admissibility.report_s", "discretization.assemble_s",
             "discretization.project_s", "timestepper.integrate_self_s",
             "timestepper.checkpoint_s", "feedback.law_s", "diagnostics.trace_build_s",
             "diagnostics.write_csv_s", "diagnostics.fit_s", "trace.unaccounted_s")


def main():
    records = [json.loads(p.read_text()) for p in sorted((WORK / "results").glob("*.json"))]
    # runs at a shortened horizon (the smoke test) are not baseline runs
    records = [r for r in records
               if r["steps"] == WORKLOADS[r["workload"]].steps and r["failed"] == 0]
    baseline = {"end_to_end": {}, "per_layer": {}, "accounting": {}, "provenance": {}}
    for record in records:
        name = record["workload"]
        baseline["provenance"][name] = record["provenance"]
        kind = "per_layer" if record["trace"] else "end_to_end"
        table = baseline[kind].setdefault(name, {})
        for metric, stats in {**record["metrics"], **record["extra"]}.items():
            table.setdefault(metric, {"unit": stats["unit"], "values": []})
            table[metric]["values"].append(stats["median"])
    for kind in ("end_to_end", "per_layer"):
        for name, table in baseline[kind].items():
            for metric, entry in table.items():
                table[metric] = dict(spread(entry.pop("values")), unit=entry["unit"])
    for name, table in baseline["per_layer"].items():
        # recorder self time is part of the integrate span, outside its self time
        recorder_s = (table["diagnostics.recorder_us_per_sample"]["median"] * 1e-6
                      * (table["timestepper.steps"]["median"] + 1))
        layers = {m: table[m]["median"] for m in ACCOUNTED}
        layers["diagnostics.recorder_s"] = recorder_s
        total = table["trace.wall_s"]["median"]
        baseline["accounting"][name] = {
            "traced_wall_s": total,
            "sum_of_layer_medians_s": sum(layers.values()),
            "shares": {m: v / total for m, v in sorted(layers.items(), key=lambda kv: -kv[1])},
        }
    layers = baseline["per_layer"]
    if "ref1d" in layers and "rect64_saturating" in layers:
        baseline["replaces_roadmap_single_runs"] = {
            "recorder_us_per_sample_ref1d": {
                "roadmap": 416.0,
                "now": layers["ref1d"]["diagnostics.recorder_us_per_sample"]["median"]},
            "saturating_64x64_ms_per_step": {
                "roadmap": 238.0,
                "now": layers["rect64_saturating"]["timestepper.step_ms_p50"]["median"]},
        }
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    print(f"baseline from {len(records)} result files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
