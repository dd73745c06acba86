#!/usr/bin/env python3
"""Record the correctness gate's reference values into perfbench/reference.json.

Usage (from the repository root): python3 perfbench/record_reference.py

Runs one untraced child per (simulate workload, seed) for seeds 0..9 and
stores E_final and eta.  certify_fine's eta, M and N do not depend on the
initial data the seed draws, so one entry ("*") covers every seed.  Run it
only on a commit whose outputs are trusted: the gate compares later commits
against these values.
"""

from __future__ import annotations

import json
import sys

from run import HERE, WORKLOADS, config_text, gate, launch

REFERENCE_SEEDS = 10


def record(workload, seed):
    text = config_text(workload, seed)
    result = launch(workload, "plain", text, f"{workload.name}-s{seed}-reference")
    failures = gate(workload, result, None, workload.steps)
    if failures:
        raise SystemExit(f"{workload.name} seed {seed}: {failures}")
    if workload.command == "check":
        values = {k: float(result["certificate"][k]) for k in ("eta", "M", "N")}
        return {"values": values}
    values = {k: float(result["summary"][k]) for k in ("E_final", "eta")}
    return {"config_hash": result["config_hash"], "values": values}


def main():
    path = HERE / "reference.json"
    table = json.loads(path.read_text())
    for workload in WORKLOADS.values():
        if workload.command == "check":
            entries = {"*": record(workload, 0)}
        else:
            entries = {str(seed): record(workload, seed) for seed in range(REFERENCE_SEEDS)}
        table["workloads"][workload.name] = entries
        print(f"recorded {workload.name}: {len(entries)} entries", flush=True)
    path.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
