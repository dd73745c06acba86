#!/usr/bin/env python3
"""Reproduce the reference exponential-decay experiment.

Runs the admissibility check and the long damped simulation from
configs/reference_1d.ini, then fits the observed decay rate and compares
it with the certified envelope rate (2/3) eta.

Usage: python3 scripts/reproduce_decay.py [--dt DT] [--T T] [--out DIR]
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

from beamstab import harness  # noqa: E402
from beamstab.diagnostics import fit_decay_rate, read_trace_csv  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dt", type=float, default=None)
    ap.add_argument("--T", type=float, default=None)
    ap.add_argument("--out", default=str(ROOT / "out" / "reference"))
    args = ap.parse_args()

    cfg = harness.parse_config(ROOT / "configs" / "reference_1d.ini")
    harness.apply_overrides(cfg, dt=args.dt, T=args.T, out=args.out, plot=True)

    print("== admissibility check ==")
    code = harness.run_check(cfg)
    if code != harness.EXIT_OK:
        print("configuration is not admissible; aborting", file=sys.stderr)
        return code

    print("\n== simulation ==")
    code = harness.run_simulate(cfg)
    if code != harness.EXIT_OK:
        return code

    trace = read_trace_csv(Path(args.out) / f"{cfg.prefix}_trace.csv")
    fit = fit_decay_rate(trace)
    mesh, partition = harness.build_domain(cfg)
    cert = harness.build_certificate(cfg, partition, harness.build_constants(mesh, partition))
    certified = 2.0 / 3.0 * cert.eta
    print("\n== decay rate ==")
    print(f"fitted rate     {fit.rate:.6f}  (r^2 = {fit.r_squared:.6f})")
    print(f"certified rate  {certified:.6f}  ((2/3) eta)")
    print(f"margin          {fit.rate / certified:.2f}x")
    print(f"\nartifacts in {args.out}/ (trace CSV, energy SVG, summary)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
