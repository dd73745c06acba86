#!/usr/bin/env python3
"""Reproduce the reference exponential-decay experiment.

Runs the admissibility check and the long damped simulation from
configs/reference_1d.ini, then compares the decay rate fitted by the run,
as its summary records it, with the certified envelope rate (2/3) eta.

Usage: python3 scripts/reproduce_decay.py [--dt DT] [--T T] [--out DIR]
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

from beamstab import harness  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dt", type=float, default=None)
    ap.add_argument("--T", type=float, default=None)
    ap.add_argument("--out", default=str(ROOT / "out" / "reference"))
    args = ap.parse_args()

    cfg = harness.parse_config(ROOT / "configs" / "reference_1d.ini")
    harness.apply_overrides(cfg, dt=args.dt, T=args.T, out=args.out, plot=True)

    print("== admissibility check ==")
    code = harness.run_check(cfg, out=cfg.out_dir)
    if code != harness.EXIT_OK:
        print("configuration is not admissible; aborting", file=sys.stderr)
        return code

    print("\n== simulation ==")
    code = harness.run_simulate(cfg)
    if code != harness.EXIT_OK:
        return code

    summary_path = Path(cfg.out_dir) / f"{cfg.prefix}_summary.txt"
    summary = dict(line.split(" ", 1) for line in summary_path.read_text().splitlines())
    if summary["fitted_rate"] == "undefined":
        print(f"the run fitted no decay rate; see {summary_path}", file=sys.stderr)
        return 1
    rate, r_squared = float(summary["fitted_rate"]), float(summary["fit_r_squared"])
    certified = 2.0 / 3.0 * float(summary["eta"])
    print("\n== decay rate ==")
    print(f"fitted rate     {rate:.6f}  (r^2 = {r_squared:.6f})")
    print(f"certified rate  {certified:.6f}  ((2/3) eta)")
    print(f"margin          {rate / certified:.2f}x")
    print(f"\nartifacts in {cfg.out_dir}/ (check CSV, trace CSV, energy SVG, summary)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
