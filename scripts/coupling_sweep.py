#!/usr/bin/env python3
"""Sweep coupling strengths and feedback laws on the reference interval.

For each (alpha, law) pair the admissibility certificate is evaluated;
admissible points are simulated and their decay rate fitted.  Results land
in a CSV and are echoed as a table.

Usage: python3 scripts/coupling_sweep.py [--alphas A1 A2 ...] [--laws L1 ...]
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

from beamstab import harness  # noqa: E402
from beamstab.errors import ConfigError  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alphas", type=float, nargs="+",
                    default=[0.05, 0.1, 0.2, 0.5])
    ap.add_argument("--laws", nargs="+", default=["identity", "saturating"])
    ap.add_argument("--T", type=float, default=20.0)
    ap.add_argument("--out", default=str(ROOT / "out" / "sweep"))
    args = ap.parse_args()

    # the grid goes through the [sweep] rules of a config file, and --T and
    # --out through the same checks as the command line's overrides
    text = (ROOT / "configs" / "reference_1d.ini").read_text()
    text += (f"\n[sweep]\nalpha = {' '.join(map(repr, args.alphas))}\n"
             f"laws = {' '.join(args.laws)}\n")
    try:
        cfg = harness.apply_overrides(harness.parse_config(text=text), T=args.T, out=args.out)
        return harness.run_sweep(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return harness.EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
