"""The benchmark's workloads and the seeded configs it hands the program.

Each workload is a fixed INI config except for the two initial-data
amplitudes, which the seed draws from a band of +-AMPLITUDE_BAND around the
listed values.  The program only ever sees the generated config text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0
AMPLITUDE_BAND = 0.05
OUTPUT_DIR = "out"  # relative: each child process runs in its own directory


@dataclass(frozen=True)
class Workload:
    name: str
    command: str        # "simulate" or "check"
    sections: dict      # INI sections without [initial] amplitudes and [time] T
    amplitudes: dict    # listed initial-data amplitudes the seed perturbs
    steps: int          # horizon in time steps (simulate only)
    why: str


_RECT_MESH = {"kind": "rect", "lx": "1.0", "ly": "1.0", "x0": "-0.1 -0.1"}
# alpha = 0.03 in 2D: at 0.1 the rect fails the smallness conditions
_RECT_PROBLEM = {"alpha1": "0.03", "alpha2": "0.03", "mu": "constant", "mu_c": "1.0"}
_SINE_DATA = {"u0": "sine", "v0": "sine"}
_LISTED_AMPLITUDES = {"u0_amplitude": 1.0, "v0_amplitude": 0.5}


def _rect(n, law):
    return {
        "mesh": dict(_RECT_MESH, nx=str(n), ny=str(n)),
        "problem": dict(_RECT_PROBLEM),
        "feedback": {"law1": law, "law2": law},
        "initial": dict(_SINE_DATA),
        "time": {"dt": "1e-3"},
    }


WORKLOADS = {w.name: w for w in (
    Workload(
        "ref1d", "simulate",
        # configs/reference_1d.ini, field for field (the smoke test checks it)
        {"mesh": {"kind": "interval", "length": "1.0", "nodes": "201", "x0": "0.0"},
         "problem": {"alpha1": "0.1", "alpha2": "0.1", "mu": "constant", "mu_c": "1.0"},
         "feedback": {"law1": "identity", "law2": "identity"},
         "initial": dict(_SINE_DATA),
         "time": {"dt": "1e-3"}},
        _LISTED_AMPLITUDES, 3000,
        "paper reference experiment on 400 dofs: SciPy dispatch, trace recorder "
        "and CSV writing dominate"),
    Workload(
        "rect64_saturating", "simulate", _rect(64, "saturating"),
        _LISTED_AMPLITUDES, 10,
        "64x64 rect, nonlinear laws: Newton rebuilds and refactors the Jacobian "
        "every iteration, the solver does nearly all the work"),
    Workload(
        "rect64_identity", "simulate", _rect(64, "identity"),
        _LISTED_AMPLITUDES, 300,
        "same mesh and data with linear laws: one LU, back-substitution per step "
        "and the recorder at scale"),
    Workload(
        "certify_fine", "check", _rect(192, "identity"),
        _LISTED_AMPLITUDES, 1,
        "check only on a 192x192 rect: mesh, assembly and the eigen-iterations "
        "of the certificate do the work"),
)}


def draw_amplitudes(workload, seed):
    """Initial-data amplitudes for a seed; the same seed gives the same values."""
    rng = random.Random(f"{workload.name}/{seed}")
    return {key: value * (1.0 + AMPLITUDE_BAND * (2.0 * rng.random() - 1.0))
            for key, value in sorted(workload.amplitudes.items())}


def config_text(workload, seed, steps=None):
    """The INI text of one workload run; `steps` overrides the horizon."""
    steps = workload.steps if steps is None else steps
    sections = {name: dict(body) for name, body in workload.sections.items()}
    sections["initial"].update(
        {key: repr(value) for key, value in draw_amplitudes(workload, seed).items()})
    dt = float(sections["time"]["dt"])
    sections["time"]["T"] = repr(steps * dt)
    sections["output"] = {"dir": OUTPUT_DIR, "prefix": workload.name}
    lines = [f"# beamstab benchmark workload {workload.name}, seed {seed}"]
    for name, body in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in body.items())
    return "\n".join(lines) + "\n"
