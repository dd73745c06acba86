"""One measured run of one workload, in a fresh process.

Usage: python3 child.py {plain|traced} {simulate|check} RUN_ID

Runs in its own working directory, reads `config.ini` there and writes
`result.json` (plus, when traced, `spans.json`).  Imports happen before
the clock starts: interpreter and NumPy/SciPy start-up is not beamstab code.

plain   the call the CLI makes (harness.run_simulate / harness.run_check).
        harness.integrate and harness.build_certificate are wrapped only
        to take the timestamp that ends set-up, and harness.assemble only
        to keep the system for its sizes; after the run, the kernel of
        calibrate.py measures the host's speed.
traced  the same pipeline rebuilt from the finest public calls, with a
        span around each call, around each trace-recorder call and around
        each feedback-law evaluation.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from beamstab import diagnostics, geometry, harness, timestepper
from beamstab.admissibility import build_report
from beamstab.discretization import assemble, project_initial_data
from beamstab.errors import FitUndefinedError, StepFailureError
from beamstab.fields import make_field

from calibrate import kernel_seconds
from tracing import TimedObserver, Tracer

RECORDER = "diagnostics.TraceRecorder"


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _parse_summary(text):
    """`key value` lines of the simulate summary."""
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        out[key] = value
    return out


def _file_digest(path):
    path = Path(path)
    if not path.exists():
        return None, 0
    data = path.read_bytes()
    return hashlib.sha256(data).hexdigest(), len(data)


def _artifacts(cfg, command):
    """Digests of the artifacts the correctness gate compares."""
    outdir = Path(cfg.out_dir)
    if command == "check":
        path = outdir / f"{cfg.prefix}_check.csv"
        digest, size = _file_digest(path)
        fields = {}
        if path.exists():
            header, values = path.read_text().splitlines()[:2]
            fields = dict(zip(header.split(","), values.split(",")))
        return {"check_csv_sha256": digest, "check_csv_bytes": size,
                "certificate": {k: fields.get(k) for k in ("admissible", "eta", "M", "N")}}
    digest, size = _file_digest(outdir / f"{cfg.prefix}_trace.csv")
    return {"trace_csv_sha256": digest, "trace_csv_bytes": size}


def _problem_size(system):
    return {"free_dofs": 2 * int(len(system.free)), "Q": int(len(system.trace_weights)),
            "nnz_K": int(system.stiffness.nnz)}


def run_plain(command, text):
    stamps = {}

    def stamped(fn, key):
        def wrapper(*args, **kwargs):
            stamps.setdefault(f"{key}_enter", perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                stamps[f"{key}_exit"] = perf_counter()
            if key == "assemble":
                stamps["system"] = result
            return result
        return wrapper

    harness.integrate = stamped(harness.integrate, "integrate")
    harness.build_certificate = stamped(harness.build_certificate, "certificate")
    harness.assemble = stamped(harness.assemble, "assemble")
    stream = io.StringIO()

    start = perf_counter()
    cfg = harness.parse_config(text=text)
    if command == "check":
        code = harness.run_check(cfg, out=cfg.out_dir, stream=stream)
    else:
        code = harness.run_simulate(cfg, stream=stream)
    end = perf_counter()

    setup_end = stamps.get("certificate_exit" if command == "check" else "integrate_enter")
    result = {"exit_code": code, "wall_s": end - start,
              "setup_s": None if setup_end is None else setup_end - start,
              "peak_rss_mb": _peak_rss_mb(), "output": stream.getvalue()}
    if command == "simulate":
        result["summary"] = _parse_summary(stream.getvalue())
        if "integrate_exit" in stamps:
            result["integrate_s"] = stamps["integrate_exit"] - stamps["integrate_enter"]
    if "system" in stamps:
        result["problem"] = _problem_size(stamps["system"])
    result.update(_artifacts(cfg, command))
    result["kernel_s"] = kernel_seconds()  # after the workload: it pays first-call costs
    return result


def _traced_setup(tracer, cfg, always_certify):
    """Mesh, partition, wrapped laws, operators and the certificate.

    As in run_simulate, a simulate run certifies only strongly monotone laws.
    """
    with tracer.span("harness.build_mesh"):
        mesh = harness.build_mesh(cfg)
    with tracer.span("geometry.classify_boundary"):
        partition = geometry.classify_boundary(mesh, cfg.x0)
    schedule = harness.build_schedule(cfg)
    law1, law2 = harness.build_laws(cfg)
    certify = always_certify or (law1.b > 0 and law2.b > 0)
    law1, law2 = tracer.wrap_law(law1, "law1"), tracer.wrap_law(law2, "law2")
    with tracer.span("discretization.assemble"):
        system = assemble(mesh, partition, cfg.alpha1, cfg.alpha2, schedule, law1, law2)
    certificate = None
    if certify:
        with tracer.span("geometry.geometric_constants"):
            gc = geometry.geometric_constants(mesh, partition)
        with tracer.span("geometry.embedding_constants"):
            emb = geometry.embedding_constants(mesh, partition)
        with tracer.span("admissibility.build_report"):
            certificate = build_report(mesh.dimension, emb["M"], emb["N"], gc["R"],
                                       gc["tau0"], system.schedule, system.law1,
                                       system.law2, cfg.alpha1, cfg.alpha2, partition)
    return mesh, system, certificate


def _traced_check(tracer, cfg, stream):
    """harness.run_check, call by call."""
    _, _, report = _traced_setup(tracer, cfg, always_certify=True)
    stream.write(report.as_text() + "\n")
    outdir = Path(cfg.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / f"{cfg.prefix}_check.csv").write_text(report.as_csv())
    return harness.EXIT_OK if report.admissible else harness.EXIT_INADMISSIBLE, None


def _traced_simulate(tracer, cfg, stream):
    """harness.run_simulate, call by call (cfg.plot is never set here)."""
    mesh, system, certificate = _traced_setup(tracer, cfg, always_certify=False)
    fields = [make_field(getattr(cfg, name), mesh, getattr(cfg, f"{name}_amplitude"))
              for name in ("u0", "v0", "u1", "v1")]
    with tracer.span("discretization.project_initial_data"):
        state0, compat = project_initial_data(system, *fields)
    admissible = certificate is not None and certificate.admissible
    recorder = diagnostics.TraceRecorder(
        system, certificate=certificate if admissible else None,
        metadata={"config_hash": cfg.hash, "compat_norm": compat["norm"]})
    control = timestepper.StepControl(dt=cfg.dt)
    outdir = Path(cfg.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        with tracer.span("timestepper.integrate"):
            final = timestepper.integrate(system, state0, cfg.T, control,
                                          observers=(TimedObserver(recorder, tracer, RECORDER),))
    except StepFailureError as exc:
        stream.write(f"step failure at t={exc.t:.17g}\n")
        return harness.EXIT_STEP_FAILURE, system
    with tracer.span("diagnostics.TraceRecorder.trace"):
        trace = recorder.trace()
    with tracer.span("diagnostics.EnergyTrace.write_csv"):
        trace.write_csv(outdir / f"{cfg.prefix}_trace.csv")
    with tracer.span("timestepper.save_checkpoint"):
        timestepper.save_checkpoint(outdir / f"{cfg.prefix}_final.ckpt", final,
                                    config_hash=cfg.hash)
    violations = 0
    env = trace.envelope()
    if np.all(np.isfinite(env)):
        violations += int(np.sum(trace.E > env * (1.0 + 1e-9)))
    for sl in trace.slacks().values():
        if np.all(np.isfinite(sl)):
            violations += int(np.sum(sl < -1e-12))
    lines = [f"config {cfg.hash}", f"samples {len(trace)}", f"E0 {trace.E0:.17g}",
             f"E_final {trace.E[-1]:.17g}", f"compat_residual {compat['norm']:.17g}",
             f"bound_violations {violations}"]
    if admissible:
        lines.append(f"eta {certificate.eta:.17g}")
    try:
        with tracer.span("diagnostics.fit_decay_rate"):
            fit = diagnostics.fit_decay_rate(trace)
        lines += [f"fitted_rate {fit.rate:.17g}", f"fit_r_squared {fit.r_squared:.17g}"]
    except FitUndefinedError:
        lines.append("fitted_rate undefined")
    summary = "\n".join(lines) + "\n"
    stream.write(summary)
    (outdir / f"{cfg.prefix}_summary.txt").write_text(summary)
    return harness.EXIT_OK, system


def _layer_metrics(tracer):
    """Per-layer figures of one traced run; every *_s figure is a self time."""
    names, parents, durations, self_times = tracer.arrays()
    index = {name: i for i, name in reversed(list(enumerate(names)))}  # first of each name

    def self_of(*spans):
        return float(sum(self_times[index[s]] for s in spans if s in index))

    recorder = names == RECORDER
    samples = int(recorder.sum())
    steps = max(samples - 1, 0)
    is_law = np.char.startswith(names, "feedback.")
    in_solver = parents == index.get("timestepper.integrate", -2)

    def solver_calls(name):
        return int(np.sum((names == name) & in_solver))

    newton = solver_calls("feedback.law1.slope")
    residuals = solver_calls("feedback.law1.p")
    per_step = (lambda n: n / steps) if steps else (lambda n: 0.0)
    starts = np.array(tracer.starts)[recorder]
    ends = np.array(tracer.ends)[recorder]
    recorder_s = float(self_times[recorder].sum())
    integrate_self = self_of("timestepper.integrate")
    root = index["run"]
    return {
        "geometry.mesh_s": self_of("harness.build_mesh", "geometry.classify_boundary"),
        "geometry.constants_s": self_of("geometry.geometric_constants"),
        "geometry.embedding_s": self_of("geometry.embedding_constants"),
        "admissibility.report_s": self_of("admissibility.build_report"),
        "discretization.assemble_s": self_of("discretization.assemble"),
        "discretization.project_s": self_of("discretization.project_initial_data"),
        "timestepper.integrate_self_s": integrate_self,
        "timestepper.steps": steps,
        "timestepper.newton_per_step": per_step(newton),
        "timestepper.residuals_per_step": per_step(residuals),
        "timestepper.halvings_per_step": per_step(residuals - steps - newton),
        "timestepper.checkpoint_s": self_of("timestepper.save_checkpoint"),
        "feedback.law_s": float(self_times[is_law].sum()),
        "feedback.calls": int(is_law.sum()),
        "diagnostics.recorder_us_per_sample": 1e6 * recorder_s / samples if samples else 0.0,
        "diagnostics.recorder_share": recorder_s / integrate_self if integrate_self else 0.0,
        "diagnostics.trace_build_s": self_of("diagnostics.TraceRecorder.trace"),
        "diagnostics.write_csv_s": self_of("diagnostics.EnergyTrace.write_csv"),
        "diagnostics.fit_s": self_of("diagnostics.fit_decay_rate"),
        "trace.wall_s": float(durations[root]),
        "trace.unaccounted_s": float(self_times[root]),
        "_step_ms": (1e3 * (starts[1:] - ends[:-1])).tolist(),
    }


def run_traced(command, text, run_id):
    tracer = Tracer(run_id)
    stream = io.StringIO()
    start = perf_counter()
    with tracer.span("run"):
        cfg = harness.parse_config(text=text)
        body = _traced_check if command == "check" else _traced_simulate
        code, system = body(tracer, cfg, stream)
    end = perf_counter()
    result = {"exit_code": code, "wall_s": end - start, "peak_rss_mb": _peak_rss_mb(),
              "output": stream.getvalue(), "layers": _layer_metrics(tracer)}
    if command == "simulate":
        result["summary"] = _parse_summary(stream.getvalue())
    if system is not None:
        result["problem"] = _problem_size(system)
    result.update(_artifacts(cfg, command))
    _, result["layers"]["timestepper.checkpoint_bytes"] = _file_digest(
        Path(cfg.out_dir) / f"{cfg.prefix}_final.ckpt")
    result["layers"]["diagnostics.trace_csv_bytes"] = result.get("trace_csv_bytes", 0)
    tracer.write("spans.json")
    return result


def main(argv):
    mode, command, run_id = argv
    text = Path("config.ini").read_text()
    if mode == "traced":
        result = run_traced(command, text, run_id)
    else:
        result = run_plain(command, text)
    result["config_hash"] = timestepper.config_hash(text)
    Path("result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
