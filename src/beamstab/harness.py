"""Configuration parsing, run orchestration and the command-line front-end.

Config files are INI-style with a strict schema, defined once by the field
table of RunConfig: unknown sections or keys are rejected so that typos
cannot silently change a run.  The trace CSV and the simulate summary carry
the config hash.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import _fem, diagnostics, feedback, geometry, timestepper
from .admissibility import (build_report, constant_schedule, decaying_schedule)
from .discretization import assemble, project_initial_data
from .errors import (ConfigError, FitUndefinedError, InadmissiblePartitionError,
                     InvalidArgumentError, NumericalFailureError, StepFailureError)
from .fields import PRESETS, make_field
from .timestepper import StepControl, integrate

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INADMISSIBLE = 2
EXIT_STEP_FAILURE = 3
EXIT_USAGE = 64
EXIT_SOFTWARE = 70  # sysexits EX_SOFTWARE: an eigen-solve did not converge
_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def _floats(text):
    return tuple(float(v) for v in text.split())


def _law_params(text):
    params = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(f"law parameter '{chunk}' is not key=value")
        k, _, v = chunk.partition("=")
        value = float(v)
        if not math.isfinite(value):
            raise ValueError(f"law parameter '{chunk}' is not finite")
        if k.strip() in params:
            raise ValueError(f"law parameter '{k.strip()}' is given twice")
        params[k.strip()] = value
    return params


def _boolean(text):
    """configparser's boolean words (1/yes/true/on, 0/no/false/off)."""
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ValueError(f"{text!r} is not one of {', '.join(states)}")
    return states[text.lower()]


def _one_of(*choices):
    return (lambda value: value in choices), f"must be one of {', '.join(choices)}"


_FINITE = (math.isfinite, "must be finite")
_POSITIVE = (lambda x: math.isfinite(x) and x > 0, "must be finite and positive")
_NONNEGATIVE = (lambda x: math.isfinite(x) and x >= 0,
                "must be finite and >= 0 (nonincreasing coefficient)")
_ALL_POSITIVE = (lambda xs: all(_POSITIVE[0](x) for x in xs),
                 "must list finite and positive values")
_LAW, _PRESET = _one_of(*feedback.CATALOG), _one_of(*PRESETS)
# every sweep point is certified, and the certificate needs b > 0
_SWEEP_LAWS = (lambda names: all(name in feedback.CATALOG and feedback.CATALOG[name]().b > 0
                                 for name in names),
               "must list only laws whose default b > 0: "
               + ", ".join(name for name, law in feedback.CATALOG.items() if law().b > 0))


def _at_least(k):
    return (lambda n: n >= k), f"must be at least {k}"


def _entry(section, key, parse=str, rule=None, when="", **default):
    """A RunConfig field read from `key` in `[section]`.

    parse casts the text; rule, a (predicate, description) pair, is the
    condition the value must meet; when, "selector=kind" with selector a
    key of the same section, names the only kind that reads the key;
    default is the dataclass default or default_factory.
    """
    return field(**default, metadata={"section": section, "key": key,
                                      "parse": parse, "rule": rule, "when": when})


@dataclass
class RunConfig:
    """The settings of one run.

    Each config key is one field entry below: section, key, parser, default,
    value rule and, for a key of one mesh or mu kind, that kind.
    parse_config derives the accepted keys, the casts, the defaults and the
    checks from these entries, and apply_overrides checks --dt and --T by
    the same rules.
    """

    mesh_kind: str = _entry("mesh", "kind", rule=_one_of("interval", "rect"),
                            default="interval")
    length: float = _entry("mesh", "length", float, _POSITIVE, when="kind=interval",
                           default=1.0)
    nodes: int = _entry("mesh", "nodes", int, _at_least(3), when="kind=interval", default=201)
    lx: float = _entry("mesh", "lx", float, _POSITIVE, when="kind=rect", default=1.0)
    ly: float = _entry("mesh", "ly", float, _POSITIVE, when="kind=rect", default=1.0)
    nx: int = _entry("mesh", "nx", int, _at_least(2), when="kind=rect", default=16)
    ny: int = _entry("mesh", "ny", int, _at_least(2), when="kind=rect", default=16)
    # parse_config defaults x0 to the origin of the mesh's dimension
    x0: np.ndarray = _entry("mesh", "x0", lambda text: np.array(_floats(text)),
                            default_factory=lambda: np.zeros(1))
    alpha1: float = _entry("problem", "alpha1", float, _POSITIVE, default=0.1)
    alpha2: float = _entry("problem", "alpha2", float, _POSITIVE, default=0.1)
    mu_kind: str = _entry("problem", "mu", rule=_one_of("constant", "decaying"),
                          default="constant")
    mu_c: float = _entry("problem", "mu_c", float, _POSITIVE, when="mu=constant", default=1.0)
    mu_c0: float = _entry("problem", "mu_c0", float, _POSITIVE, when="mu=decaying", default=1.0)
    mu_lambda: float = _entry("problem", "mu_lambda", float, _NONNEGATIVE, when="mu=decaying",
                              default=0.0)
    law1_name: str = _entry("feedback", "law1", rule=_LAW, default="identity")
    law1_params: dict = _entry("feedback", "law1_params", _law_params, default_factory=dict)
    law2_name: str = _entry("feedback", "law2", rule=_LAW, default="identity")
    law2_params: dict = _entry("feedback", "law2_params", _law_params, default_factory=dict)
    u0: str = _entry("initial", "u0", rule=_PRESET, default="sine")
    u0_amplitude: float = _entry("initial", "u0_amplitude", float, _FINITE, default=1.0)
    v0: str = _entry("initial", "v0", rule=_PRESET, default="zero")
    v0_amplitude: float = _entry("initial", "v0_amplitude", float, _FINITE, default=0.0)
    u1: str = _entry("initial", "u1", rule=_PRESET, default="zero")
    u1_amplitude: float = _entry("initial", "u1_amplitude", float, _FINITE, default=0.0)
    v1: str = _entry("initial", "v1", rule=_PRESET, default="zero")
    v1_amplitude: float = _entry("initial", "v1_amplitude", float, _FINITE, default=0.0)
    dt: float = _entry("time", "dt", float, _POSITIVE, default=1e-3)
    T: float = _entry("time", "T", float, _POSITIVE, default=1.0)
    out_dir: str = _entry("output", "dir", default="out")
    prefix: str = _entry("output", "prefix", default="run")
    plot: bool = _entry("output", "plot", _boolean, default=False)
    sweep_alphas: tuple = _entry("sweep", "alpha", _floats, _ALL_POSITIVE, default=())
    sweep_laws: tuple = _entry("sweep", "laws", lambda text: tuple(text.split()),
                               _SWEEP_LAWS, default=())
    hash: str = ""


_ENTRIES = {f.name: f for f in fields(RunConfig) if f.metadata}
# configparser lower-cases the keys it reads, so the lookup is lower-cased too
_CONFIG_KEYS = {(f.metadata["section"], f.metadata["key"].lower()): f
                for f in _ENTRIES.values()}
_SECTIONS = {section for section, _ in _CONFIG_KEYS}


def _assign(cfg, name, value):
    """Set a table field of cfg after checking the value against its rule."""
    meta = _ENTRIES[name].metadata
    if meta["rule"] is not None:
        holds, description = meta["rule"]
        if not holds(value):
            raise ConfigError(f"{meta['section']}.{meta['key']} {description}, "
                              f"got {value!r}")
    setattr(cfg, name, value)


def parse_config(path=None, text=None):
    """Read a config file (or literal text) into a validated RunConfig."""
    if text is None:
        if path is None:
            raise ConfigError("no config given")
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    if parser.defaults():  # configparser would copy them into every section
        raise ConfigError(f"keys under [DEFAULT] are not read: {', '.join(parser.defaults())}")
    cfg = RunConfig(hash=timestepper.config_hash(text))
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            entry = _CONFIG_KEYS.get((section, key))
            if entry is None:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            try:
                value = entry.metadata["parse"](parser.get(section, key))
            except (ValueError, configparser.Error) as exc:
                raise ConfigError(f"bad value for {section}.{key}: {exc}") from exc
            _assign(cfg, entry.name, value)
    # a key of the other mesh or mu kind would be dropped unread
    for (section, key), entry in _CONFIG_KEYS.items():
        selector, _, kind = entry.metadata["when"].partition("=")
        if selector and parser.has_option(section, key):
            got = getattr(cfg, _CONFIG_KEYS[(section, selector)].name)
            if got != kind:
                raise ConfigError(f"{section}.{entry.metadata['key']} is read only when "
                                  f"{selector} = {kind}, got {got}")

    dim = 1 if cfg.mesh_kind == "interval" else 2
    if not parser.has_option("mesh", "x0"):
        cfg.x0 = np.zeros(dim)
    if len(cfg.x0) != dim:
        raise ConfigError(f"x0 needs {dim} component(s), got {len(cfg.x0)}")
    return cfg


def apply_overrides(cfg, dt=None, T=None, refine=0, out=None, plot=None):
    if dt is not None:
        _assign(cfg, "dt", dt)
    if T is not None:
        _assign(cfg, "T", T)
    if refine < 0:
        raise ConfigError(f"refine must be >= 0, got {refine}")
    for _ in range(refine):
        cfg.nodes = 2 * (cfg.nodes - 1) + 1
        cfg.nx *= 2
        cfg.ny *= 2
        cfg.dt /= 2.0
    if out is not None:
        cfg.out_dir = out
    if plot is not None:
        cfg.plot = plot
    return cfg


# ---------------------------------------------------------------------------
# builders

def build_mesh(cfg):
    if cfg.mesh_kind == "interval":
        return geometry.build_interval_mesh(cfg.length, cfg.nodes)
    return geometry.build_rect_mesh(cfg.lx, cfg.ly, cfg.nx, cfg.ny)


def build_schedule(cfg):
    if cfg.mu_kind == "constant":
        return constant_schedule(cfg.mu_c)
    return decaying_schedule(cfg.mu_c0, cfg.mu_lambda, cfg.T)


def build_laws(cfg):
    return (feedback.law_from_spec(cfg.law1_name, cfg.law1_params),
            feedback.law_from_spec(cfg.law2_name, cfg.law2_params))


def build_domain(cfg):
    """Mesh and boundary partition for a config."""
    mesh = build_mesh(cfg)
    return mesh, geometry.classify_boundary(mesh, cfg.x0)


def build_system(cfg, mesh, partition):
    """The semi-discrete system of a config on its mesh and partition."""
    return assemble(mesh, partition, cfg.alpha1, cfg.alpha2, build_schedule(cfg),
                    *build_laws(cfg))


def build_problem(cfg):
    """Mesh, partition and semi-discrete system for a config."""
    mesh, partition = build_domain(cfg)
    return mesh, partition, build_system(cfg, mesh, partition)


def build_constants(mesh, partition):
    """M, N, R and tau0: what the certificate reads of mesh and partition."""
    return {**geometry.geometric_constants(mesh, partition),
            **geometry.embedding_constants(mesh, partition)}


def build_certificate(cfg, partition, constants):
    """The decay-rate certificate of a config on its partition, from the
    build_constants of its mesh and the couplings, schedule and laws of
    cfg; it needs no assembled system."""
    return build_report(partition.mesh.dimension, constants["M"], constants["N"],
                        constants["R"], constants["tau0"], build_schedule(cfg),
                        *build_laws(cfg), cfg.alpha1, cfg.alpha2, partition)


def _initial_fields(cfg, mesh):
    return (make_field(cfg.u0, mesh, cfg.u0_amplitude),
            make_field(cfg.v0, mesh, cfg.v0_amplitude),
            make_field(cfg.u1, mesh, cfg.u1_amplitude),
            make_field(cfg.v1, mesh, cfg.v1_amplitude))


# ---------------------------------------------------------------------------
# subcommands

def run_check(cfg, out=None, stream=None):
    stream = sys.stdout if stream is None else stream
    mesh, partition = build_domain(cfg)
    report = build_certificate(cfg, partition, build_constants(mesh, partition))
    stream.write(report.as_text() + "\n")
    if out is not None:
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / f"{cfg.prefix}_check.csv").write_text(report.as_csv())
    return EXIT_OK if report.admissible else EXIT_INADMISSIBLE


def run_simulate(cfg, stream=None):
    stream = sys.stdout if stream is None else stream
    mesh, partition, system = build_problem(cfg)
    certificate = None
    if system.law1.b > 0 and system.law2.b > 0:
        certificate = build_certificate(cfg, partition, build_constants(mesh, partition))
        if not certificate.admissible:
            log.warning("coupling parameters fail the smallness conditions; "
                        "the run proceeds without a certified envelope")
            certificate = None
    state0, compat = project_initial_data(system, *_initial_fields(cfg, mesh))

    recorder = diagnostics.TraceRecorder(system, certificate=certificate,
                                         metadata={"config_hash": cfg.hash})
    outdir = Path(cfg.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        integrate(system, state0, cfg.T, StepControl(dt=cfg.dt), observers=(recorder,))
    except StepFailureError as exc:
        stream.write(f"{exc}\n")
        return EXIT_STEP_FAILURE

    trace = recorder.trace()
    trace.write_csv(outdir / f"{cfg.prefix}_trace.csv")
    if cfg.plot:
        trace.write_svg(outdir / f"{cfg.prefix}_energy.svg")

    lines = [f"config {cfg.hash}",
             f"samples {len(trace)}",
             f"E0 {trace.E0:.17g}",
             f"E_final {trace.E[-1]:.17g}",
             f"compat_residual {compat['norm']:.17g}",
             f"bound_violations {trace.bound_violations()}"]
    if certificate is not None:
        lines.append(f"eta {certificate.eta:.17g}")
    try:
        fit = diagnostics.fit_decay_rate(trace)
        lines.append(f"fitted_rate {fit.rate:.17g}")
        lines.append(f"fit_r_squared {fit.r_squared:.17g}")
    except FitUndefinedError:
        lines.append("fitted_rate undefined")
    summary = "\n".join(lines) + "\n"
    stream.write(summary)
    (outdir / f"{cfg.prefix}_summary.txt").write_text(summary)
    return EXIT_OK


def _verify_assembly(cfg):
    mesh = build_mesh(cfg)
    mats = _fem.domain_matrices(mesh)
    K, M = mats["stiffness"], mats["mass"]

    def max_abs(A):
        return float(abs(A).max())

    checks = []
    checks.append(("stiffness-symmetry", max_abs(K - K.T), 1e-12))
    checks.append(("mass-symmetry", max_abs(M - M.T), 1e-12))
    volume = float(np.prod(mesh.nodes.max(axis=0) - mesh.nodes.min(axis=0)))
    checks.append(("mass-total", abs(float(M.sum()) - volume), 1e-12 * max(1.0, volume)))
    checks.append(("stiffness-nullspace", max_abs(K.sum(axis=1)), 1e-10))
    # int_Gamma (sum_i nu_i) phi_j phi_k over every side, nu = sign e_d
    gauss = mats["coupling"] + mats["coupling"].T
    for d, end, sign in mesh.sides:
        T, w, _ = _fem.side_rule(mesh.axes, d, end, (slice(None),) * mesh.dimension)
        gauss -= _fem.trace_form(T, sign * w)
    checks.append(("coupling-gauss-identity", max_abs(gauss), 1e-12))
    return [(f"assembly/{name}", err <= tol, f"defect {err:.3e} (tol {tol:.1e})")
            for name, err, tol in checks]


def _verify_rellich(cfg):
    from .fields import quadratic_field
    results = []
    for kind in ("interval", "rect"):
        mismatches = []
        for level in (0, 1):
            sub = RunConfig(mesh_kind=kind, length=1.0, nodes=20 * (2 ** level) + 1,
                            nx=8 * (2 ** level), ny=8 * (2 ** level),
                            x0=np.zeros(1 if kind == "interval" else 2))
            mesh = build_mesh(sub)
            fld = quadratic_field(mesh)
            out = diagnostics.rellich_check(mesh, fld, sub.x0)
            mismatches.append(abs(out["mismatch_standard"]))
        order = math.log(mismatches[0] / mismatches[1]) / math.log(2.0) \
            if mismatches[1] > 0 else float("inf")
        ok = mismatches[1] == 0 or abs(order - 2.0) <= 0.3
        results.append((f"rellich/{kind}", ok,
                        f"mismatches {mismatches[0]:.3e} -> {mismatches[1]:.3e}"))
    return results


def _verify_strauss(cfg):
    law = feedback.saturating_law(1.0, 2.0)
    s = np.linspace(-3.0, 3.0, 2001)
    errors = []
    slope_ok = True
    for level in (1, 2, 4, 8):
        approx = feedback.strauss_approximate(law, level)
        errors.append(float(np.max(np.abs(approx(s) - law(s)))))
        slope_ok &= bool(np.all(approx.slopes >= law.b - feedback.SLOPE_TOL))
    decreasing = all(a > b for a, b in zip(errors, errors[1:]))
    return [("strauss/sup-error-decreasing", decreasing,
             "errors " + " ".join(f"{e:.3e}" for e in errors)),
            ("strauss/slopes-monotone", slope_ok, f"b = {law.b:g}")]


def _verify_convergence(cfg):
    # compatible initial data keep the trajectory smooth from t = 0, which is
    # what makes the asymptotic second-order regime visible at these dt's
    base = RunConfig(mesh_kind="interval", nodes=21, T=0.5,
                     u0="bump", u0_amplitude=16.0)
    mesh, partition, system = build_problem(base)
    state0, _ = project_initial_data(system, *_initial_fields(base, mesh))
    dts = (0.0125, 0.00625, 0.003125)
    finals = {dt: integrate(system, state0, base.T, StepControl(dt=dt))
              for dt in dts + (dts[-1] / 32,)}
    ref = finals[dts[-1] / 32]
    errs = [sum(float(np.linalg.norm(getattr(finals[dt], nm) - getattr(ref, nm)))
                for nm in ("u", "v", "du", "dv")) for dt in dts]
    orders = diagnostics.observed_orders(errs)
    ok = bool(np.all(np.abs(orders - 2.0) <= 0.25))
    return [("convergence/timestepper-order", ok,
             "orders " + " ".join(f"{o:.2f}" for o in orders))]


_VERIFY = {"assembly": _verify_assembly, "rellich": _verify_rellich,
           "strauss": _verify_strauss, "convergence": _verify_convergence}
VERIFY_SUITES = tuple(_VERIFY)


def run_verify(cfg, suites=None, stream=None):
    stream = sys.stdout if stream is None else stream
    suites = tuple(suites) if suites is not None else VERIFY_SUITES
    if not suites:
        raise ConfigError("empty verification suite selection")
    unknown = set(suites) - set(VERIFY_SUITES)
    if unknown:
        raise ConfigError(f"unknown verification suites: {sorted(unknown)}")
    all_ok = True
    for suite in suites:
        for name, ok, detail in _VERIFY[suite](cfg):
            stream.write(f"{'PASS' if ok else 'FAIL'} {name}: {detail}\n")
            all_ok &= ok
    return EXIT_OK if all_ok else 1


def run_sweep(cfg, stream=None):
    stream = sys.stdout if stream is None else stream
    if not cfg.sweep_alphas or not cfg.sweep_laws:
        raise ConfigError("sweep requires [sweep] alpha and laws lists")
    given = [key for key in ("law1_params", "law2_params") if getattr(cfg, key)]
    if given:
        raise ConfigError(f"sweep sets every law from [sweep] laws with default "
                          f"parameters; remove {', '.join(given)} from [feedback]")
    # the points differ in their couplings and laws only
    mesh, partition = build_domain(cfg)
    constants = build_constants(mesh, partition)
    rows = []
    for alpha in cfg.sweep_alphas:
        for law_name in cfg.sweep_laws:
            # copy, not re-parse: command-line overrides must reach each point
            point = replace(cfg)
            point.alpha1 = point.alpha2 = alpha
            point.law1_name = point.law2_name = law_name
            cert = build_certificate(point, partition, constants)
            eta = rate = ""
            status = "inadmissible"
            if cert.admissible:
                eta = f"{cert.eta:.17g}"
                system = build_system(point, mesh, partition)
                state0, _ = project_initial_data(system, *_initial_fields(point, mesh))
                recorder = diagnostics.TraceRecorder(system, certificate=cert)
                try:
                    integrate(system, state0, point.T, StepControl(dt=point.dt),
                              observers=(recorder,))
                    rate = f"{diagnostics.fit_decay_rate(recorder.trace()).rate:.17g}"
                    status = "ok"
                except StepFailureError as exc:  # the point keeps its row, with no rate
                    status = f"step_failure t={exc.t:.17g}"
                except FitUndefinedError:
                    status = "fit_undefined"
            rows.append((alpha, law_name, str(cert.admissible).lower(), eta, rate, status))
    rows.sort(key=lambda row: row[:2])  # by the value of alpha, not its text
    outdir = Path(cfg.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    body = "alpha1,alpha2,law1,law2,admissible,eta,fitted_rate,status\n"
    body += "".join(f"{alpha:.17g},{alpha:.17g},{law},{law},{','.join(rest)}\n"
                    for alpha, law, *rest in rows)
    (outdir / f"{cfg.prefix}_sweep.csv").write_text(body)
    stream.write(body)
    return EXIT_OK


def run_fit(trace_path, window=None, stream=None):
    stream = sys.stdout if stream is None else stream
    trace = diagnostics.read_trace_csv(trace_path)
    fit = diagnostics.fit_decay_rate(trace, window=window)
    stream.write(f"rate {fit.rate:.17g}\n"
                 f"intercept {fit.intercept:.17g}\n"
                 f"r_squared {fit.r_squared:.17g}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# CLI

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="beamstab",
        description="Simulator and verification harness for a boundary-damped "
                    "coupled wave system.")
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "out": dict(help="output directory override"),
        "dt": dict(type=float, help="time step override"),
        "T": dict(type=float, help="final time override"),
        "refine": dict(type=int, default=0, metavar="K", help="halve h and dt K times"),
        "plot": dict(action="store_true", help="emit an SVG energy plot"),
    }

    def subcommand(name, summary, *names):  # only the options the subcommand reads
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="INI config file")
        for option in names:
            p.add_argument(f"--{option}", **options[option])
        p.set_defaults(**dict.fromkeys(options.keys() - names))
        return p

    subcommand("check", "evaluate the decay-rate certificate", "out", "T", "refine")
    subcommand("simulate", "run and record a full trace", *options)
    verify = subcommand("verify", "run invariant verification suites", "refine")
    verify.add_argument("--suite", action="append", dest="suites",
                        metavar="NAME", help=f"one of {', '.join(VERIFY_SUITES)}; "
                        "repeatable (default: all)")
    subcommand("sweep", "grid over coupling strengths and laws", "out", "dt", "T", "refine")
    fit = sub.add_parser("fit", help="fit a decay rate to an existing trace CSV")
    fit.add_argument("trace", help="trace CSV produced by simulate")
    fit.add_argument("--window", type=float, nargs=2, metavar=("TA", "TB"))
    return parser


def main(argv=None):
    level = os.environ.get("BEAMSTAB_LOG", "WARNING")
    if level.upper() not in _LOG_LEVELS:  # basicConfig is a no-op once the root has handlers
        print(f"error: BEAMSTAB_LOG must be one of {', '.join(_LOG_LEVELS)}, got {level!r}",
              file=sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(level=level.upper(), format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if args.command == "fit":
            window = tuple(args.window) if args.window else None
            return run_fit(args.trace, window=window)
        cfg = parse_config(args.config)
        apply_overrides(cfg, dt=args.dt, T=args.T, refine=args.refine,
                        out=args.out, plot=args.plot or None)
        if args.command == "check":
            return run_check(cfg, out=cfg.out_dir)
        if args.command == "simulate":
            return run_simulate(cfg)
        if args.command == "verify":
            return run_verify(cfg, suites=args.suites)
        if args.command == "sweep":
            return run_sweep(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InvalidArgumentError, InadmissiblePartitionError, FitUndefinedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StepFailureError as exc:
        print(exc, file=sys.stderr)
        return EXIT_STEP_FAILURE
    except NumericalFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOFTWARE
    return EXIT_USAGE


def cli():
    sys.exit(main())
