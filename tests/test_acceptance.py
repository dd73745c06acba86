"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line for its criterion, then asserts.
The reference decay run (and its half-step twin) is shared module-wide
because it is by far the most expensive artifact.
"""

import io
import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from beamstab import _fem, admissibility as adm, diagnostics as diag
from beamstab import feedback, geometry, harness
from beamstab.discretization import SimState, interpolate, project_initial_data
from beamstab.fields import bump_field, quadratic_field, sine_field
from beamstab.timestepper import StepControl, integrate, load_checkpoint, save_checkpoint

from conftest import make_conservative_system

CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "reference_1d.ini"


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def reference_cfg():
    return harness.parse_config(CONFIG_PATH)


def _decay_run(cfg, dt):
    mesh, partition, system = harness.build_problem(cfg)
    cert = harness.build_certificate(cfg, partition, harness.build_constants(mesh, partition))
    assert cert.admissible
    state0, _ = project_initial_data(system, *harness._initial_fields(cfg, mesh))
    recorder = diag.TraceRecorder(system, certificate=cert)
    start = time.perf_counter()
    integrate(system, state0, cfg.T, StepControl(dt=dt), observers=(recorder,))
    runtime = time.perf_counter() - start
    return {"trace": recorder.trace(), "cert": cert, "runtime": runtime, "dt": dt}


@pytest.fixture(scope="module")
def reference_run(reference_cfg):
    return _decay_run(reference_cfg, dt=1e-3)


@pytest.fixture(scope="module")
def half_step_run(reference_cfg):
    return _decay_run(reference_cfg, dt=5e-4)


class TestCriterion1DecayBound:
    def test_envelope_rate_and_runtime(self, reference_run):
        trace, cert = reference_run["trace"], reference_run["cert"]
        env = trace.envelope()
        under_envelope = bool(np.all(trace.E <= env * (1.0 + 1e-9)))
        fit = diag.fit_decay_rate(trace)
        rate_ok = fit.rate >= (2.0 / 3.0) * cert.eta
        time_ok = reference_run["runtime"] < 60.0
        ok = _report(1, under_envelope and rate_ok and time_ok,
                     f"max E/envelope {np.max(trace.E / env):.3f}, fitted rate "
                     f"{fit.rate:.4f} vs (2/3)eta {(2 / 3) * cert.eta:.4f}, "
                     f"runtime {reference_run['runtime']:.1f}s")
        assert ok


class TestCriterion2LyapunovMonotonicity:
    def test_discrete_lyapunov_decay(self, reference_run, half_step_run):
        eps2 = reference_run["cert"].eps2_max
        outcomes = []
        for run in (reference_run, half_step_run):
            trace = run["trace"]
            d = diag.lyapunov_decay_defects(trace, eps2)
            E0 = trace.E[0]
            # strict pointwise decay wherever the energy is resolved; below
            # ~1e-8 E0 the trace is residual noise outside the estimate's
            # reach, so only a dt-independent absolute floor is required
            resolved = trace.E[:-1] >= 1e-6 * E0
            outcomes.append((bool(np.all(d[resolved] <= 0.0)),
                             float(np.max(d)) <= 1e-8 * E0,
                             float(np.max(d))))
        ok = _report(2, all(s and f for s, f, _ in outcomes),
                     f"max defects {outcomes[0][2]:.2e} (dt=1e-3), "
                     f"{outcomes[1][2]:.2e} (dt=5e-4); strict decay while "
                     f"E >= 1e-6 E0 at both step sizes")
        assert ok


class TestCriterion3SandwichBounds:
    def test_all_slacks_nonnegative(self, reference_run):
        slacks = reference_run["trace"].slacks()
        minima = {k: float(np.min(v)) for k, v in slacks.items()}
        ok = _report(3, all(v >= -1e-12 for v in minima.values()),
                     "min slacks " + " ".join(f"{k}={v:.2e}" for k, v in minima.items()))
        assert ok


class TestCriterion4DissipationIdentity:
    def test_conservative_residual(self):
        system = make_conservative_system(nodes=51)
        u = interpolate(system, sine_field(system.mesh))
        state = SimState(0.0, u, np.zeros_like(u), np.zeros_like(u), np.zeros_like(u))
        rec = diag.TraceRecorder(system)
        integrate(system, state, 1.0, StepControl(dt=1e-3), observers=(rec,))
        worst = float(np.max(np.abs(diag.energy_balance_residuals(rec.trace()))))
        ok = _report("4a", worst <= 1e-10, f"conservative residual {worst:.3e}")
        assert ok

    def test_dissipative_refinement_order(self):
        from conftest import make_system
        maxima = []
        for level in range(3):
            nodes = 25 * 2 ** level + 1
            dt = 4e-3 / 2 ** level
            system = make_system(nodes=nodes)
            u = interpolate(system, bump_field(system.mesh, 16.0))
            state = SimState(0.0, u, 0.5 * u, np.zeros_like(u), np.zeros_like(u))
            rec = diag.TraceRecorder(system)
            integrate(system, state, 0.5, StepControl(dt=dt), observers=(rec,))
            maxima.append(float(np.max(np.abs(
                diag.energy_balance_residuals(rec.trace())))))
        orders = diag.observed_orders(maxima)
        ok = _report("4b", bool(np.all(orders >= 1.0)),
                     "residual orders " + " ".join(f"{o:.2f}" for o in orders))
        assert ok


class TestCriterion5RellichIdentity:
    def test_quadratic_fields_second_order(self):
        mismatches_1d = []
        for nodes in (11, 21, 41):
            mesh = geometry.build_interval_mesh(1.0, nodes)
            out = diag.rellich_check(mesh, quadratic_field(mesh), [0.0])
            mismatches_1d.append(abs(out["mismatch_standard"]))
        mismatches_2d = []
        for n in (8, 16, 32):
            mesh = geometry.build_rect_mesh(1.0, 1.0, n, n)
            out = diag.rellich_check(mesh, quadratic_field(mesh), [0.0, 0.0])
            mismatches_2d.append(abs(out["mismatch_standard"]))
        orders = np.concatenate([diag.observed_orders(mismatches_1d),
                                 diag.observed_orders(mismatches_2d)])
        ok = _report(5, bool(np.all(np.abs(orders - 2.0) <= 0.3)),
                     "mismatch orders " + " ".join(f"{o:.2f}" for o in orders))
        assert ok


class TestCriterion6StraussApproximation:
    def test_saturating_and_identity(self):
        law = feedback.saturating_law(1.0, 2.0)
        s = np.linspace(-3.0, 3.0, 60_001)
        p = np.asarray(law(s))
        errors, slopes_ok = [], True
        for level in (1, 2, 4, 8, 16):
            approx = feedback.strauss_approximate(law, level)
            errors.append(float(np.max(np.abs(approx(s) - p))))
            slopes_ok &= bool(np.all(approx.slopes >= law.b - 1e-12))
        decreasing = all(a > b for a, b in zip(errors, errors[1:]))
        ident = feedback.strauss_approximate(feedback.identity_law(), 4)
        exact = float(np.max(np.abs(ident(s) - s))) == 0.0
        ok = _report(6, decreasing and slopes_ok and exact,
                     "sup errors " + " ".join(f"{e:.2e}" for e in errors))
        assert ok


class TestCriterion7EmbeddingConstants:
    def test_thousand_node_constants(self):
        mesh = geometry.build_interval_mesh(1.0, 1000)
        part = geometry.classify_boundary(mesh, np.array([0.0]))
        emb = geometry.embedding_constants(mesh, part)

        mats = _fem.domain_matrices(mesh)
        fixed = part.gamma0_nodes()
        free = np.setdiff1d(np.arange(len(mesh.nodes)), fixed)
        K = mats["stiffness"][np.ix_(free, free)].toarray()
        Mm = mats["mass"][np.ix_(free, free)].toarray()
        B = np.zeros_like(K)
        B[-1, -1] = 1.0  # Gamma1 is the end point x = 1: its trace form is evaluation there
        lam = scipy.linalg.eigh(K, Mm, eigvals_only=True)[0]
        mu = scipy.linalg.eigh(B, K, eigvals_only=True)[-1]
        oracle_M, oracle_N = 1.0 / math.sqrt(lam), math.sqrt(mu)

        cont_ok = (abs(emb["M"] - 2.0 / math.pi) <= 1e-3
                   and abs(emb["N"] - 1.0) <= 1e-3)
        oracle_ok = (abs(emb["M"] - oracle_M) <= 1e-8
                     and abs(emb["N"] - oracle_N) <= 1e-8)
        ok = _report(7, cont_ok and oracle_ok,
                     f"M={emb['M']:.6f} (2/pi={2 / math.pi:.6f}), N={emb['N']:.8f}, "
                     f"oracle gaps {abs(emb['M'] - oracle_M):.1e}/"
                     f"{abs(emb['N'] - oracle_N):.1e}")
        assert ok


class TestCriterion8TimestepperOrder:
    def test_self_convergence(self):
        system = make_conservative_system(nodes=21)
        u = interpolate(system, sine_field(system.mesh))
        state0 = SimState(0.0, u, 0.5 * u, np.zeros_like(u), np.zeros_like(u))
        dts = (0.1, 0.05, 0.025, 0.0125)
        finals = {dt: integrate(system, state0, 1.0, StepControl(dt=dt))
                  for dt in dts + (dts[-1] / 32,)}
        ref = finals[dts[-1] / 32]
        errs = [sum(float(np.linalg.norm(getattr(finals[dt], nm) - getattr(ref, nm)))
                    for nm in ("u", "du")) for dt in dts]
        orders = diag.observed_orders(errs)
        ok = _report("8a", bool(np.all(np.abs(orders - 2.0) <= 0.2)),
                     "self-convergence orders " + " ".join(f"{o:.2f}" for o in orders))
        assert ok

    def test_conservative_drift(self):
        system = make_conservative_system(nodes=21)
        u = interpolate(system, sine_field(system.mesh))
        state = SimState(0.0, u, np.zeros_like(u), np.zeros_like(u), np.zeros_like(u))
        rec = diag.TraceRecorder(system)
        integrate(system, state, 10.0, StepControl(dt=1e-3), observers=(rec,))
        trace = rec.trace()
        drift = float(np.max(np.abs(trace.E - trace.E[0])) / trace.E[0])
        ok = _report("8b", drift <= 1e-10,
                     f"relative energy drift {drift:.3e} over 10^4 steps")
        assert ok


class TestCriterion9HypothesisArithmetic:
    def test_hand_examples_exact(self):
        checks = [
            ("A 1d", adm.compute_A(1, 0.6366, 1.0, 1.0, 1.0), 8.0),
            ("A 2d", adm.compute_A(2, 1.0, 1.0, 1.0, 1.0), 12.0),
            ("P1", adm.compute_P1(1, 0.6366, 1.0, 1.0), 16.0),
            ("P2", adm.compute_P2(1, 1.0, 1.0, 1.0, 1.0, 1.0), 18.0),
            ("S1", adm.compute_S(1, 1.0, 1.0, 1.0, 1.0, 1.0)["S1"], 2.0),
            ("S2", adm.compute_S(1, 1.0, 1.0, 1.0, 1.0, 1.0)["S2"], 3.0),
            ("S1 2d", adm.compute_S(2, 1.0, 1.0, 1.0, 1.0, 1.0)["S1"], 6.0),
            ("S2 2d", adm.compute_S(2, 1.0, 1.0, 1.0, 1.0, 1.0)["S2"], 7.0),
            ("eps1", adm.epsilon_eta(8.0, 2.0, 3.0, 1.0, 1.0, 1.0, 1.0)["eps1_max"],
             1.0 / 32.0),
            ("eps2", adm.epsilon_eta(8.0, 2.0, 3.0, 1.0, 1.0, 1.0, 1.0)["eps2_max"],
             1.0 / 3.0),
            ("eta", adm.epsilon_eta(8.0, 2.0, 3.0, 1.0, 1.0, 1.0, 1.0)["eta"],
             1.0 / 32.0),
        ]
        quad = adm.check_admissibility(0.1, 0.1, 1, 0.6366, 16.0, 18.0, 1.0)
        checks.append(("quad slack", quad["quadratic_slack"], 7.0 / 8.0 - 0.34))
        worst = max(abs(got - want) / abs(want) for _, got, want in checks)
        admissible_flags = (quad["admissible"],
                            not adm.check_admissibility(
                                1.0, 1.0, 1, 0.6366, 16.0, 18.0, 1.0)["admissible"])
        ok = _report(9, worst <= 1e-15 and all(admissible_flags),
                     f"worst relative error {worst:.2e} over {len(checks)} hand values")
        assert ok


class TestCriterion10DeterminismAndRestart:
    def test_byte_identical_traces(self, tmp_path):
        bodies = []
        for run in range(2):
            cfg = harness.parse_config(CONFIG_PATH)
            cfg.T, cfg.dt, cfg.nodes = 0.5, 1e-2, 41
            cfg.out_dir = str(tmp_path / f"run{run}")
            assert harness.run_simulate(cfg, stream=io.StringIO()) == 0
            bodies.append((tmp_path / f"run{run}" / "reference_trace.csv").read_bytes())
        identical = bodies[0] == bodies[1]

        cfg = harness.parse_config(CONFIG_PATH)
        cfg.nodes = 41
        mesh, partition, system = harness.build_problem(cfg)
        state0, _ = project_initial_data(system, *harness._initial_fields(cfg, mesh))
        control = StepControl(dt=1e-2)
        straight = integrate(system, state0, 1.0, control)
        mid = integrate(system, state0, 0.5, control)
        path = tmp_path / "mid.ckpt"
        save_checkpoint(path, mid, config_hash=cfg.hash)
        resumed, stored_hash = load_checkpoint(path)
        final = integrate(system, resumed, 1.0, control)
        gap = max(float(np.max(np.abs(getattr(final, nm) - getattr(straight, nm))))
                  for nm in ("u", "v", "du", "dv"))
        ok = _report(10, identical and stored_hash == cfg.hash and gap <= 1e-12,
                     f"traces byte-identical: {identical}, restart gap {gap:.2e}")
        assert ok
