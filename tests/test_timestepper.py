import importlib
import logging
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from beamstab import _fem, geometry, harness, timestepper
from beamstab.admissibility import constant_schedule, decaying_schedule
from beamstab.diagnostics import TraceRecorder, energy
from beamstab.discretization import SimState, interpolate, project_initial_data
from beamstab.errors import InvalidArgumentError, StepFailureError
from beamstab.fields import sine_field
from beamstab.feedback import (hardening_law, identity_law, saturating_law,
                               strauss_approximate)
from beamstab.timestepper import (StepControl, _MidpointSolver, integrate, load_checkpoint,
                                  save_checkpoint)

from conftest import make_conservative_system, make_system


def _sine_state(system, velocity=0.0):
    u = interpolate(system, sine_field(system.mesh))
    du = velocity * u
    return SimState(0.0, u, 0.5 * u, du, np.zeros_like(u))


def _one_step(system, state, control):
    """One implicit-midpoint step: integrate over a single dt."""
    return integrate(system, state, state.t + control.dt, control)


class TestStepControl:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            StepControl(dt=0.0)
        with pytest.raises(InvalidArgumentError):
            StepControl(dt=0.1, newton_tol=0.0)
        with pytest.raises(InvalidArgumentError):
            StepControl(dt=0.1, newton_max=0)


class TestStep:
    def test_equilibrium_is_fixed(self):
        system = make_system(nodes=7)
        n = system.n_nodes
        state = SimState(3.0, *(np.zeros(n) for _ in range(4)))
        out = _one_step(system, state, StepControl(dt=0.1))
        assert out.t == pytest.approx(3.1)
        for name in ("u", "v", "du", "dv"):
            assert np.all(getattr(out, name) == 0.0)

    def test_single_step_conserves_energy(self):
        # decoupled undamped system on the 3-node mesh: the midpoint rule
        # preserves the quadratic invariant exactly
        system = make_conservative_system(nodes=3)
        state = _sine_state(system)
        before = energy(system, state)
        after = energy(system, _one_step(system, state, StepControl(dt=0.05)))
        assert after == pytest.approx(before, rel=1e-12)

    def test_self_convergence_second_order(self):
        system = make_system(nodes=21)
        state0 = _sine_state(system)
        T = 0.5
        dts = (0.0125, 0.00625, 0.003125)
        finals = {dt: integrate(system, state0, T, StepControl(dt=dt))
                  for dt in dts + (dts[-1] / 32,)}
        ref = finals[dts[-1] / 32]
        errs = [sum(np.linalg.norm(getattr(finals[dt], nm) - getattr(ref, nm))
                    for nm in ("u", "v", "du", "dv")) for dt in dts]
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        for r in ratios:
            assert 3.2 < r < 4.8  # ~4x error reduction per dt halving

    def test_newton_failure_raises(self):
        system = make_system(nodes=7, law1=saturating_law(1.0, 2.0),
                             law2=saturating_law(1.0, 2.0))
        state = _sine_state(system, velocity=1.0)
        control = StepControl(dt=50.0, newton_max=1)
        with pytest.raises(StepFailureError) as err:
            _one_step(system, state, control)
        assert err.value.t == 0.0
        assert err.value.residual > 0


def _damped_newton(solver, state, control, direction):
    """The solver's damped Newton loop (same tolerance scale and line search)
    with the direction supplied by direction(ops, w, s, r).
    Returns (wu, wv, converged)."""
    ops, c, w0 = solver.start(state, control.dt)
    w = w0
    r, s = solver.residual(ops, c, w0, w)
    rnorm = float(np.max(np.abs(r)))
    tol = control.newton_tol * max(1.0, rnorm)
    for _ in range(control.newton_max):
        if rnorm <= tol:
            break
        delta = direction(ops, w, s, r)
        lam = 1.0
        for _ in range(30):
            cw = w - lam * delta
            rc, sc = solver.residual(ops, c, w0, cw)
            cnorm = float(np.max(np.abs(rc)))
            if cnorm < rnorm or cnorm <= tol:
                w, r, s, rnorm = cw, rc, sc, cnorm
                break
            lam *= 0.5
        else:
            break
    nf = len(w) // 2
    return w[:nf], w[nf:], rnorm <= tol


def _full_jacobian_direction(solver):
    """Oracle direction: assemble the Jacobian with the actual trace slopes
    of the iterate w and factor it."""
    sys_ = solver.system
    T = sys_.trace[:, sys_.free]
    wmn = sys_.trace_weights * sys_.partition.gamma1_m_dot_nu
    a1, a2 = sys_.alpha1, sys_.alpha2

    def direction(ops, w, s, r):
        dt, mu_mid = ops.dt, ops.mu
        wu, wv = w[:len(w) // 2], w[len(w) // 2:]
        B1 = T.T @ sp.diags(wmn * sys_.law1.slope(T @ wu)) @ T
        B2 = T.T @ sp.diags(wmn * sys_.law2.slope(T @ wv)) @ T
        J = sp.bmat([[(2.0 / dt) * solver.M + (dt / 2.0) * mu_mid * solver.K + mu_mid * B1,
                      (dt / 2.0) * a1 * solver.C],
                     [(dt / 2.0) * (solver.Sg - a2 * solver.C),
                      (2.0 / dt) * solver.M + (dt / 2.0) * solver.K + B2]], format="csc")
        return splu(J).solve(r)

    return direction


def _full_jacobian_newton(solver, state, control):
    """Oracle step: Newton that factors the actual Jacobian every iteration."""
    return _damped_newton(solver, state, control, _full_jacobian_direction(solver))


def _chord_newton(solver, state, control):
    """The damped loop with the reference-LU direction alone (no correction)."""
    return _damped_newton(solver, state, control, lambda ops, w, s, r: ops.lu.solve(r))


def _termwise_residual(solver, dt, mu_mid, state, wu, wv):
    """Oracle residual: the midpoint residual on the free dofs term by term,
    stacked (u block, v block)."""
    sys_ = solver.system
    a1, a2 = sys_.alpha1, sys_.alpha2
    f = sys_.free
    T = sys_.trace[:, f]
    wmn = sys_.trace_weights * sys_.partition.gamma1_m_dot_nu
    u_mid = state.u[f] + (dt / 2.0) * wu
    v_mid = state.v[f] + (dt / 2.0) * wv
    ru = ((2.0 / dt) * (solver.M @ (wu - state.du[f]))
          + mu_mid * (solver.K @ u_mid) + a1 * (solver.C @ v_mid)
          + mu_mid * (T.T @ (wmn * sys_.law1(T @ wu))))
    rv = ((2.0 / dt) * (solver.M @ (wv - state.dv[f]))
          + solver.K @ v_mid - a2 * (solver.C @ u_mid) + solver.Sg @ u_mid
          + T.T @ (wmn * sys_.law2(T @ wv)))
    return np.concatenate([ru, rv])


_LAWS = {
    "saturating": lambda: (saturating_law(1.0, 2.0), saturating_law(0.5, 4.0)),
    "hardening": lambda: (hardening_law(1.0, 3.0, knee=0.5), hardening_law(0.5, 2.0, knee=0.3)),
    "lipschitz": lambda: (strauss_approximate(saturating_law(1.0, 3.0), 3),
                          strauss_approximate(hardening_law(1.0, 2.0, knee=0.4), 4)),
}


def _rect6(**kwargs):
    """6x6 unit square, multiplier origin outside: Gamma1 has trace points."""
    return make_system(mesh=geometry.build_rect_mesh(1.0, 1.0, 6, 6),
                       x0=np.array([-0.1, -0.1]), **kwargs)


def _random_state(system, seed, amplitude):
    rng = np.random.default_rng(seed)
    t = float(rng.uniform(0.0, 1.0))
    return SimState(t, *(amplitude * rng.standard_normal(system.n_nodes) for _ in range(4)))


class TestNewtonDirection:
    @given(mesh=st.sampled_from(["interval", "rect"]), laws=st.sampled_from(sorted(_LAWS)),
           decaying=st.booleans(), dt=st.sampled_from([0.01, 0.05, 0.2]),
           amplitude=st.floats(min_value=0.1, max_value=5.0),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_full_jacobian_newton(self, mesh, laws, decaying, dt, amplitude, seed):
        law1, law2 = _LAWS[laws]()
        schedule = decaying_schedule(1.0, 0.8, 1.0) if decaying else constant_schedule(1.0)
        build = (lambda **kw: make_system(nodes=9, **kw)) if mesh == "interval" else _rect6
        system = build(law1=law1, law2=law2, schedule=schedule)
        state = _random_state(system, seed, amplitude)
        control = StepControl(dt=dt)
        solver = _MidpointSolver(system)
        wu, wv = solver.solve(state, control)
        ou, ov, converged = _full_jacobian_newton(_MidpointSolver(system), state, control)
        assert converged
        got, want = np.concatenate([wu, wv]), np.concatenate([ou, ov])
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

        # the first direction itself is the Newton direction, not a chord
        ops, c, w0 = solver.start(state, dt)
        r, s = solver.residual(ops, c, w0, w0)
        got, _ = solver._newton_direction(ops, s, r)
        want = _full_jacobian_direction(solver)(ops, w0, s, r)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_steep_law_large_step_converges_where_chord_fails(self):
        # the saturating slope falls from 50 at 0 to 1 at large traces: the
        # reference LU (slope 50) alone stalls, the corrected direction converges
        law = saturating_law(1.0, 50.0)
        system = _rect6(law1=law, law2=law)
        state = _sine_state(system, velocity=100.0)
        control = StepControl(dt=0.5)
        wu, wv = _MidpointSolver(system).solve(state, control)
        ou, ov, converged = _full_jacobian_newton(_MidpointSolver(system), state, control)
        assert converged
        assert np.max(np.abs(np.concatenate([wu - ou, wv - ov]))) <= 1e-11 * np.max(
            np.abs(np.concatenate([ou, ov])))
        *_, chord_converged = _chord_newton(_MidpointSolver(system), state, control)
        assert not chord_converged

    def test_short_gmres_warns_and_still_converges(self, monkeypatch, caplog):
        law = saturating_law(1.0, 4.0)
        system = make_system(nodes=9, law1=law, law2=law)
        state = _random_state(system, 7, 2.0)
        control = StepControl(dt=0.2)
        want = np.concatenate(_MidpointSolver(system).solve(state, control))
        # one GMRES iteration per direction: every solve stops short of rtol
        monkeypatch.setattr(timestepper, "GMRES_RESTART", 1)
        monkeypatch.setattr(timestepper, "GMRES_CYCLES", 1)
        with caplog.at_level(logging.WARNING, logger="beamstab.timestepper"):
            got = np.concatenate(_MidpointSolver(system).solve(state, control))
        assert any(rec.levelno == logging.WARNING and "GMRES" in rec.getMessage()
                   for rec in caplog.records)
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    def test_restarted_gmres_reaches_the_newton_direction(self, monkeypatch, caplog):
        law = saturating_law(1.0, 2.0)
        system = _rect6(law1=law, law2=law, schedule=decaying_schedule(1.0, 0.8, 1.0))
        solver = _MidpointSolver(system)
        solver.start(_random_state(system, 1, 1.0), 0.2)  # the LU is stale below
        ops, c, w0 = solver.start(_random_state(system, 3, 1.0), 0.2)
        assert ops.shift != 0.0
        r, s = solver.residual(ops, c, w0, w0 + 1.0)
        # two iterations per cycle: the direction needs several restarts
        monkeypatch.setattr(timestepper, "GMRES_RESTART", 2)
        monkeypatch.setattr(timestepper, "GMRES_CYCLES", 40)
        with caplog.at_level(logging.WARNING, logger="beamstab.timestepper"):
            got, its = solver._newton_direction(ops, s, r)
        assert its > 3 * 2
        assert not caplog.records
        want = _full_jacobian_direction(solver)(ops, w0 + 1.0, s, r)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_debug_line_per_step(self, caplog):
        system = make_system(nodes=9, law1=saturating_law(1.0, 2.0),
                             law2=saturating_law(1.0, 2.0))
        with caplog.at_level(logging.DEBUG, logger="beamstab.timestepper"):
            integrate(system, _sine_state(system, velocity=1.0), 0.05, StepControl(dt=0.01))
        lines = [rec.getMessage() for rec in caplog.records if rec.levelno == logging.DEBUG]
        assert len(lines) == 5
        assert all("newton" in line and "gmres" in line and "halvings" in line
                   and "residual" in line for line in lines)


class TestStackedResidual:
    @pytest.mark.parametrize("decaying", [False, True])
    @pytest.mark.parametrize("laws", sorted(_LAWS) + ["identity"])
    @pytest.mark.parametrize("mesh", ["interval", "rect"])
    def test_matches_termwise_residual(self, mesh, laws, decaying):
        law1, law2 = _LAWS[laws]() if laws in _LAWS else (identity_law(), identity_law())
        schedule = decaying_schedule(1.0, 0.8, 1.0) if decaying else constant_schedule(1.0)
        build = (lambda **kw: make_system(nodes=9, **kw)) if mesh == "interval" else _rect6
        system = build(law1=law1, law2=law2, schedule=schedule)
        solver = _MidpointSolver(system)
        f = system.free
        T = system.trace[:, f]
        rng = np.random.default_rng(11)
        for seed, dt in ((0, 0.01), (1, 0.05), (2, 0.2)):
            state = _random_state(system, seed, 2.0)
            mu_mid = float(system.schedule.mu(state.t + dt / 2.0))
            ops, c, w0 = solver.start(state, dt)
            assert (ops.dt, ops.mu) == (dt, mu_mid)
            for w in (w0, w0 + rng.standard_normal(len(w0))):
                got, s = solver.residual(ops, c, w0, w)
                wu, wv = w[:len(f)], w[len(f):]
                want = _termwise_residual(solver, dt, mu_mid, state, wu, wv)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
                assert np.array_equal(s, np.concatenate([T @ wu, T @ wv]))


class TestSolverCounters:
    def _run(self, system, steps, dt):
        solver = _MidpointSolver(system)
        state = _sine_state(system, velocity=1.0)
        control = StepControl(dt=dt)
        for _ in range(steps):
            state = timestepper._advance(system, solver, state, control)
        return solver

    def test_constant_mu_identity_factors_once(self):
        steps = 20
        solver = self._run(make_system(nodes=21), steps, 0.01)
        assert solver.factorizations == 1
        assert solver.residuals == 2 * steps
        assert solver.lu_solves == steps
        assert solver.newton == steps
        assert solver.gmres == 0 and solver.halvings == 0
        assert 0.0 <= solver.worst_residual <= 1e-12

    def test_decaying_mu_reuses_the_lagged_lu(self):
        steps = 6
        law = saturating_law(1.0, 2.0)
        system = make_system(nodes=21, law1=law, law2=law,
                             schedule=decaying_schedule(1.0, 0.8, 1.0))
        solver = self._run(system, steps, 0.01)
        # every step is a new mu_mid; the steps that factor none reuse a stale LU
        assert 1 <= solver.factorizations < steps
        assert solver.lagged == steps - solver.factorizations
        assert solver.newton >= steps and solver.gmres > 0
        # one LU solve per direction and one per GMRES iteration
        assert solver.lu_solves == solver.newton + solver.gmres
        assert solver.residuals >= steps + solver.newton

    @pytest.mark.parametrize("decaying", [False, True])
    def test_direction_costs_one_solve_more_than_its_iterations(self, decaying):
        schedule = decaying_schedule(1.0, 0.8, 1.0) if decaying else constant_schedule(1.0)
        system = _rect6(law1=saturating_law(1.0, 2.0), law2=saturating_law(0.5, 4.0),
                        schedule=schedule)
        solver = _MidpointSolver(system)
        for seed in range(4):
            state = _random_state(system, seed, 2.0)
            ops, c, w0 = solver.start(state, 0.05)
            r, s = solver.residual(ops, c, w0, w0)
            before = solver.lu_solves
            got, its = solver._newton_direction(ops, s, r)
            assert its > 0
            assert solver.lu_solves - before == its + 1
            # on a stale LU too, the direction is the Newton direction
            want = _full_jacobian_direction(solver)(ops, w0, s, r)
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
        assert solver.lagged == (3 if decaying else 0)

    def test_rect64_saturating_workload_solve_count(self, monkeypatch, caplog):
        # the seed-0 benchmark config: 10 steps of the 64x64 saturating rect
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
        workloads = importlib.import_module("perfbench.workloads")
        text = workloads.config_text(workloads.WORKLOADS["rect64_saturating"], 0)
        cfg = harness.parse_config(text=text)
        mesh, _, system = harness.build_problem(cfg)
        state0, _ = project_initial_data(system, *harness._initial_fields(cfg, mesh))
        with caplog.at_level(logging.INFO, logger="beamstab.timestepper"):
            integrate(system, state0, cfg.T, StepControl(dt=cfg.dt))
        line, = [rec.getMessage() for rec in caplog.records if rec.levelno == logging.INFO]
        counts = re.match(r"integrate: (\d+) steps, (\d+) LU factorizations, (\d+) LU solves",
                          line)
        steps, factorizations, solves = map(int, counts.groups())
        assert steps == 10 and factorizations == 1
        assert solves <= 58


    def test_run_logs_counters_once(self, caplog):
        system = make_system(nodes=9)
        with caplog.at_level(logging.INFO, logger="beamstab.timestepper"):
            integrate(system, _sine_state(system, velocity=1.0), 0.05, StepControl(dt=0.01))
        lines = [rec.getMessage() for rec in caplog.records if rec.levelno == logging.INFO]
        assert len(lines) == 1
        assert "5 steps, 1 LU factorizations, 5 LU solves, 10 residuals" in lines[0]
        assert lines[0].endswith(", 0 lagged keys")

    @pytest.mark.parametrize("refactor_gmres", [None, 0])
    @pytest.mark.parametrize("laws", ["identity", "saturating"])
    def test_lagged_lu_steps_match_full_jacobian_newton(self, monkeypatch, laws,
                                                        refactor_gmres):
        if refactor_gmres is not None:  # 0: every stale direction refactors
            monkeypatch.setattr(timestepper, "REFACTOR_GMRES", refactor_gmres)
        law1, law2 = _LAWS[laws]() if laws in _LAWS else (identity_law(), identity_law())
        system = _rect6(law1=law1, law2=law2, schedule=decaying_schedule(1.0, 0.8, 1.0))
        control = StepControl(dt=0.05)
        solver = _MidpointSolver(system)
        stale_over = []  # per step: a direction on a stale LU went past REFACTOR_GMRES
        direction = solver._newton_direction

        def spy(ops, s, r):
            delta, its = direction(ops, s, r)
            stale_over[-1] |= bool(ops.shift) and its > timestepper.REFACTOR_GMRES
            return delta, its

        monkeypatch.setattr(solver, "_newton_direction", spy)
        steps = 8
        state = _sine_state(system, velocity=1.0)
        for _ in range(steps):
            ou, ov, converged = _full_jacobian_newton(_MidpointSolver(system), state, control)
            assert converged
            stale_over.append(False)
            wu, wv = solver.solve(state, control)
            got, want = np.concatenate([wu, wv]), np.concatenate([ou, ov])
            assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))
            state = timestepper._advance(system, SimpleNamespace(solve=lambda *_: (wu, wv)),
                                         state, control)
        # refactored at the first step and after each step that asked for it
        assert solver.factorizations == 1 + sum(stale_over[:-1])
        assert solver.factorizations < steps
        assert solver.lagged == steps - solver.factorizations
        if refactor_gmres == 0:
            assert solver.factorizations > 1


class TestReferenceOrdering:
    def test_fill_below_default_ordering(self):
        system = make_system(mesh=geometry.build_rect_mesh(1.0, 1.0, 32, 32),
                             x0=np.array([-0.1, -0.1]))
        solver = _MidpointSolver(system)
        ops = solver.operators(1e-3, 1.0)
        J = (ops.J_lin + _fem.trace_form(solver.T2, ops.W * solver.slopes0)).tocsc()
        default = splu(J)
        assert ops.lu.L.nnz + ops.lu.U.nnz < default.L.nnz + default.U.nnz


class TestIntegrate:
    def test_zero_span_single_sample(self):
        system = make_system(nodes=7)
        rec = TraceRecorder(system)
        final = integrate(system, _sine_state(system), 0.0, StepControl(dt=0.1),
                          observers=(rec,))
        assert final.t == 0.0
        assert len(rec.trace()) == 1

    def test_backwards_time_rejected(self):
        system = make_system(nodes=7)
        state = _sine_state(system)
        state.t = 1.0
        with pytest.raises(InvalidArgumentError):
            integrate(system, state, 0.5, StepControl(dt=0.1))

    def test_deterministic_repetition(self):
        system = make_system(nodes=11)
        traces = []
        for _ in range(2):
            rec = TraceRecorder(system)
            integrate(system, _sine_state(system), 0.2, StepControl(dt=0.01),
                      observers=(rec,))
            traces.append(rec.trace())
        assert np.array_equal(traces[0].E, traces[1].E)
        assert np.array_equal(traces[0].G, traces[1].G)

    def test_conservative_drift_stays_tiny(self):
        system = make_conservative_system(nodes=11)
        rec = TraceRecorder(system)
        integrate(system, _sine_state(system), 1.0, StepControl(dt=0.001),
                  observers=(rec,))
        trace = rec.trace()
        assert np.max(np.abs(trace.E - trace.E[0])) <= 1e-10 * trace.E[0]


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        system = make_system(nodes=9)
        state = integrate(system, _sine_state(system), 0.3, StepControl(dt=0.01))
        path = tmp_path / "state.ckpt"
        save_checkpoint(path, state, config_hash="abc123")
        back, h = load_checkpoint(path)
        assert h == "abc123"
        assert back.t == state.t
        for name in ("u", "v", "du", "dv"):
            assert np.array_equal(getattr(back, name), getattr(state, name))

    def test_restart_equivalence(self, tmp_path):
        system = make_system(nodes=11)
        control = StepControl(dt=0.01)
        straight = integrate(system, _sine_state(system), 1.0, control)

        mid = integrate(system, _sine_state(system), 0.5, control)
        path = tmp_path / "mid.ckpt"
        save_checkpoint(path, mid)
        resumed, _ = load_checkpoint(path)
        final = integrate(system, resumed, 1.0, control)

        assert final.t == pytest.approx(straight.t, abs=1e-12)
        for name in ("u", "v", "du", "dv"):
            diff = np.max(np.abs(getattr(final, name) - getattr(straight, name)))
            assert diff <= 1e-12

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_text("something else\n")
        with pytest.raises(InvalidArgumentError):
            load_checkpoint(path)

    def test_rejects_truncated_file(self, tmp_path):
        path = tmp_path / "short.ckpt"
        path.write_text(timestepper.CHECKPOINT_HEADER + "\nconfig x\nt 0\n")
        with pytest.raises(InvalidArgumentError):
            load_checkpoint(path)
