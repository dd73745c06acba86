import dataclasses
import importlib
import io
import logging
import re
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgbtrs
from scipy.sparse.linalg import splu

from beamstab import _fem, geometry, harness, timestepper
from beamstab.admissibility import constant_schedule, decaying_schedule
from beamstab.diagnostics import TraceRecorder, energy, functional_F
from beamstab.discretization import SimState, interpolate, project_initial_data
from beamstab.errors import InvalidArgumentError, StepFailureError
from beamstab.fields import sine_field
from beamstab.feedback import (FeedbackLaw, LipschitzLaw, hardening_law, identity_law,
                               saturating_law, strauss_approximate, zero_law)
from beamstab.timestepper import (StepControl, _MidpointSolver, integrate, load_checkpoint,
                                  save_checkpoint)

from conftest import (gamma1_faces, gamma1_point_data, make_conservative_system, make_system,
                      trace_loop_oracle)


ROOT = Path(__file__).resolve().parent.parent

# a decaying mu(t) and saturating laws; the [mesh] keys follow
_DECAYING_CONFIG = """\
[problem]
alpha1 = 0.03
alpha2 = 0.03
mu = decaying
mu_c0 = 1.0
mu_lambda = 0.8

[feedback]
law1 = saturating
law2 = saturating

[initial]
u0 = sine
u0_amplitude = 1.0
v0 = sine
v0_amplitude = 0.5

[time]
dt = 0.01
T = 0.1

[output]
prefix = decay

[mesh]
"""


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

    @pytest.mark.parametrize("dt", [np.inf, -np.inf, np.nan])
    def test_non_finite_dt_rejected(self, dt):
        with pytest.raises(InvalidArgumentError, match="finite"):
            StepControl(dt=dt)


class TestStep:
    def test_equilibrium_is_fixed(self):
        system = make_system(nodes=7)
        n = len(system.free)
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

    def test_newton_failure_raises(self, monkeypatch):
        system = make_system(nodes=7, law1=saturating_law(1.0, 2.0),
                             law2=saturating_law(1.0, 2.0))
        state = _sine_state(system, velocity=1.0)
        monkeypatch.setattr(timestepper, "NEWTON_MAX", 1)
        control = StepControl(dt=50.0)
        with pytest.raises(StepFailureError) as err:
            _one_step(system, state, control)
        assert err.value.t == 0.0
        assert err.value.residual > 0

    def test_line_search_cap_is_read(self, monkeypatch):
        # without a trial step the first Newton iteration cannot lower the residual
        system = make_system(nodes=7)
        state = _sine_state(system, velocity=1.0)
        _one_step(system, state, StepControl(dt=0.1))
        monkeypatch.setattr(timestepper, "LINE_SEARCH_MAX", 0)
        with pytest.raises(StepFailureError):
            _one_step(system, state, StepControl(dt=0.1))


def _damped_newton(solver, state, direction):
    """The solver's damped Newton loop (same tolerance scale, stop rule and
    line search) with the direction supplied by direction(ops, w, s, r).
    Returns (wu, wv, converged)."""
    ops, c, w0 = solver.start(state)
    w = w0
    r, s = solver.residual(ops, c, w0, w)
    rnorm = float(np.max(np.abs(r)))
    tol = timestepper.NEWTON_TOL * max(1.0, rnorm)
    for k in range(timestepper.NEWTON_MAX):
        if rnorm <= tol and (k or rnorm == 0.0):
            break
        delta = direction(ops, w, s, r)
        lam = 1.0
        for _ in range(timestepper.LINE_SEARCH_MAX):
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


def _free_forms(system):
    """The free-dof forms (M, K, C, Sg) of the oracles: the system's mass,
    stiffness, coupling and sigma forms, csr (TestBlockLayout checks them
    against the restricted all-node forms)."""
    return system.mass, system.stiffness, system.coupling, system.sigma_op


# sigma from the Kronecker sum of the mass bands against T' diag(w sigma) T,
# whose Gauss-point hat values round: 1.3e-15 of the largest entry on 16x16
# (2.1e-15 on 64x64), bit-equal on the interval
SIGMA_RTOL = 4e-15


def _restricted_forms(system):
    """Oracle free-dof forms (M, K, C, X, Sg): the all-node domain forms
    (_fem.domain_matrices) and sigma trace form (_fem.trace_form)
    restricted to the free dofs, csr."""
    mesh, part = system.mesh, system.partition
    mats = _fem.domain_matrices(mesh, x0=part.x0)
    T, w, _ = trace_loop_oracle(mesh, gamma1_faces(mesh, part))
    sigma = system.alpha2 * gamma1_point_data(part)["sum_nu"]
    ix = np.ix_(system.free, system.free)
    return tuple(A[ix].tocsr() for A in (mats["mass"], mats["stiffness"], mats["coupling"],
                                          mats["multiplier"], _fem.trace_form(T, w * sigma)))


def _full_jacobian(solver, ops, w):
    """Oracle Jacobian of (solver.dt, ops.mu) at the iterate w, assembled
    with the actual trace slopes, csc."""
    sys_ = solver.system
    M, K, C, Sg = _free_forms(sys_)
    T = sys_.trace
    wmn = sys_.trace_wmn
    a1, a2 = sys_.alpha1, sys_.alpha2
    dt, mu_mid = solver.dt, ops.mu
    wu, wv = w[:len(w) // 2], w[len(w) // 2:]
    B1 = T.T @ sp.diags(wmn * sys_.law1.slope(T @ wu)) @ T
    B2 = T.T @ sp.diags(wmn * sys_.law2.slope(T @ wv)) @ T
    return sp.bmat([[(2.0 / dt) * M + (dt / 2.0) * mu_mid * K + mu_mid * B1,
                     (dt / 2.0) * a1 * C],
                    [(dt / 2.0) * (Sg - a2 * C),
                     (2.0 / dt) * M + (dt / 2.0) * K + B2]], format="csc")


def _full_jacobian_direction(solver):
    """Oracle direction: assemble the Jacobian with the actual trace slopes
    of the iterate w and factor it."""
    def direction(ops, w, s, r):
        return splu(_full_jacobian(solver, ops, w)).solve(r)

    return direction


def _full_jacobian_newton(solver, state):
    """Oracle step: Newton that factors the actual Jacobian every iteration."""
    return _damped_newton(solver, state, _full_jacobian_direction(solver))


def _reference_jacobian(solver, ops):
    """Oracle J_ref: the assembled Jacobian of (solver.dt, ops.mu) with the
    laws' slopes at 0, csr."""
    sys_ = solver.system
    M, K, C, Sg = _free_forms(sys_)
    T = sys_.trace
    wmn = sys_.trace_wmn
    dt, mu = solver.dt, ops.mu
    p1, p2 = (float(law.slope(0.0)) for law in (sys_.law1, sys_.law2))
    B = T.T @ sp.diags(wmn) @ T
    return sp.bmat([[(2.0 / dt) * M + (dt / 2.0) * mu * K + mu * p1 * B,
                     (dt / 2.0) * sys_.alpha1 * C],
                    [(dt / 2.0) * (Sg - sys_.alpha2 * C),
                     (2.0 / dt) * M + (dt / 2.0) * K + p2 * B]], format="csr")


def _chord_newton(solver, state):
    """The damped loop with the reference-Jacobian direction alone (no
    correction)."""
    def direction(ops, w, s, r):
        return splu(_reference_jacobian(solver, ops).tocsc()).solve(r)

    return _damped_newton(solver, state, direction)


def _termwise_residual(solver, dt, mu_mid, state, wu, wv):
    """Oracle residual: the midpoint residual on the free dofs term by term,
    stacked (u block, v block)."""
    sys_ = solver.system
    M, K, C, Sg = _free_forms(sys_)
    a1, a2 = sys_.alpha1, sys_.alpha2
    T = sys_.trace
    wmn = sys_.trace_wmn
    u_mid = state.u + (dt / 2.0) * wu
    v_mid = state.v + (dt / 2.0) * wv
    ru = ((2.0 / dt) * (M @ (wu - state.du))
          + mu_mid * (K @ u_mid) + a1 * (C @ v_mid)
          + mu_mid * (T.T @ (wmn * sys_.law1(T @ wu))))
    rv = ((2.0 / dt) * (M @ (wv - state.dv))
          + K @ v_mid - a2 * (C @ u_mid) + Sg @ u_mid
          + T.T @ (wmn * sys_.law2(T @ wv)))
    return np.concatenate([ru, rv])


_LAWS = {
    "saturating": lambda: (saturating_law(1.0, 2.0), saturating_law(0.5, 4.0)),
    "hardening": lambda: (hardening_law(1.0, 3.0, knee=0.5), hardening_law(0.5, 2.0, knee=0.3)),
    "lipschitz": lambda: (strauss_approximate(saturating_law(1.0, 3.0), 3),
                          strauss_approximate(hardening_law(1.0, 2.0, knee=0.4), 4)),
}


# the two partitions of the unit square: Gamma1 the right and top sides
# (two clamped sides), or every side but the bottom (a free-free x axis)
_CORNER, _FREE_FREE = (-0.1, -0.1), (0.5, -0.1)


def _rect6(x0=_CORNER, **kwargs):
    """6x6 unit square, multiplier origin outside: Gamma1 has trace points."""
    return make_system(mesh=geometry.build_rect_mesh(1.0, 1.0, 6, 6),
                       x0=np.array(x0), **kwargs)


def _random_state(system, seed, amplitude):
    rng = np.random.default_rng(seed)
    t = float(rng.uniform(0.0, 1.0))
    return SimState(t, *(amplitude * rng.standard_normal(len(system.free)) for _ in range(4)))


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
        solver = _MidpointSolver(system, dt)
        wu, wv = solver.solve(state)
        ou, ov, converged = _full_jacobian_newton(_MidpointSolver(system, dt), state)
        assert converged
        got, want = np.concatenate([wu, wv]), np.concatenate([ou, ov])
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

        # the first direction itself is the Newton direction, not a chord
        ops, c, w0 = solver.start(state)
        r, s = solver.residual(ops, c, w0, w0)
        got, _ = solver._newton_direction(ops, s, r)
        want = _full_jacobian_direction(solver)(ops, w0, s, r)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_steep_law_large_step_converges_where_chord_fails(self):
        # the saturating slope falls from 50 at 0 to 1 at large traces: the
        # reference Jacobian (slope 50) alone stalls, the corrected direction
        # converges
        law = saturating_law(1.0, 50.0)
        system = _rect6(law1=law, law2=law)
        state = _sine_state(system, velocity=100.0)
        wu, wv = _MidpointSolver(system, 0.5).solve(state)
        ou, ov, converged = _full_jacobian_newton(_MidpointSolver(system, 0.5), state)
        assert converged
        assert np.max(np.abs(np.concatenate([wu - ou, wv - ov]))) <= 1e-11 * np.max(
            np.abs(np.concatenate([ou, ov])))
        *_, chord_converged = _chord_newton(_MidpointSolver(system, 0.5), state)
        assert not chord_converged

    def test_short_gmres_warns_and_still_converges(self, monkeypatch, caplog):
        law = saturating_law(1.0, 4.0)
        system = make_system(nodes=9, law1=law, law2=law)
        state = _random_state(system, 7, 2.0)
        want = np.concatenate(_MidpointSolver(system, 0.2).solve(state))
        # one GMRES iteration per direction: every solve stops short of rtol
        monkeypatch.setattr(timestepper, "GMRES_MAXITER", 1)
        with caplog.at_level(logging.WARNING, logger="beamstab.timestepper"):
            got = np.concatenate(_MidpointSolver(system, 0.2).solve(state))
        assert any(rec.levelno == logging.WARNING and "GMRES" in rec.getMessage()
                   for rec in caplog.records)
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    def test_long_gmres_reaches_the_newton_direction(self, caplog):
        law = saturating_law(1.0, 2.0)
        system = _rect6(law1=law, law2=law, schedule=decaying_schedule(1.0, 0.8, 1.0))
        solver = _MidpointSolver(system, 0.2)
        ops, c, w0 = solver.start(_random_state(system, 3, 1.0))
        r, s = solver.residual(ops, c, w0, w0 + 1.0)
        with caplog.at_level(logging.WARNING, logger="beamstab.timestepper"):
            got, its = solver._newton_direction(ops, s, r)
        assert its > 6  # 10 measured, in the one cycle
        assert not caplog.records
        want = _full_jacobian_direction(solver)(ops, w0 + 1.0, s, r)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_givens_residual_norm_is_the_true_residual(self, monkeypatch):
        law = saturating_law(1.0, 2.0)
        system = _rect6(law1=law, law2=law, schedule=decaying_schedule(1.0, 0.8, 1.0))
        state = _random_state(system, 3, 1.0)

        def direction():  # a fresh solver's first direction and its Givens residual norm
            solver = _MidpointSolver(system, 0.2)
            ops, c, w0 = solver.start(state)
            r, s = solver.residual(ops, c, w0, w0 + 1.0)
            cycle, norms = solver._gmres_cycle, []

            def record(*args):
                step, residual, k = cycle(*args)
                norms.append(residual)
                return step, residual, k

            monkeypatch.setattr(solver, "_gmres_cycle", record)
            delta, its = solver._newton_direction(ops, s, r)
            return delta, its, norms, r, _full_jacobian(solver, ops, w0 + 1.0)

        _, k, *_ = direction()
        assert k > 6
        # capped at m iterations, the norm the cycle returns is r - J delta of
        # its direction: to 1e-10 relative, above the round-off of the
        # explicit product (about 1e-16 ||r|| here, while the uncapped cycle
        # ends near 1e-12 ||r||)
        for m in range(1, k + 1):
            monkeypatch.setattr(timestepper, "GMRES_MAXITER", m)
            delta, its, norms, r, J = direction()
            assert its == m and len(norms) == 1
            true = np.linalg.norm(r - J @ delta)
            floor = 1e-14 * np.linalg.norm(r)
            assert abs(norms[0] - true) <= 1e-10 * true + floor

    def test_debug_line_per_step(self, caplog):
        system = make_system(nodes=9, law1=saturating_law(1.0, 2.0),
                             law2=saturating_law(1.0, 2.0))
        with caplog.at_level(logging.DEBUG, logger="beamstab.timestepper"):
            integrate(system, _sine_state(system, velocity=1.0), 0.05, StepControl(dt=0.01))
        lines = [rec.getMessage() for rec in caplog.records if rec.levelno == logging.DEBUG]
        assert len(lines) == 5
        assert all("newton" in line and "gmres" in line and "halvings" in line
                   and "residual" in line for line in lines)


def _counting(law, calls):
    """law with each of its slope evaluations appended to calls."""
    if isinstance(law, FeedbackLaw):
        return dataclasses.replace(law, slope=lambda s: calls.append(1) or law.slope(s))

    class Counted(LipschitzLaw):
        def slope(self, s):
            calls.append(1)
            return super().slope(s)

    return Counted(law.breakpoints, law.values, law.b)


_SLOPE_LAWS = {
    "identity": lambda: (identity_law(), identity_law(0.5)),
    "zero": lambda: (zero_law(), zero_law()),
    "one_slope_lipschitz": lambda: (LipschitzLaw([-1.0, 0.0, 2.0], [-2.0, 0.0, 4.0], 1.0),
                                    strauss_approximate(identity_law(), 3)),
    "saturating": _LAWS["saturating"],
    "hardening": _LAWS["hardening"],
}


class TestConstantSlope:
    """Laws of constant slope take no slope pass: the boundary correction
    d = W p'(T2 w) - W p'(0) is then exactly 0."""

    @pytest.mark.parametrize("laws", sorted(_SLOPE_LAWS))
    @pytest.mark.parametrize("mesh", ["interval", "rect"])
    def test_slope_calls_inside_integrate(self, mesh, laws, caplog):
        calls = []
        law1, law2 = (_counting(law, calls) for law in _SLOPE_LAWS[laws]())
        if mesh == "interval":
            system = make_system(nodes=21, law1=law1, law2=law2)
        else:
            system = make_system(mesh=geometry.build_rect_mesh(1.0, 1.0, 8, 8),
                                 x0=np.array(_CORNER), law1=law1, law2=law2)
        state = _random_state(system, 5, 2.0)
        calls.clear()  # the system takes p'(0) once, when it is assembled
        with caplog.at_level(logging.INFO, logger="beamstab.timestepper"):
            integrate(system, state, state.t + 0.05, StepControl(dt=0.01))
        line, = [rec.getMessage() for rec in caplog.records if rec.levelno == logging.INFO]
        newton = int(re.search(r"newton (\d+)", line).group(1))
        assert newton >= 5
        if laws in ("saturating", "hardening"):
            assert len(calls) >= 2 * newton  # each law once per direction
        else:
            assert calls == []

    @pytest.mark.parametrize("mesh", ["interval", "rect"])
    def test_skipped_pass_changes_no_bit(self, mesh):
        # the same identity laws declared with b < L take the slope pass
        laws = (identity_law(), identity_law(0.5))
        declared = [FeedbackLaw(law.p, law.slope, 0.5 * law.L, law.L) for law in laws]
        build = (lambda **kw: make_system(nodes=21, **kw)) if mesh == "interval" else (
            lambda **kw: make_system(mesh=geometry.build_rect_mesh(1.0, 1.0, 8, 8),
                                     x0=np.array(_CORNER), **kw))
        fast, full = (_MidpointSolver(build(law1=a, law2=b), 0.01)
                      for a, b in (laws, declared))
        assert fast.constant_slopes and not full.constant_slopes
        for seed in range(3):
            state = _random_state(fast.system, seed, 2.0)
            got, want = (np.concatenate(solver.solve(state)) for solver in (fast, full))
            assert got.tobytes() == want.tobytes()
        assert (fast.newton, fast.gmres) == (full.newton, full.gmres)


class TestStackedResidual:
    @pytest.mark.parametrize("decaying", [False, True])
    @pytest.mark.parametrize("laws", sorted(_LAWS) + ["identity"])
    @pytest.mark.parametrize("mesh", ["interval", "rect"])
    def test_matches_termwise_residual(self, mesh, laws, decaying):
        law1, law2 = _LAWS[laws]() if laws in _LAWS else (identity_law(), identity_law())
        schedule = decaying_schedule(1.0, 0.8, 1.0) if decaying else constant_schedule(1.0)
        build = (lambda **kw: make_system(nodes=9, **kw)) if mesh == "interval" else _rect6
        system = build(law1=law1, law2=law2, schedule=schedule)
        nf = len(system.free)
        T = system.trace
        rng = np.random.default_rng(11)
        for seed, dt in ((0, 0.01), (1, 0.05), (2, 0.2)):
            solver = _MidpointSolver(system, dt)
            state = _random_state(system, seed, 2.0)
            mu_mid = float(system.schedule.mu(state.t + dt / 2.0))
            ops, c, w0 = solver.start(state)
            assert (solver.dt, ops.mu) == (dt, mu_mid)
            for w in (w0, w0 + rng.standard_normal(len(w0))):
                got, s = solver.residual(ops, c, w0, w)
                wu, wv = w[:nf], w[nf:]
                want = _termwise_residual(solver, dt, mu_mid, state, wu, wv)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
                assert np.array_equal(s, np.concatenate([T @ wu, T @ wv]))


    @pytest.mark.parametrize("mesh", ["interval", "rect"])
    def test_residual_keeps_the_bits_of_its_formula(self, mesh):
        # (J_lin (w - w0) + c) + T2' (W p), in that order, as SciPy's A @ x gives it
        law1, law2 = _LAWS["saturating"]()
        build = (lambda **kw: make_system(nodes=21, **kw)) if mesh == "interval" else _rect6
        solver = _MidpointSolver(build(law1=law1, law2=law2), 0.05)
        ops, c, w0 = solver.start(_random_state(solver.system, 9, 2.0))
        for w in (w0, w0 + np.random.default_rng(9).standard_normal(len(w0))):
            s = solver.T2 @ w
            q = solver.q
            load = solver.T2t @ (ops.W * np.concatenate([solver.system.law1(s[:q]),
                                                         solver.system.law2(s[q:])]))
            want = (ops.J_lin @ (w - w0) + c) + load if w is not w0 else c + load
            got, _ = solver.residual(ops, c, w0, w)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("mesh", ["interval", "rect"])
    def test_first_residual_forms_no_J_lin_product(self, mesh, monkeypatch):
        law1, law2 = _LAWS["saturating"]()
        build = (lambda **kw: make_system(nodes=9, **kw)) if mesh == "interval" else _rect6
        system = build(law1=law1, law2=law2, schedule=decaying_schedule(1.0, 0.8, 1.0))
        solver = _MidpointSolver(system, 0.05)
        ops, c, w0 = solver.start(_random_state(system, 4, 2.0))

        class Refuse:
            def __matmul__(self, x):
                raise AssertionError("J_lin product formed")

        product = _fem.csr_product

        def refusing_product(A, x, out):  # the residual's products go through _fem
            if isinstance(A, Refuse):
                raise AssertionError("J_lin product formed")
            return product(A, x, out)

        monkeypatch.setattr(_fem, "csr_product", refusing_product)
        stub = ops._replace(J_lin=Refuse())
        got, s = solver.residual(stub, c, w0, w0)
        assert solver.residuals == 1
        q = solver.q
        p = np.concatenate([system.law1(s[:q]), system.law2(s[q:])])
        assert np.array_equal(got, ops.J_lin @ (w0 - w0) + c + solver.T2t @ (ops.W * p))
        with pytest.raises(AssertionError, match="J_lin"):
            solver.residual(stub, c, w0, w0 + 1.0)


class TestSolverCounters:
    def _run(self, system, steps, dt):
        solver = _MidpointSolver(system, dt)
        state = _sine_state(system, velocity=1.0)
        for _ in range(steps):
            state = timestepper._advance(solver, state)
        return solver

    def test_constant_mu_identity_factors_once(self):
        steps = 20
        solver = self._run(make_system(nodes=21), steps, 0.01)
        assert solver.residuals == 2 * steps
        assert solver.solves == steps
        assert solver.newton == steps
        assert solver.gmres == 0 and solver.halvings == 0
        assert 0.0 <= solver.worst_residual <= 1e-12

    @pytest.mark.parametrize("decaying", [False, True])
    @pytest.mark.parametrize("mesh", ["interval", "rect"])
    def test_one_preconditioner_build_per_run(self, mesh, decaying, monkeypatch):
        builds = []
        for name in ("_FastDiagonalization", "_BandedLU"):
            cls = getattr(timestepper, name)
            monkeypatch.setattr(timestepper, name,
                                lambda *args, name=name, cls=cls: builds.append(name) or cls(*args))
        steps = 6
        law = saturating_law(1.0, 2.0)
        schedule = decaying_schedule(1.0, 0.8, 1.0) if decaying else constant_schedule(1.0)
        build = (lambda **kw: make_system(nodes=21, **kw)) if mesh == "interval" else _rect6
        solver = self._run(build(law1=law, law2=law, schedule=schedule), steps, 0.01)
        # every step is a new mu_mid under decay; the build serves them all
        assert builds == ["_BandedLU" if mesh == "interval" else "_FastDiagonalization"]
        assert solver.newton >= steps and solver.gmres > 0
        # one solve per direction and one per GMRES iteration
        assert solver.solves == solver.newton + solver.gmres
        assert solver.residuals >= steps + solver.newton

    @pytest.mark.parametrize("decaying", [False, True])
    def test_direction_costs_one_solve_more_than_its_iterations(self, decaying):
        schedule = decaying_schedule(1.0, 0.8, 1.0) if decaying else constant_schedule(1.0)
        system = _rect6(law1=saturating_law(1.0, 2.0), law2=saturating_law(0.5, 4.0),
                        schedule=schedule)
        solver = _MidpointSolver(system, 0.05)
        for seed in range(4):
            state = _random_state(system, seed, 2.0)
            ops, c, w0 = solver.start(state)
            r, s = solver.residual(ops, c, w0, w0)
            before = solver.solves
            got, its = solver._newton_direction(ops, s, r)
            assert its > 0
            assert solver.solves - before == its + 1
            want = _full_jacobian_direction(solver)(ops, w0, s, r)
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

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
        steps, solves = map(int, re.match(r"integrate: (\d+) steps, (\d+) solves", line).groups())
        assert steps == 10
        assert solves <= 58

    def test_run_logs_counters_once(self, caplog):
        system = make_system(nodes=9)
        with caplog.at_level(logging.INFO, logger="beamstab.timestepper"):
            integrate(system, _sine_state(system, velocity=1.0), 0.05, StepControl(dt=0.01))
        lines = [rec.getMessage() for rec in caplog.records if rec.levelno == logging.INFO]
        assert len(lines) == 1
        assert "5 steps, 5 solves, 10 residuals" in lines[0]

    @pytest.mark.parametrize("laws", ["identity", "saturating"])
    def test_decaying_mu_steps_match_full_jacobian_newton(self, laws):
        law1, law2 = _LAWS[laws]() if laws in _LAWS else (identity_law(), identity_law())
        system = _rect6(law1=law1, law2=law2, schedule=decaying_schedule(1.0, 0.8, 1.0))
        dt = 0.05
        solver = _MidpointSolver(system, dt)
        state = _sine_state(system, velocity=1.0)
        for _ in range(8):
            ou, ov, converged = _full_jacobian_newton(_MidpointSolver(system, dt), state)
            assert converged
            wu, wv = solver.solve(state)
            got, want = np.concatenate([wu, wv]), np.concatenate([ou, ov])
            assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))
            state = timestepper._advance(SimpleNamespace(dt=dt, solve=lambda *_: (wu, wv)), state)


def _tridiagonal(band):
    """The csr matrix of a tridiagonal factor band (3, n)."""
    return sp.diags([band[0, 1:], band[1], band[2, :-1]], [-1, 0, 1], format="csr")


class TestPreconditioner:
    @pytest.mark.parametrize("laws", ["identity", "saturating"])
    @pytest.mark.parametrize("x0", [_CORNER, _FREE_FREE], ids=["corner", "free_free"])
    def test_rect_blocks_are_the_reference_jacobian_blocks(self, x0, laws):
        law1, law2 = ((identity_law(2.0), identity_law(0.5)) if laws == "identity"
                      else (saturating_law(1.0, 2.0), saturating_law(0.5, 4.0)))
        system = make_system(mesh=geometry.build_rect_mesh(1.0, 1.3, 7, 5), x0=np.array(x0),
                             law1=law1, law2=law2)
        dt, mu = 0.05, 0.7
        solver = _MidpointSolver(system, dt)
        ops = solver.operators(mu)
        J = _reference_jacobian(solver, ops)
        nf = solver.nf
        blocks = [J[:nf, :nf], J[nf:, nf:]]
        mass = [_tridiagonal(f["mass"]) for f in system.factors]
        for field, (m, p0) in enumerate(zip((mu, 1.0), system.slopes0)):
            # B_d = (dt/2) K_d + p'(0) G_d from the system's 1D factor bands
            B = [(dt / 2.0) * _tridiagonal(f["stiffness"]) + p0 * _tridiagonal(f["gamma1"])
                 for f in system.factors]
            A = [(1.0 / dt) * M + m * B_d for M, B_d in zip(mass, B)]
            kron_sum = sp.kron(A[0], mass[1]) + sp.kron(mass[0], A[1])
            want = blocks[field]
            assert abs(kron_sum - want).max() <= 1e-14 * abs(want).max()
        # the rest is J_ref off the diagonal blocks: the coupling and sigma
        rest = J - sp.block_diag(blocks)
        assert abs(solver.rest - rest).max() <= 1e-14 * abs(J).max()
        # and the solve inverts the block diagonal
        b = np.random.default_rng(5).standard_normal(2 * nf)
        x = ops.solve(b)
        assert np.max(np.abs(sp.block_diag(blocks) @ x - b)) <= 1e-12 * np.max(np.abs(b))

    @pytest.mark.parametrize("laws, calls", [("equal", 2), ("distinct", 4)])
    def test_eigenpairs_once_per_distinct_slope(self, monkeypatch, laws, calls):
        law = saturating_law(1.0, 2.0)
        law1, law2 = (law, law) if laws == "equal" else (identity_law(2.0), identity_law(0.5))
        eigh = timestepper.eigh
        pairs = []
        monkeypatch.setattr(timestepper, "eigh", lambda *args: pairs.append(1) or eigh(*args))
        _MidpointSolver(_rect6(law1=law1, law2=law2), 0.05)
        assert len(pairs) == calls

    @pytest.mark.parametrize("decaying", [False, True])
    def test_interval_banded_solve_is_the_reference_solve(self, decaying):
        schedule = decaying_schedule(1.0, 0.8, 1.0) if decaying else constant_schedule(1.0)
        system = make_system(nodes=21, law1=saturating_law(1.0, 2.0),
                             law2=saturating_law(0.5, 4.0), schedule=schedule)
        solver = _MidpointSolver(system, 0.05)
        assert solver.rest is None  # P = J_ref
        ops = solver.operators(0.7)
        J = _reference_jacobian(solver, ops).toarray()
        b = np.random.default_rng(3).standard_normal(len(J))
        want = np.linalg.solve(J, b)
        assert np.max(np.abs(ops.solve(b) - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("dt", [1e-3, 0.05])
    @pytest.mark.parametrize("laws", ["identity", "saturating"])
    def test_reference_factors_need_no_interchange(self, laws, dt):
        # the 201-node interval of the reference run: its J_ref factors
        # unpivoted, and the triangular band solves are dgbtrs bit for bit
        law1, law2 = ((identity_law(), identity_law()) if laws == "identity"
                      else _LAWS["saturating"]())
        solver = _MidpointSolver(make_system(nodes=201, law1=law1, law2=law2), dt)
        ab0, ab1 = solver.precond.ab
        b = np.random.default_rng(6).standard_normal(ab0.shape[1])
        for mu in (0.05, 0.7, 1.0, 4.0):
            factors = _fem.band_lu(ab0 + mu * ab1, timestepper.BANDS, timestepper.BANDS)
            lu, piv, triangles = factors
            assert triangles is not None
            want = dgbtrs(lu, timestepper.BANDS, timestepper.BANDS, b, piv)[0]
            got = _fem.band_solve(factors, timestepper.BANDS, timestepper.BANDS, b)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("x0", [0.0, 1.3])
    @pytest.mark.parametrize("laws", ["identity", "saturating"])
    def test_interval_bands_are_the_trace_form_construction(self, laws, x0):
        # J_ref's base and mu parts from the gamma1 stencil form, against
        # J_base and J_mu plus T2' diag(W p'(0)) T2 by the trace form
        law1, law2 = ((identity_law(2.0), identity_law(0.5)) if laws == "identity"
                      else (saturating_law(1.0, 2.0), saturating_law(0.5, 4.0)))
        system = make_system(nodes=21, x0=x0, law1=law1, law2=law2)
        solver = _MidpointSolver(system, 0.05)
        W0 = solver._weights(0.0)
        W_mu = solver._weights(1.0) - W0
        old = timestepper._BandedLU(*(
            solver._on_layout(data) + _fem.trace_form(solver.T2, W * solver.p0)
            for data, W in zip(solver.J_data, (W0, W_mu))))
        for got, want in zip(solver.precond.ab, old.ab):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def _out_of_place_operators(self, mu_mid):
    """_MidpointSolver.operators with new data vectors and csr matrices for
    each new mu_mid: the reference for its in-place update."""
    if self._ops is None or self._ops.mu != mu_mid:
        W = self._weights(mu_mid)
        (J_base, J_mu), (S_base, S_mu) = self.J_data, self.S_data
        self._ops = timestepper._StepOperators(
            mu_mid, self._on_layout(J_base + mu_mid * J_mu),
            self._on_layout(S_base + mu_mid * S_mu), W, W * self.p0, self.precond.at(mu_mid))
    return self._ops


class TestBlockLayout:
    @staticmethod
    def _oracles(system, dt, mu):
        """Dense oracle S(mu) and J_lin(mu) from the restricted system forms,
        with the solver's float operations."""
        M, K, C, Sg = _free_forms(system)
        a1, a2, half = system.alpha1, system.alpha2, dt / 2.0
        S = sp.bmat([[mu * K, a1 * C], [Sg - a2 * C, K]])
        J = sp.bmat([[(2.0 / dt) * M + mu * (half * K), half * (a1 * C)],
                     [half * (Sg - a2 * C), (2.0 / dt) * M + half * K]])
        return S.toarray(), J.toarray()

    @pytest.mark.parametrize("mesh", ["corner", "free_free", "interval"])
    def test_operators_are_the_oracle_blocks_on_one_pattern(self, mesh):
        couplings = {"alpha1": 0.1, "alpha2": 0.07}
        if mesh == "interval":
            system = make_system(nodes=21, **couplings)
        else:
            system = make_system(mesh=geometry.build_rect_mesh(1.0, 1.0, 16, 16),
                                 x0=np.array(_CORNER if mesh == "corner" else _FREE_FREE),
                                 **couplings)
        dt = 0.05
        solver = _MidpointSolver(system, dt)
        nf = solver.nf
        support = np.zeros((2 * nf, 2 * nf), dtype=bool)
        for mu in (0.0, 0.7, 1.3):
            ops = solver.operators(mu)
            S, J = self._oracles(system, dt, mu)
            assert np.array_equal(ops.S.toarray(), S)
            assert np.array_equal(ops.J_lin.toarray(), J)
            assert np.shares_memory(ops.S.indices, ops.J_lin.indices)
            assert np.shares_memory(ops.S.indptr, ops.J_lin.indptr)
            assert ops.S.has_sorted_indices  # each row sums in column order, as the csr forms do
            support |= (S != 0) | (J != 0)
        # the layout stores exactly the entries that are nonzero for some mu
        assert ops.S.nnz == ops.J_lin.nnz == np.count_nonzero(support)
        if mesh == "interval":
            assert solver.rest is None
        else:
            J[:nf, :nf] = J[nf:, nf:] = 0.0
            assert np.array_equal(solver.rest.toarray(), J)

    @pytest.mark.parametrize("mesh", ["corner", "free_free", "rect7x5", "interval"])
    def test_free_stencil_is_the_restricted_forms(self, mesh):
        if mesh == "interval":
            system = make_system(nodes=21)
        else:
            shape = (7, 5) if mesh == "rect7x5" else (16, 16)
            system = make_system(mesh=geometry.build_rect_mesh(1.0, 1.3, *shape),
                                 x0=np.array(_FREE_FREE if mesh == "free_free" else _CORNER))
        forms = [system.slots[name] for name in ("mass", "stiffness", "derivative", "sigma")]
        cols = system.cols
        nf = len(system.free)
        inside = (cols >= 0) & (cols < nf)
        rows = np.nonzero(inside)[0]
        M, K, C, _, Sg = _restricted_forms(system)
        for X, want in zip(forms, (M, K, C, Sg)):
            assert not X[~inside].any()  # a slot off the free grid holds 0
            got = np.zeros((nf, nf))
            np.add.at(got, (rows, cols[inside]), X[inside])
            if want is Sg:  # the Kronecker sum against T' diag(w sigma) T
                assert np.max(np.abs(got - want.toarray())) <= SIGMA_RTOL * abs(want).max()
            else:
                assert np.array_equal(got, want.toarray())

    @pytest.mark.parametrize("mesh", ["interval", "interval_x0", "corner", "free_free",
                                      "rect7x5", "rect64"])
    def test_gamma1_form_is_the_trace_form(self, mesh):
        if mesh.startswith("interval"):
            system = make_system(nodes=21, x0=1.3 if mesh == "interval_x0" else 0.0)
        else:
            shape = {"rect7x5": (7, 5), "rect64": (64, 64)}.get(mesh, (16, 16))
            system = make_system(mesh=geometry.build_rect_mesh(1.0, 1.3, *shape),
                                 x0=np.array(_FREE_FREE if mesh == "free_free" else _CORNER))
        G = system.slots["gamma1"]
        got, = _fem.stencil_csr([G], system.cols, G != 0)
        want = _fem.trace_form(system.trace, system.trace_wmn)
        assert np.array_equal(got.toarray() != 0, want.toarray() != 0)
        if system.mesh.dimension == 1:  # one trace point of hat value 1 per Gamma1 end
            assert np.array_equal(got.toarray(), want.toarray())
        else:
            assert abs(got - want).max() <= SIGMA_RTOL * abs(want).max()

    @pytest.mark.parametrize("mesh", ["corner", "free_free", "rect7x5", "interval"])
    def test_system_forms_are_the_restricted_forms(self, mesh):
        if mesh == "interval":
            system = make_system(nodes=21)
        else:
            shape = (7, 5) if mesh == "rect7x5" else (16, 16)
            system = make_system(mesh=geometry.build_rect_mesh(1.0, 1.3, *shape),
                                 x0=np.array(_FREE_FREE if mesh == "free_free" else _CORNER))
        *domain, Sg = _restricted_forms(system)
        forms = (system.mass, system.stiffness, system.coupling, system.multiplier)
        for got, want in zip(forms, domain):
            # the same csr arrays bit for bit: pattern, stored zeros and signs of 0
            assert got.has_sorted_indices
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, part), getattr(want, part)), part
            assert np.array_equal(np.signbit(got.data), np.signbit(want.data))
        assert abs(system.sigma_op - Sg).max() <= SIGMA_RTOL * abs(Sg).max()
        assert np.array_equal(system.sigma_op.toarray() != 0, Sg.toarray() != 0)

    @pytest.mark.parametrize("mesh", ["corner", "interval"])
    def test_operators_update_in_place_as_a_fresh_build(self, mesh):
        schedule = decaying_schedule(1.0, 0.8, 1.0)
        if mesh == "interval":
            system = make_system(nodes=21, schedule=schedule)
        else:
            system = make_system(mesh=geometry.build_rect_mesh(1.0, 1.0, 16, 16),
                                 x0=np.array(_CORNER), schedule=schedule)
        dt = 0.05
        solver, oracle = _MidpointSolver(system, dt), _MidpointSolver(system, dt)
        first = solver.operators(1.0)
        for n in range(6):
            mu = float(schedule.mu((n + 0.5) * dt))
            ops, want = solver.operators(mu), _out_of_place_operators(oracle, mu)
            assert ops.S is first.S and ops.J_lin is first.J_lin
            for name in ("S", "J_lin"):
                got, ref = getattr(ops, name), getattr(want, name)
                for part in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(got, part), getattr(ref, part)), (name, part)

    @pytest.mark.parametrize("workload, nnz", [("rect64_saturating", 120586), ("ref1d", 1994)])
    def test_workload_layout_size(self, monkeypatch, workload, nnz):
        # the 64x64 rect and the 201-node interval: no stored entry is 0 for every mu
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
        workloads = importlib.import_module("perfbench.workloads")
        cfg = harness.parse_config(text=workloads.config_text(workloads.WORKLOADS[workload], 0))
        _, _, system = harness.build_problem(cfg)
        ops = _MidpointSolver(system, cfg.dt).operators(1.0)
        assert ops.S.nnz == ops.J_lin.nnz == nnz


def _energy_balance_defects(system, states, dt):
    """Defects of the discrete energy balance of the midpoint rule between
    consecutive states, relative to E + F at the step's start:

      (E+F)(t_{n+1}) - (E+F)(t_n) + dt D(w)
        - 1/2 [(mu(t_{n+1}) - mu_mid)|u^{n+1}|_K^2 - (mu(t_n) - mu_mid)|u^n|_K^2]

    with w = (x^{n+1} - x^n)/dt and
    D(w) = mu_mid int_G1 m.nu p1(w_u) w_u + (a1/a2) int_G1 m.nu p2(w_v) w_v."""
    K, T = system.stiffness, system.trace
    out = []
    for a, b in zip(states, states[1:]):
        mu_mid = system.schedule.mu(a.t + dt / 2.0)
        su, sv = T @ ((b.u - a.u) / dt), T @ ((b.v - a.v) / dt)
        D = (mu_mid * system.boundary_integral(system.law1(su) * su)
             + system.alpha_ratio * system.boundary_integral(system.law2(sv) * sv))
        EF = [energy(system, x) + functional_F(system, x) for x in (a, b)]
        mu_terms = 0.5 * ((system.schedule.mu(b.t) - mu_mid) * (b.u @ (K @ b.u))
                          - (system.schedule.mu(a.t) - mu_mid) * (a.u @ (K @ a.u)))
        out.append((EF[1] - EF[0] + dt * D - mu_terms) / EF[0])
    return np.array(out)


class TestWorkArrays:
    """The per-run work arrays of the solver and the preconditioner."""

    @pytest.mark.parametrize("mesh", ["interval", "rect"])
    def test_consecutive_solves_are_independent(self, mesh):
        laws = dict(law1=saturating_law(1.0, 2.0), law2=saturating_law(0.5, 4.0))
        system = make_system(nodes=21, **laws) if mesh == "interval" else _rect6(**laws)
        ops = _MidpointSolver(system, 0.05).operators(0.7)
        b1, b2 = np.random.default_rng(8).standard_normal((2, 2 * len(system.free)))
        x1, x2 = ops.solve(b1), ops.solve(b2)
        assert not np.shares_memory(x1, x2)
        # checked after the second solve: it left the first result as it was
        for x, b in ((x1, b1), (x2, b2)):
            fresh = np.empty_like(b)
            assert ops.solve(b, fresh) is fresh
            assert np.array_equal(x, fresh)

    def test_direction_writes_only_its_basis_rows(self, caplog):
        law = saturating_law(1.0, 2.0)
        system = make_system(mesh=geometry.build_rect_mesh(1.0, 1.0, 16, 16),
                             x0=np.array(_CORNER), law1=law, law2=law,
                             schedule=decaying_schedule(1.0, 0.8, 1.0))
        solver = _MidpointSolver(system, 0.2)
        solver._V.fill(np.nan)
        solver._Z.fill(np.nan)
        ops, c, w0 = solver.start(_random_state(system, 3, 1.0))
        w = w0 + 1.0
        r, s = solver.residual(ops, c, w0, w)
        with caplog.at_level(logging.WARNING, logger="beamstab.timestepper"):
            got, its = solver._newton_direction(ops, s, r)
        assert its > 6  # 10 measured
        # k iterations write the basis rows 0..k and their images 0..k-1 only
        assert np.isnan(solver._V[its + 1:]).all() and np.isnan(solver._Z[its:]).all()
        assert not np.isnan(solver._V[:its + 1]).any() and not np.isnan(solver._Z[:its]).any()
        assert not caplog.records
        want = _full_jacobian_direction(solver)(ops, w, s, r)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_step_allocates_no_temporary_vectors(self):
        # 32x32 saturating rect, two Newton and about four GMRES iterations a
        # step: after warm-up the traced peak of one step measured 3.1
        # vectors of 2 nf float64, of which the new state is 2 (22-25 when
        # every step vector was a temporary); the bound leaves 0.9 of margin
        law = saturating_law(1.0, 2.0)
        system = make_system(mesh=geometry.build_rect_mesh(1.0, 1.0, 32, 32),
                             x0=np.array(_CORNER), alpha1=0.03, alpha2=0.03,
                             law1=law, law2=law)
        solver = _MidpointSolver(system, 1e-3)
        state = _sine_state(system, velocity=1.0)
        for _ in range(3):
            state = timestepper._advance(solver, state)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            timestepper._advance(solver, state)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert solver.gmres > solver.newton > 0
        assert peak <= 4 * (2 * solver.nf * 8)

    @pytest.mark.parametrize("workload", ["ref1d", "rect64_identity", "rect64_saturating"])
    def test_solve_allocates_less_than_one_stacked_vector(self, workload, monkeypatch):
        # the seed-0 benchmark meshes and laws: every product and temporary
        # of 2 nf entries goes to a work array, so what solve() allocates is
        # of the Gamma1 size (about 1.3 KB on ref1d and 12.8 KB on the rect64
        # workloads, against 7.3 KB and 154-158 KB when the products
        # allocated their results, and 18.6 KB on the rect64 workloads when
        # each GMRES cycle allocated its least-squares arrays)
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
        workloads = importlib.import_module("perfbench.workloads")
        cfg = harness.parse_config(text=workloads.config_text(workloads.WORKLOADS[workload], 0))
        mesh, _, system = harness.build_problem(cfg)
        state, _ = project_initial_data(system, *harness._initial_fields(cfg, mesh))
        solver = _MidpointSolver(system, cfg.dt)
        for _ in range(2):
            state = timestepper._advance(solver, state)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            solver.solve(state)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert (solver.gmres > 0) == (workload != "ref1d")  # the rect runs GMRES
        assert peak < 2 * solver.nf * 8
        if workload != "ref1d":  # at most four stacked Gamma1 vectors
            assert peak <= 4 * (2 * solver.q * 8)


class TestCsrProduct:
    """_fem.csr_product against A @ x on every operator the step and the
    recorder apply, and its refusals."""

    @staticmethod
    def _operators(mesh):
        law1, law2 = _LAWS["saturating"]()
        system = (make_system(nodes=21, law1=law1, law2=law2) if mesh == "interval" else
                  make_system(mesh=geometry.build_rect_mesh(1.0, 1.0, 8, 8),
                              x0=np.array(_CORNER), law1=law1, law2=law2))
        solver = _MidpointSolver(system, 0.05)
        ops = solver.operators(0.7)
        named = {name: getattr(system, name) for name in (
            "mass", "stiffness", "coupling", "multiplier", "sigma_op", "trace", "trace_t")}
        named.update(S=ops.S, J_lin=ops.J_lin, T2=solver.T2, T2t=solver.T2t)
        if mesh == "rect":
            named["rest"] = solver.rest
        return named

    @pytest.mark.parametrize("mesh", ["interval", "rect"])
    def test_bit_equal_to_matmul(self, mesh):
        rng = np.random.default_rng(6)
        for name, A in self._operators(mesh).items():
            for tail in ((), (1,), (2,), (5,)):
                x = rng.standard_normal((A.shape[1], *tail))
                out = np.full((A.shape[0], *tail), np.nan)
                assert _fem.csr_product(A, x, out) is out
                want = A @ x
                assert out.shape == want.shape and out.tobytes() == want.tobytes(), (name, tail)

    @pytest.mark.parametrize("case", [
        "short out", "long out", "short x", "long x", "vector out for a block",
        "block out of another width", "3-d x", "strided out", "strided x",
        "fortran-ordered block", "float32 out", "float32 x", "csc matrix"])
    def test_refusal_raises_before_the_kernel(self, case, monkeypatch):
        def reached(*args):
            raise AssertionError("kernel reached")

        A = self._operators("rect")["trace"]  # not square: rows and columns differ
        m, n = A.shape
        x, out = np.ones(n), np.empty(m)
        args = {
            "short out": (A, x, np.empty(m - 1)),
            "long out": (A, x, np.empty(m + 1)),
            "short x": (A, np.ones(n - 1), out),
            "long x": (A, np.ones(n + 1), out),
            "vector out for a block": (A, np.ones((n, 1)), out),
            "block out of another width": (A, np.ones((n, 2)), np.empty((m, 3))),
            "3-d x": (A, np.ones((n, 2, 2)), np.empty((m, 2, 2))),
            "strided out": (A, x, np.empty(2 * m)[::2]),
            "strided x": (A, np.ones(2 * n)[::2], out),
            "fortran-ordered block": (A, np.ones((n, 2), order="F"), np.empty((m, 2))),
            "float32 out": (A, x, np.empty(m, dtype=np.float32)),
            "float32 x": (A, x.astype(np.float32), out),
            "csc matrix": (A.tocsc(), x, out),
        }[case]
        monkeypatch.setattr(_fem, "_sparsetools",
                            SimpleNamespace(csr_matvec=reached, csr_matvecs=reached))
        with pytest.raises(InvalidArgumentError, match="csr_product"):
            _fem.csr_product(*args)
        with pytest.raises(AssertionError, match="kernel reached"):  # the valid call does
            _fem.csr_product(A, x, out)


class TestNonFiniteState:
    @staticmethod
    def _system(mesh, laws):
        law1, law2 = _LAWS[laws]() if laws in _LAWS else (identity_law(), identity_law())
        return make_system(nodes=21, law1=law1, law2=law2) if mesh == "interval" else _rect6(
            law1=law1, law2=law2)

    @pytest.mark.parametrize("entry", [("u", 3, np.nan), ("du", 0, np.inf), ("dv", 1, -np.inf)])
    @pytest.mark.parametrize("laws", ["identity", "saturating"])
    @pytest.mark.parametrize("mesh", ["interval", "rect"])
    def test_step_from_a_non_finite_state_fails(self, mesh, laws, entry):
        # a NaN residual compares False with the tolerance, and an infinite
        # one makes the tolerance infinite: neither may pass as converged
        name, index, value = entry
        system = self._system(mesh, laws)
        state = _sine_state(system, velocity=1.0)
        getattr(state, name)[index] = value
        solver = _MidpointSolver(system, 0.01)
        with pytest.raises(StepFailureError) as err:
            solver.solve(state)
        assert not np.isfinite(err.value.residual)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["u", "v", "du", "dv"])
    @pytest.mark.parametrize("mesh", ["interval", "rect"])
    def test_integrate_refuses_a_non_finite_entry(self, mesh, name, value):
        system = self._system(mesh, "identity")
        state = _sine_state(system)
        getattr(state, name)[4] = value
        with pytest.raises(InvalidArgumentError,
                           match=f"state field {name} must be finite, got .* at entry 4"):
            integrate(system, state, 0.05, StepControl(dt=0.01))


class TestEnergyBalance:
    @pytest.mark.parametrize("decaying", [False, True])
    @pytest.mark.parametrize("laws", ["identity", "saturating", "hardening"])
    @pytest.mark.parametrize("mesh", ["interval", "rect"])
    def test_midpoint_balance_is_exact(self, mesh, laws, decaying):
        law1, law2 = _LAWS[laws]() if laws in _LAWS else (identity_law(), identity_law())
        schedule = decaying_schedule(1.0, 0.8, 1.0) if decaying else constant_schedule(1.0)
        system = make_system(
            mesh=(geometry.build_interval_mesh(1.0, 21) if mesh == "interval"
                  else geometry.build_rect_mesh(1.0, 1.0, 16, 16)),
            x0=np.array([0.0] if mesh == "interval" else _CORNER),
            law1=law1, law2=law2, schedule=schedule)
        state = _random_state(system, 4, 1.0)
        dt = 0.01
        states = []
        integrate(system, state, state.t + 10 * dt, StepControl(dt=dt),
                  observers=(lambda _, x: states.append(x),))
        defects = _energy_balance_defects(system, states, dt)
        assert len(defects) == 10
        assert np.max(np.abs(defects)) <= 1e-12


def _energy_ratio(mesh, law, amplitude):
    """E(T)/E0 of the reference config at T = 0.2, or of a 16x16 rect, with
    sine data of u0 and v0 amplitudes amplitude and amplitude / 2."""
    cfg = harness.parse_config(ROOT / "configs" / "reference_1d.ini")
    harness.apply_overrides(cfg, T=0.2)
    if mesh == "rect":
        cfg.mesh_kind, cfg.nx, cfg.ny, cfg.x0 = "rect", 16, 16, np.array([-0.1, -0.1])
        cfg.alpha1 = cfg.alpha2 = 0.03
    cfg.law1_name = cfg.law2_name = law
    cfg.u0_amplitude, cfg.v0_amplitude = amplitude, amplitude / 2.0
    mesh_, _, system = harness.build_problem(cfg)
    state0, _ = project_initial_data(system, *harness._initial_fields(cfg, mesh_))
    final = integrate(system, state0, cfg.T, StepControl(dt=cfg.dt))
    return energy(system, final) / energy(system, state0)


class TestSmallData:
    @pytest.mark.parametrize("law", ["identity", "saturating"])
    @pytest.mark.parametrize("mesh", ["interval", "rect"])
    def test_energy_decay_does_not_depend_on_the_data_scale(self, mesh, law):
        # at 1e-14 every first residual is below the absolute Newton
        # tolerance; a step that took no iteration would keep E(T) = E0
        small, large = (_energy_ratio(mesh, law, a) for a in (1e-14, 1e-8))
        assert large < 0.999
        assert small == pytest.approx(large, rel=1e-9)


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

    @pytest.mark.parametrize("T", [np.inf, np.nan])
    def test_non_finite_final_time_rejected(self, T):
        system = make_system(nodes=7)
        with pytest.raises(InvalidArgumentError, match="finite"):
            integrate(system, _sine_state(system), T, StepControl(dt=0.1))

    @pytest.mark.parametrize("t", [np.inf, np.nan])
    def test_non_finite_initial_time_rejected(self, t):
        system = make_system(nodes=7)
        state = _sine_state(system)
        state.t = t
        with pytest.raises(InvalidArgumentError, match="initial time t must be finite"):
            integrate(system, state, 1.0, StepControl(dt=0.1))

    @pytest.mark.parametrize("length", [9, 11, 12])
    @pytest.mark.parametrize("name", ["u", "v", "du", "dv"])
    def test_state_of_the_wrong_length_rejected(self, name, length):
        # 11 nodes, 10 free dofs: 11 is the all-node length of the old state
        system = make_system(nodes=11)
        state = _sine_state(system)
        setattr(state, name, np.zeros(length))
        with pytest.raises(InvalidArgumentError, match=f"{name} has shape \\({length},\\).* 10 free"):
            integrate(system, state, 0.1, StepControl(dt=0.1))

    @pytest.mark.parametrize("mesh", ["interval", "rect"])
    def test_decaying_mu_run_matches_out_of_place_operators(self, mesh, tmp_path, monkeypatch):
        text = _DECAYING_CONFIG + ("kind = interval\nnodes = 21\nx0 = 0.0\n" if mesh == "interval"
                                   else "kind = rect\nnx = 8\nny = 8\nx0 = -0.1 -0.1\n")
        finals = []

        def recording_integrate(*args, **kwargs):
            finals.append(integrate(*args, **kwargs))
            return finals[-1]

        monkeypatch.setattr(harness, "integrate", recording_integrate)
        outputs = []
        for patch in (False, True):
            if patch:
                monkeypatch.setattr(_MidpointSolver, "operators", _out_of_place_operators)
            cfg = harness.parse_config(text=text)
            cfg.out_dir = str(tmp_path / str(patch))
            stream = io.StringIO()
            assert harness.run_simulate(cfg, stream=stream) == harness.EXIT_OK
            trace = Path(cfg.out_dir, "decay_trace.csv").read_bytes()
            state = [getattr(finals[-1], name).tobytes() for name in ("u", "v", "du", "dv")]
            outputs.append((trace, *state, stream.getvalue()))
        assert len(finals) == 2
        assert outputs[0] == outputs[1]

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

    def test_vector_format_is_per_value_repr(self, tmp_path):
        v = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, 1.0 / 3.0, -2.5e17])
        assert timestepper._fmt_vector(v) == " ".join(f"{x:.17g}" for x in v)
        path = tmp_path / "odd.ckpt"
        save_checkpoint(path, SimState(0.25, v, -v, 2.0 * v, v[::-1].copy()))
        back, _ = load_checkpoint(path)
        for name, want in (("u", v), ("v", -v), ("du", 2.0 * v), ("dv", v[::-1])):
            got = getattr(back, name)
            assert np.array_equal(got, want, equal_nan=True)
            num = ~np.isnan(want)  # a nan's sign is not written
            assert np.array_equal(np.signbit(got[num]), np.signbit(want[num]))

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_text("something else\n")
        with pytest.raises(InvalidArgumentError):
            load_checkpoint(path)

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_time(self, tmp_path, t):
        path = tmp_path / "odd_t.ckpt"
        save_checkpoint(path, SimState(0.0, *(np.zeros(3) for _ in range(4))))
        path.write_text(path.read_text().replace("t 0\n", f"t {t}\n"))
        with pytest.raises(InvalidArgumentError, match="t must be finite"):
            load_checkpoint(path)

    def test_rejects_truncated_file(self, tmp_path):
        path = tmp_path / "short.ckpt"
        path.write_text(timestepper.CHECKPOINT_HEADER + "\nconfig x\nt 0\n")
        with pytest.raises(InvalidArgumentError):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, old, new", [
        ("nodes", "nodes 3", "nodes three"),
        ("nodes", "nodes 3", "nodes 3.0"),
        ("u", "u 0 0 0", "u 0 x 0"),
        ("dv", "dv 0 0 0", "dv 0 0 1,5"),
    ])
    def test_rejects_malformed_value(self, tmp_path, field, old, new):
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, SimState(0.0, *(np.zeros(3) for _ in range(4))))
        path.write_text(path.read_text().replace(f"\n{old}\n", f"\n{new}\n"))
        with pytest.raises(InvalidArgumentError, match=f"field {field} is malformed"):
            load_checkpoint(path)

    def test_rejects_a_v1_file(self, tmp_path):
        # v1 held every node; a v2 file holds the free dofs
        path = tmp_path / "old.ckpt"
        save_checkpoint(path, SimState(0.0, *(np.zeros(3) for _ in range(4))))
        body = path.read_text()
        assert body.startswith("# beamstab checkpoint v2\n")
        path.write_text(body.replace("v2", "v1", 1))
        with pytest.raises(InvalidArgumentError, match="not a checkpoint file"):
            load_checkpoint(path)
