import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamstab import diagnostics as diag
from beamstab import geometry, harness
from beamstab.admissibility import constant_schedule, decaying_schedule
from beamstab.discretization import SimState, column_dot, interpolate
from beamstab.errors import ConfigError, FitUndefinedError, InvalidArgumentError
from beamstab.feedback import saturating_law
from beamstab.fields import (bump_field, linear_field, quadratic_field,
                             sine_field, zero_field)
from beamstab.timestepper import StepControl, integrate

from conftest import boundary_faces, grid_cells, make_conservative_system, make_system


def _zero_state(system, t=0.0):
    n = len(system.free)
    return SimState(t, *(np.zeros(n) for _ in range(4)))


class TestEnergy:
    def test_zero_state(self):
        system = make_system(nodes=7)
        assert diag.energy(system, _zero_state(system)) == 0.0

    def test_unit_velocity_mass_identity(self):
        # u = v = dv = 0, du = 1 off Gamma0 (x = 0): E = 1/2 |chi|^2 for chi
        # the interpolant of 1 vanishing at 0, = (|domain| - 2h/3)/2, h = 1/12
        system = make_system(nodes=13)
        state = _zero_state(system)
        state.du = np.ones(len(system.free))
        assert diag.energy(system, state) == pytest.approx(0.5 * (1.0 - 1.0 / 18.0), abs=1e-14)

    def test_hand_quadratic_form(self):
        system = make_system(nodes=3, alpha1=0.2, alpha2=0.1)
        state = _zero_state(system)
        state.u = np.array([1.0, 2.0])  # the free nodes x = 1/2 and x = 1
        state.dv = np.array([0.0, 1.0])
        K = system.stiffness.toarray()
        M = system.mass.toarray()
        expected = 0.5 * (state.u @ K @ state.u + 2.0 * state.dv @ M @ state.dv)
        assert diag.energy(system, state) == pytest.approx(expected, rel=1e-14)


class TestFunctionalF:
    def test_constant_v_has_zero_coupling(self):
        # v = 1 off Gamma0 (x = 0) is constant on every cell but the first,
        # where u vanishes
        system = make_system(nodes=9)
        state = _zero_state(system)
        state.u = np.linspace(0, 1, 9)[1:]
        state.u[0] = 0.0
        state.v = np.ones(8)
        assert diag.functional_F(system, state) == pytest.approx(0.0, abs=1e-14)

    def test_zero_u(self):
        system = make_system(nodes=9)
        state = _zero_state(system)
        state.v = np.linspace(0, 1, 9)[1:] ** 2
        assert diag.functional_F(system, state) == 0.0

    def test_hand_value(self):
        # u = x, v = x on [0,1]: F = alpha1 * int v' u = alpha1 * 1/2
        system = make_system(nodes=5, alpha1=0.3)
        x = system.mesh.nodes[system.free, 0]
        state = _zero_state(system)
        state.u = x.copy()
        state.v = x.copy()
        assert diag.functional_F(system, state) == pytest.approx(0.15, rel=1e-13)


class TestFunctionalG:
    def test_zero_velocities(self):
        system = make_system(nodes=9)
        state = _zero_state(system)
        state.u = np.linspace(0, 1, 9)[1:]
        assert diag.functional_G(system, state) == 0.0

    def test_closed_form_1d(self):
        # n = 1 kills the (n-1) terms; u = x and u' = chi, 1 off Gamma0 (x = 0)
        # and x/h on the first cell: G = 2 (u', m.grad u) = 2 int_0^1 chi x dx
        # = 1 - h^2/3, h = 1/16
        system = make_system(nodes=17)
        state = _zero_state(system)
        state.u = system.mesh.nodes[system.free, 0].copy()
        state.du = np.ones(len(system.free))
        assert diag.functional_G(system, state) == pytest.approx(1.0 - 1.0 / 768.0, rel=1e-13)

    def test_alternate_reference_point(self):
        # same fields, x0 = -1: m = x + 1, G = 2 int chi (x+1) dx = 3 - h - h^2/3
        system = make_system(nodes=17, x0=-1.0)
        state = _zero_state(system)
        state.u = system.mesh.nodes[system.free, 0].copy()
        state.du = np.ones(len(system.free))
        assert diag.functional_G(system, state) == pytest.approx(
            3.0 - 1.0 / 16.0 - 1.0 / 768.0, rel=1e-13)


def _one_sample_slacks(E, F, G, **metadata):
    """EnergyTrace.slacks of a single sample with the given E, F, G."""
    z = np.zeros(1)
    trace = diag.EnergyTrace(z, np.array([E]), np.array([F]), np.array([G]), *[z] * 3,
                             metadata=metadata)
    return {k: float(v[0]) for k, v in trace.slacks().items()}


class TestSandwich:
    def test_zero_state_slacks_vanish(self):
        out = _one_sample_slacks(0.0, 0.0, 0.0, eps1=0.1, A=8.0, alpha1=0.1, alpha2=0.1,
                                 n=1, M=0.64, mu0=1.0)
        assert all(v == 0.0 for v in out.values())

    def test_slack_signs_on_admissible_sample(self):
        out = _one_sample_slacks(E=1.0, F=0.05, G=2.0, eps1=1 / 32, A=8.0,
                                 alpha1=0.1, alpha2=0.1, n=1, M=0.6366, mu0=1.0)
        assert all(v >= -1e-12 for v in out.values())


class TestBoundaryDissipation:
    def test_zero_trace(self):
        system = make_system(nodes=7)
        out = diag.boundary_dissipation(system, _zero_state(system))
        assert out["D_u"] == 0.0 and out["D_v"] == 0.0

    def test_identity_law_point_value(self):
        # single feedback point, weight 1, m.nu = 1, s = 2 -> D_u = 4 mu
        system = make_system(nodes=7)
        state = _zero_state(system)
        state.du[-1] = 2.0
        out = diag.boundary_dissipation(system, state)
        assert out["D_u"] == pytest.approx(4.0 * system.schedule.mu(0.0))

    @given(s=st.floats(min_value=-10, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_monotonicity_floor(self, s):
        system = make_system(nodes=7)
        state = _zero_state(system)
        state.du[-1] = s
        out = diag.boundary_dissipation(system, state)
        floor = (system.schedule.mu0 * system.law1.b
                 * system.boundary_integral((system.trace @ state.du) ** 2))
        assert out["D_u"] >= floor - 1e-12 * max(1.0, abs(floor))


class TestEnergyBalance:
    def test_single_sample_trace(self):
        system = make_system(nodes=7)
        rec = diag.TraceRecorder(system)
        rec(system, _zero_state(system))
        assert len(diag.energy_balance_residuals(rec.trace())) == 0

    def test_conservative_residual_tiny(self):
        system = make_conservative_system(nodes=11)
        u = interpolate(system, sine_field(system.mesh))
        state = SimState(0.0, u, np.zeros_like(u), np.zeros_like(u), np.zeros_like(u))
        rec = diag.TraceRecorder(system)
        integrate(system, state, 0.5, StepControl(dt=0.005), observers=(rec,))
        res = diag.energy_balance_residuals(rec.trace())
        assert np.max(np.abs(res)) <= 1e-10

    def test_dissipative_residual_shrinks_with_refinement(self):
        # compatible initial data (bump vanishes with its normal derivative on
        # the boundary) so no initial transient pollutes the first interval
        maxima = []
        for nodes, dt in ((11, 0.01), (21, 0.005)):
            system = make_system(nodes=nodes)
            u = interpolate(system, bump_field(system.mesh, 16.0))
            state = SimState(0.0, u, 0.5 * u, np.zeros_like(u), np.zeros_like(u))
            rec = diag.TraceRecorder(system)
            integrate(system, state, 0.5, StepControl(dt=dt), observers=(rec,))
            maxima.append(np.max(np.abs(diag.energy_balance_residuals(rec.trace()))))
        assert maxima[1] < maxima[0] / 2 ** 0.9  # at least first order


    def test_recorded_trace_matches_its_columns(self):
        system = make_system(nodes=11)
        u = interpolate(system, sine_field(system.mesh))
        rec = diag.TraceRecorder(system)
        integrate(system, SimState(0.0, u, 0.5 * u, 0 * u, 0 * u), 0.2,
                  StepControl(dt=0.01), observers=(rec,))
        tr = rec.trace()
        source = tr.mu_prime_term - tr.D_u - tr.D_v
        want = np.diff(tr.E + tr.F) / np.diff(tr.t) - 0.5 * (source[1:] + source[:-1])
        assert np.array_equal(diag.energy_balance_residuals(tr), want)


def _rellich_boundary_loop(mesh, fld, x0):
    """Oracle: the boundary side of rellich_check, -int (m.nu)|grad u|^2 +
    2 int (du/dnu)(m.grad u), one face and quadrature point at a time; and
    the sum of the absolute terms, for the rounding allowance."""
    total, scale = 0.0, 0.0
    faces = boundary_faces(mesh)
    for nu, points, weights in zip(faces.normal, faces.quad_points, faces.quad_weights):
        for p, wq in zip(points, weights):
            g = np.asarray(fld.grad(p[None, :]), dtype=float)[0]
            m = p - x0
            terms = (-wq * np.dot(m, nu) * np.dot(g, g), 2.0 * wq * np.dot(g, nu) * np.dot(m, g))
            total += sum(terms)
            scale += sum(abs(t) for t in terms)
    return total, scale


def _rellich_interior_quadrature(mesh, fld, x0):
    """Oracle: the interior side of rellich_check by a 4-point tensor Gauss
    rule on every cell, with the analytic Laplacian at the points and the
    interpolant's gradient; returns (int lap m.grad u_h, int |grad u_h|^2)."""
    g, gw = np.polynomial.legendre.leggauss(4)
    g, gw = 0.5 * (g + 1.0), 0.5 * gw
    dim = mesh.dimension
    u = np.asarray(fld.value(mesh.nodes), dtype=float)
    pair = grad_sq = 0.0
    for cell in grid_cells(mesh):
        corners = mesh.nodes[cell]
        lo = corners.min(axis=0)
        size = corners.max(axis=0) - lo
        upper = (corners - lo) / size == 1.0  # (nloc, dim): corner at the upper end
        for q in itertools.product(range(4), repeat=dim):
            ref = g[list(q)]
            w = np.prod(gw[list(q)]) * np.prod(size)
            hat = np.where(upper, ref, 1.0 - ref)
            dhat = np.where(upper, 1.0, -1.0) / size
            grad = np.stack([dhat[:, d] * np.prod(np.delete(hat, d, axis=1), axis=1)
                             for d in range(dim)], axis=1)  # (nloc, dim)
            x = lo + ref * size
            uh_grad = grad.T @ u[cell]
            lap = float(np.asarray(fld.laplacian(x[None, :]), dtype=float)[0])
            pair += w * lap * np.dot(x - x0, uh_grad)
            grad_sq += w * np.dot(uh_grad, uh_grad)
    return pair, grad_sq


class TestRellich:
    @pytest.mark.parametrize("mesh, x0", [
        (geometry.build_rect_mesh(1.3, 0.7, 5, 3), np.array([-0.2, 0.31])),
        (geometry.build_rect_mesh(0.6, 1.7, 4, 6), np.array([0.9, -0.45])),
    ])
    def test_boundary_terms_equal_face_loop(self, mesh, x0):
        # n = 2: the interior term (n - 2) |grad u|^2 drops out of rhs
        for fld in (sine_field(mesh), bump_field(mesh)):
            want, scale = _rellich_boundary_loop(mesh, fld, x0)
            got = diag.rellich_check(mesh, fld, x0)["rhs"]
            assert abs(got - want) <= 1e-14 * scale

    def test_linear_field_exact(self):
        mesh = geometry.build_interval_mesh(1.0, 11)
        out = diag.rellich_check(mesh, linear_field(mesh), [0.0])
        assert out["lhs_printed"] == pytest.approx(0.0, abs=1e-14)
        assert out["mismatch_standard"] == pytest.approx(0.0, abs=1e-13)

    def test_zero_field(self):
        mesh = geometry.build_interval_mesh(1.0, 5)
        out = diag.rellich_check(mesh, zero_field(mesh), [0.0])
        assert out["lhs_standard"] == 0.0 and out["rhs"] == 0.0

    def test_quadratic_1d_closed_form(self):
        # interpolant gradient makes the standard-form mismatch exactly -h^2
        for nodes in (11, 21):
            mesh = geometry.build_interval_mesh(1.0, nodes)
            h = 1.0 / (nodes - 1)
            out = diag.rellich_check(mesh, quadratic_field(mesh), [0.0])
            assert out["mismatch_standard"] == pytest.approx(-h * h, rel=1e-10)

    @pytest.mark.parametrize("mesh, x0", [
        (geometry.build_interval_mesh(1.0, 11), np.array([0.0])),
        (geometry.build_interval_mesh(1.7, 8), np.array([-0.35])),
        (geometry.build_rect_mesh(1.3, 0.7, 5, 3), np.array([-0.2, 0.31])),
        (geometry.build_rect_mesh(1.0, 1.0, 8, 8), np.array([0.0, 0.0])),
    ])
    def test_interior_terms_equal_element_quadrature(self, mesh, x0):
        # the Laplacian of these fields is constant, so its interpolant is exact
        n = mesh.dimension
        for fld in (quadratic_field(mesh), linear_field(mesh), zero_field(mesh)):
            pair, grad_sq = _rellich_interior_quadrature(mesh, fld, x0)
            boundary, _ = _rellich_boundary_loop(mesh, fld, x0)
            out = diag.rellich_check(mesh, fld, x0)
            assert abs(out["lhs_printed"] - pair) <= 1e-13
            assert abs(out["rhs"] - ((n - 2) * grad_sq + boundary)) <= 1e-13

    def test_2d_sine_second_order(self):
        # x0 off the corner: at x0 = (0, 0) this mismatch measured order 4
        mismatches = []
        for n in (8, 16, 32):
            mesh = geometry.build_rect_mesh(1.0, 1.0, n, n)
            out = diag.rellich_check(mesh, sine_field(mesh), [-0.1, -0.1])
            mismatches.append(abs(out["mismatch_standard"]))
        orders = diag.observed_orders(mismatches)
        assert np.all(np.abs(orders - 2.0) <= 0.3)

    def test_2d_second_order(self):
        mismatches = []
        for n in (8, 16, 32):
            mesh = geometry.build_rect_mesh(1.0, 1.0, n, n)
            out = diag.rellich_check(mesh, quadratic_field(mesh), [0.0, 0.0])
            mismatches.append(abs(out["mismatch_standard"]))
        orders = diag.observed_orders(mismatches)
        assert np.all(np.abs(orders - 2.0) <= 0.3)


class TestFitDecayRate:
    def _synthetic(self, rate=0.4, E0=5.0, T=10.0, dt=0.1):
        t = np.arange(0.0, T + dt / 2, dt)
        E = E0 * np.exp(-rate * t)
        z = np.zeros_like(t)
        return diag.EnergyTrace(t, E, z, z, z, z, z)

    def test_exact_exponential(self):
        fit = diag.fit_decay_rate(self._synthetic())
        assert fit.rate == pytest.approx(0.4, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_energy(self):
        trace = self._synthetic(rate=0.0)
        assert diag.fit_decay_rate(trace).rate == pytest.approx(0.0, abs=1e-12)

    def test_default_window_skips_transient(self):
        trace = self._synthetic(T=10.0)
        fit = diag.fit_decay_rate(trace)
        assert fit.rate == pytest.approx(0.4, abs=1e-10)

    def test_nonpositive_energy_rejected(self):
        trace = self._synthetic()
        trace.E[-1] = 0.0
        with pytest.raises(FitUndefinedError):
            diag.fit_decay_rate(trace, window=(trace.t[0], trace.t[-1]))

    def test_empty_window_rejected(self):
        with pytest.raises(FitUndefinedError):
            diag.fit_decay_rate(self._synthetic(), window=(100.0, 101.0))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_energy_in_window_rejected(self, value):
        trace = self._synthetic()
        kept, trace.E[-5] = trace.E[-5], value
        with pytest.raises(FitUndefinedError, match="non-finite energy"):
            diag.fit_decay_rate(trace)
        trace.E[-5], trace.E[3] = kept, value  # E[3] is outside the window [0.2 T, T]
        assert diag.fit_decay_rate(trace).rate == pytest.approx(0.4, abs=1e-10)


class TestTraceValidation:
    def test_times_must_increase(self):
        t = np.array([0.0, 0.0])
        z = np.zeros(2)
        with pytest.raises(InvalidArgumentError):
            diag.EnergyTrace(t, z, z, z, z, z, z)

    @pytest.mark.parametrize("times", [[0.0, np.nan, 2.0], [np.nan, 1.0, 2.0],
                                       [0.0, 1.0, np.nan], [0.0, 1.0, np.inf],
                                       [-np.inf, 1.0, 2.0]])
    def test_times_must_be_finite(self, times):
        z = np.zeros(3)
        with pytest.raises(InvalidArgumentError, match="finite and strictly increasing"):
            diag.EnergyTrace(np.array(times), z, z, z, z, z, z)

    def test_energy_must_be_nonnegative(self):
        t = np.array([0.0, 1.0])
        z = np.zeros(2)
        with pytest.raises(InvalidArgumentError):
            diag.EnergyTrace(t, z - 1.0, z, z, z, z, z)

    def test_negative_energy_tolerance_is_relative_to_E0(self):
        t = np.array([0.0, 1.0, 2.0])
        z = np.zeros(3)
        # rounding-sized dips pass at any scale of E0
        for E0 in (1e-20, 1.0, 1e8):
            diag.EnergyTrace(t, np.array([E0, 0.5 * E0, -1e-16 * E0]), z, z, z, z, z)
        # a clearly negative energy is refused also where it is tiny in absolute terms
        for E0 in (1e-20, 1.0):
            with pytest.raises(InvalidArgumentError, match="negative energy"):
                diag.EnergyTrace(t, np.array([E0, 0.5 * E0, -1e-6 * E0]), z, z, z, z, z)


TRACE_FIELDS = ("t", "E", "F", "G", "lyapunov", "D_u", "D_v", "mu_prime_term")


def _oracle_columns(system, states, eps1=None):
    """The TRACE_FIELDS columns, one state at a time, from the operators directly.

    Each form a' A b is taken as column_dot(a, A b), the recorder's
    association and summation order: F and G can nearly cancel, and
    (a' A) b or a BLAS dot rounds differently by more than 1e-13 of such a
    column's scale (one 6x6 rect sample: G = 2.8e-3 from terms of 0.4,
    3e-16 apart)."""
    M, K, C, X, T = (system.mass, system.stiffness, system.coupling, system.multiplier,
                     system.trace)
    wmn = system.trace_wmn
    a1, ratio = system.alpha1, system.alpha_ratio
    n = system.mesh.dimension
    dot = column_dot
    rows = []
    for st_ in states:
        u, v, du, dv = st_.u, st_.v, st_.du, st_.dv
        mu = float(system.schedule.mu(st_.t))
        E = 0.5 * (dot(du, M @ du) + ratio * dot(dv, M @ dv) + mu * dot(u, K @ u)
                   + ratio * dot(v, K @ v))
        F = a1 * dot(u, C @ v)
        G = (n - 1) * (dot(u, M @ du) + dot(v, M @ dv)) + 2.0 * (dot(du, X @ u) + dot(dv, X @ v))
        su, sv = T @ du, T @ dv
        pu, pv = system.law1(su), system.law2(sv)
        rows.append((
            st_.t, E, F, G, E + F + eps1 * G if eps1 is not None else np.nan,
            mu * np.sum(wmn * pu * su), ratio * np.sum(wmn * pv * sv),
            float(system.schedule.mu_prime(st_.t)) / 2.0 * dot(u, K @ u)))
    return np.array(rows).T


def _assert_trace_matches(trace, want, rtol=1e-13):
    for name, w in zip(TRACE_FIELDS, want):
        got = trace.lyapunov() if name == "lyapunov" else getattr(trace, name)
        assert got.shape == w.shape, name
        if np.all(np.isnan(w)):
            assert np.all(np.isnan(got)), name
            continue
        scale = float(np.max(np.abs(w)))
        assert np.max(np.abs(got - w)) <= rtol * scale, name


def _random_states(system, count, seed, amplitude=1.0):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.01, 0.1, count))
    return [SimState(float(t), *(amplitude * rng.standard_normal(len(system.free))
                                 for _ in range(4))) for t in times]


def _recorded(system, states, **kwargs):
    rec = diag.TraceRecorder(system, **kwargs)
    for st_ in states:
        rec(system, st_)
    return rec


class TestChunkedRecorder:
    @given(mesh=st.sampled_from(["interval", "rect"]), decaying=st.booleans(),
           saturating=st.booleans(), eps1=st.sampled_from([None, 0.03]),
           count=st.integers(min_value=1, max_value=200),
           amplitude=st.floats(min_value=0.1, max_value=5.0),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    # one 6x6 rect sample whose G (seed 945) or F (seed 1473) nearly cancels: a
    # (u' A) v oracle missed 1e-13 of the column scale on both
    @example(mesh="rect", decaying=False, saturating=False, eps1=None, count=1,
             amplitude=1.0, seed=945)
    @example(mesh="rect", decaying=False, saturating=False, eps1=None, count=1,
             amplitude=1.0, seed=1473)
    def test_matches_one_state_at_a_time(self, mesh, decaying, saturating, eps1, count,
                                         amplitude, seed):
        laws = {}
        if saturating:
            laws = {"law1": saturating_law(1.0, 2.0), "law2": saturating_law(0.5, 4.0)}
        schedule = decaying_schedule(1.0, 0.8, 10.0) if decaying else constant_schedule(1.0)
        if mesh == "interval":
            system = make_system(nodes=9, schedule=schedule, **laws)
        else:  # 6x6 rect, 36 free dofs: one chunk holds 113 states, so larger counts
            # cross a boundary
            system = make_system(mesh=geometry.build_rect_mesh(1.0, 1.0, 6, 6),
                                 x0=np.array([-0.1, -0.1]), schedule=schedule, **laws)
        states = _random_states(system, count, seed, amplitude)
        metadata = {} if eps1 is None else {"eps1": eps1}
        trace = _recorded(system, states, metadata=metadata).trace()
        _assert_trace_matches(trace, _oracle_columns(system, states, eps1))

    @pytest.mark.parametrize("count", [1, 39, 40, 41, 127])
    def test_chunk_boundaries(self, count):
        system = make_system(nodes=201)
        assert diag.TraceRecorder(system).chunk == 20  # 128 KiB of states, 200 free dofs
        states = _random_states(system, count, seed=count)
        _assert_trace_matches(_recorded(system, states).trace(),
                              _oracle_columns(system, states))

    @pytest.mark.parametrize("fit, chunk", [(1, 1), (2, 1), (3, 3), (20, 20)])
    def test_chunk_of_two_states_holds_one(self, fit, chunk, monkeypatch):
        # two columns cost more per sample than one on 38x38 to 45x45 rects
        system = make_system(nodes=11)  # 10 free dofs
        monkeypatch.setattr(diag, "CHUNK_BYTES", fit * 8 * 4 * 10 + 7)
        assert diag.TraceRecorder(system).chunk == chunk

    def test_state_copied_at_call(self):
        system = make_system(nodes=11)
        states = _random_states(system, 2, seed=5)
        rec = diag.TraceRecorder(system)
        state = states[0].copy()
        rec(system, state)
        state.t = 99.0
        for name in ("u", "v", "du", "dv"):
            getattr(state, name)[:] = 7.0
        rec(system, states[1])
        _assert_trace_matches(rec.trace(), _oracle_columns(system, states))

    def test_repeated_trace_calls(self):
        system = make_system(nodes=201)
        states = _random_states(system, 95, seed=3)
        rec = diag.TraceRecorder(system)
        first = _recorded(system, states[:45]).trace()
        for st_ in states[:45]:
            rec(system, st_)
        mid = rec.trace()
        for st_ in states[45:]:
            rec(system, st_)
        again = rec.trace()
        _assert_trace_matches(mid, _oracle_columns(system, states[:45]))
        _assert_trace_matches(again, _oracle_columns(system, states))
        # a trace() mid-run does not change what the recorder evaluates later
        assert np.array_equal(mid.E, first.E)
        assert np.array_equal(again.E, _recorded(system, states).trace().E)

    def test_buffer_within_budget(self):
        for mesh in (geometry.build_interval_mesh(1.0, 201),
                     geometry.build_rect_mesh(1.0, 1.0, 64, 64)):
            system = make_system(mesh=mesh, x0=np.full(mesh.dimension, -0.1))
            rec = diag.TraceRecorder(system)
            assert rec._states.nbytes <= diag.CHUNK_BYTES
        assert rec.chunk == 1  # 4 096 free dofs: one state per chunk

    def test_sample_allocates_no_product_arrays(self, monkeypatch):
        # one state per chunk, as from 64x64 up: after the first chunk a
        # sample's traced peak measured 0.71-0.78 vectors of nf float64 (the
        # boundary law values and the (1,) columns); the bound leaves 1.2 of
        # margin
        monkeypatch.setattr(diag, "CHUNK_BYTES", 1)
        mesh = geometry.build_rect_mesh(1.0, 1.0, 32, 32)
        system = make_system(mesh=mesh, x0=np.array([-0.1, -0.1]),
                             law1=saturating_law(1.0, 2.0), law2=saturating_law(0.5, 4.0))
        rec = diag.TraceRecorder(system)
        assert rec.chunk == 1
        first, *rest = _random_states(system, 3, seed=4)
        rec(system, first)
        for st_ in rest:
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                rec(system, st_)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            assert peak <= 2 * (len(system.free) * 8)


class TestTraceOutput:
    def _run_trace(self, T=0.2):
        system = make_system(nodes=11)
        u = interpolate(system, sine_field(system.mesh))
        state = SimState(0.0, u, 0.5 * u, np.zeros_like(u), np.zeros_like(u))
        rec = diag.TraceRecorder(system, metadata={"eta": 1 / 32, "eps1": 1 / 32,
                                                   "A": 8.0, "M": 0.6366, "mu0": 1.0,
                                                   "alpha1": 0.1, "alpha2": 0.1, "n": 1})
        integrate(system, state, T, StepControl(dt=0.01), observers=(rec,))
        return rec.trace()

    def test_csv_columns_and_precision(self, tmp_path):
        trace = self._run_trace()
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].split(",") == list(diag.TRACE_COLUMNS)
        first = dict(zip(diag.TRACE_COLUMNS, lines[1].split(",")))
        assert float(first["t"]) == 0.0
        assert float(first["E"]) == trace.E[0]  # 17 significant digits round-trip

    def test_csv_rows_match_per_value_formatting(self, tmp_path, monkeypatch):
        monkeypatch.setattr(diag, "CSV_BLOCK_ROWS", 3)  # rows span several blocks
        specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, -2.5e17, 1.0 / 3.0])
        t = np.arange(len(specials), dtype=float)
        E = np.abs(np.where(np.isfinite(specials), specials, 1.0)) + 1.0
        trace = diag.EnergyTrace(t, E, specials, specials[::-1], specials, specials[::-1],
                                 specials, metadata={"eps1": -1.0 / 3.0})
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        sl = trace.slacks()
        cols = [trace.t, trace.E, trace.F, trace.G, trace.lyapunov(), trace.D_u, trace.D_v,
                trace.envelope(), sl["slack_sandwich_lo"],
                sl["slack_sandwich_hi"], sl["slack_G"], sl["slack_F"]]
        want = ",".join(diag.TRACE_COLUMNS) + "\n" + "".join(
            ",".join(f"{v:.17g}" for v in row) + "\n" for row in zip(*cols))
        got = path.read_bytes()
        assert got == want.encode()
        assert b"nan" in got and b"inf" in got and b"-0," in got

    def test_envelope_column(self):
        trace = self._run_trace()
        env = trace.envelope()
        assert env[0] == pytest.approx(3.0 * trace.E0)
        assert np.all(np.diff(env) < 0)

    def test_svg_plot(self, tmp_path):
        trace = self._run_trace()
        path = tmp_path / "plot.svg"
        trace.write_svg(path)
        body = path.read_text()
        assert body.startswith("<svg") and "polyline" in body


# coef of the F bound: 2 sqrt(0.1 * 0.1 * 1 / 1) * 1 = 0.2
_CERTIFIED = {"eta": 0.01, "eps1": 0.05, "A": 9.0, "alpha1": 0.1, "alpha2": 0.1,
              "n": 1, "M": 1.0, "mu0": 1.0}


def _violating_trace(scale=1.0, metadata=_CERTIFIED):
    """Six samples: one within every bound, then one E above the envelope and
    one breaking each slack (sandwich lo, sandwich hi, G, F), all others kept."""
    E = np.array([1.0, 4.0, 1.0, 1.0, 1.0, 1.0])
    F = np.array([0.0, 0.0, -0.15, 0.15, -0.15, 0.3])
    G = np.array([0.0, 0.0, -8.0, 8.0, 9.5, 0.0])
    z = np.zeros(len(E))
    return diag.EnergyTrace(np.arange(len(E), dtype=float), scale * E, scale * F, scale * G,
                            z, z, z, metadata=dict(metadata))


class TestTraceRecord:
    def test_csv_round_trip_is_bit_exact(self, tmp_path):
        specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, -2.5e17, 1.0 / 3.0])
        t = np.arange(len(specials), dtype=float) / 3.0
        E = np.array([1.0, -0.0, np.inf, np.nan, 0.0, 1e-300, 2.5e17, 1.0 / 7.0])
        columns = dict(t=t, E=E, F=specials, G=specials[::-1],
                       D_u=np.roll(specials, 3), D_v=np.roll(specials, 5))
        trace = diag.EnergyTrace(**columns, mu_prime_term=specials)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        back = diag.read_trace_csv(path)
        for name, want in columns.items():
            assert getattr(back, name).tobytes() == want.tobytes(), name
        assert np.all(np.isnan(back.mu_prime_term))
        assert len(back.mu_prime_term) == len(t)

    def test_certified_trace_reads_back_its_recorded_columns(self, tmp_path):
        path = tmp_path / "trace.csv"
        trace = _violating_trace()
        trace.write_csv(path)
        header = path.read_text().splitlines()[0].split(",")
        assert header == list(diag.TRACE_COLUMNS)
        back = diag.read_trace_csv(path)
        for name in ("t", "E", "F", "G"):
            assert getattr(back, name).tobytes() == getattr(trace, name).tobytes(), name
        assert back.metadata == {}

    def test_foreign_header_is_refused(self, tmp_path):
        path = tmp_path / "trace.csv"
        _violating_trace().write_csv(path)
        lines = path.read_text().splitlines()
        lines[0] = ",".join(f"c{k}" for k in range(len(diag.TRACE_COLUMNS)))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="not a trace CSV"):
            diag.read_trace_csv(path)

    def test_recorded_columns_are_read_by_name(self, tmp_path, capsys):
        system = make_system(nodes=11)
        u = interpolate(system, sine_field(system.mesh))
        rec = diag.TraceRecorder(system, metadata={"eps1": 1 / 32})
        integrate(system, SimState(0.0, u, 0.5 * u, 0 * u, 0 * u), 0.2,
                  StepControl(dt=0.01), observers=(rec,))
        trace = rec.trace()
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        rows = [ln.split(",") for ln in path.read_text().splitlines()]
        # the recorded lyapunov is E + F + eps1 G of the columns read back
        back = diag.read_trace_csv(path)
        assert np.array([float(r[4]) for r in rows[1:]]).tobytes() == \
            back.lyapunov(1 / 32).tobytes()

        def write(name, cells):
            out = tmp_path / name
            out.write_text("".join(",".join(r) + "\n" for r in cells))
            return out

        # the 13-column format that also stored E_star, as column 8
        old = write("old.csv", [r[:7] + ["E_star" if k == 0 else f"{0.5 * k:.17g}"] + r[7:]
                                for k, r in enumerate(rows)])
        assert old.read_text().splitlines()[0].split(",")[7] == "E_star"
        back_old = diag.read_trace_csv(old)
        for name in ("t", "E", "F", "G", "D_u", "D_v"):
            want = getattr(trace, name).tobytes()
            assert getattr(back, name).tobytes() == want, name
            assert getattr(back_old, name).tobytes() == want, name
        fits = []
        for csv in (path, old):
            assert harness.main(["fit", str(csv)]) == 0
            fits.append(capsys.readouterr().out)
        assert fits[0] == fits[1] and fits[0].startswith("rate ")

        no_dv = write("no_dv.csv", [r[:6] + r[7:] for r in rows])
        with pytest.raises(ConfigError, match="no column 'D_v'"):
            diag.read_trace_csv(no_dv)

    def test_bound_violations_counts_each_bound(self):
        trace = _violating_trace()
        assert trace.bound_violations() == 5
        env = trace.envelope()
        assert np.flatnonzero(trace.E > env).tolist() == [1]
        negative = {name: np.flatnonzero(sl < 0).tolist() for name, sl in trace.slacks().items()}
        assert negative == {"slack_sandwich_lo": [2], "slack_sandwich_hi": [3],
                            "slack_G": [4], "slack_F": [5]}

    def test_uncertified_trace_counts_none(self):
        assert _violating_trace(metadata={}).bound_violations() == 0

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-12])
    def test_slack_rule_is_relative_to_E0(self, scale):
        assert _violating_trace(scale).bound_violations() == 5
        # a rounding-sized dip of a slack, 1e-13 E0, is no violation at any scale
        E = np.array([1.0, 1.0]) * scale
        G = np.array([0.0, 9.0 + 1e-13]) * scale
        z = np.zeros(2)
        dip = diag.EnergyTrace(np.array([0.0, 1.0]), E, z, G, z, z, z,
                               metadata=dict(_CERTIFIED, eps1=0.0))
        assert dip.slacks()["slack_G"][1] < 0
        assert dip.bound_violations() == 0
