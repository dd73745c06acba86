import io
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from beamstab import _fem, geometry, harness
from beamstab.admissibility import build_report, constant_schedule, decaying_schedule
from beamstab.discretization import (SimState, StateBlock, assemble, compatibility_residuals,
                                     interpolate, project_initial_data, rhs)
from beamstab.feedback import CATALOG, saturating_law
from beamstab.fields import Field, linear_field, make_field, sine_field

from conftest import (boundary_faces, gamma1_faces, gamma1_point_data, layout_blocks,
                      make_conservative_system, make_system, sigma_form, trace_loop_oracle)

REFERENCE = Path(__file__).resolve().parent.parent / "configs" / "reference_1d.ini"


def _reference_cfg(data, amplitude, mesh="interval"):
    """The reference config with u0 and v0 of one preset at amplitudes
    amplitude and amplitude / 2, or the same on a 16x16 rect."""
    cfg = harness.parse_config(REFERENCE)
    if mesh == "rect":
        cfg.mesh_kind, cfg.nx, cfg.ny, cfg.x0 = "rect", 16, 16, np.array([-0.1, -0.1])
        cfg.alpha1 = cfg.alpha2 = 0.03
    cfg.u0 = cfg.v0 = data
    cfg.u0_amplitude, cfg.v0_amplitude = amplitude, amplitude / 2.0
    return cfg


def _project(cfg, caplog):
    """project_initial_data on the config's problem, and whether it warned."""
    caplog.clear()
    mesh, _, system = harness.build_problem(cfg)
    with caplog.at_level("WARNING"):
        _, info = project_initial_data(system, *harness._initial_fields(cfg, mesh))
    return info, any("compatibility" in rec.message for rec in caplog.records)


def _sum_nu_form(system):
    """int_Gamma (sum_i nu_i) phi_j phi_k over every boundary face, on the
    free dofs."""
    faces = boundary_faces(system.mesh)
    T, w, _ = trace_loop_oracle(system.mesh, faces)
    sum_nu = np.repeat(faces.normal.sum(axis=1), faces.quad_weights.shape[1])
    return _fem.trace_form(T[:, system.free], w * sum_nu)


def _check_against_all_node_forms(system, seed):
    """rhs at a random state of the seed against a dense oracle: the
    free-dof accelerations are those of the all-node forms on the state
    extended by 0 on Gamma0, solved with the Gamma0 rows and columns
    removed, so the clamped nodes stay clamped.  mu = 1, identity laws."""
    f = system.free
    rng = np.random.default_rng(seed)
    u, v, du, dv = (rng.standard_normal(len(f)) for _ in range(4))
    d2u, d2v = rhs(system, SimState(0.0, u, v, du, dv))
    mats = _fem.domain_matrices(system.mesh)
    K, C, M = (mats[name].toarray()[np.ix_(f, f)] for name in ("stiffness", "coupling", "mass"))
    T, w, _ = trace_loop_oracle(system.mesh, gamma1_faces(system.mesh, system.partition))
    per_point = gamma1_point_data(system.partition)
    B = _fem.trace_form(T, w * per_point["m_dot_nu"]).toarray()[np.ix_(f, f)]
    S = _fem.trace_form(T, w * (system.alpha2 * per_point["sum_nu"])).toarray()[np.ix_(f, f)]
    a1, a2 = system.alpha1, system.alpha2
    want_u = np.linalg.solve(M, -(K @ u + a1 * C @ v + B @ du))
    want_v = np.linalg.solve(M, -(K @ v - a2 * C @ u + B @ dv + S @ u))
    assert np.allclose(d2u, want_u, rtol=0, atol=1e-12 * np.abs(want_u).max())
    assert np.allclose(d2v, want_v, rtol=0, atol=1e-12 * np.abs(want_v).max())


class TestAssembly:
    def test_hand_stiffness_three_nodes(self):
        system = make_system(nodes=3)
        K = system.stiffness.toarray()
        assert np.allclose(K, [[4.0, -2.0], [-2.0, 2.0]], atol=1e-14)

    def test_mass_total_is_domain_measure(self):
        # the free mass total is |chi|^2 for chi the interpolant of 1 that
        # vanishes on Gamma0: the measure less 2h/3 per clamped side of width h
        system = make_system(nodes=17)
        assert system.mass.sum() == pytest.approx(1.0 - 2.0 / 48.0, abs=1e-14)
        rect = make_system(mesh=geometry.build_rect_mesh(2.0, 3.0, 3, 4),
                           x0=np.array([-0.1, -0.1]))
        assert rect.mass.sum() == pytest.approx((2.0 - 4.0 / 9.0) * (3.0 - 0.5), abs=1e-12)

    def test_symmetry(self):
        system = make_system(mesh=geometry.build_rect_mesh(1.0, 1.0, 3, 3),
                             x0=np.array([-0.1, -0.1]))
        for op in (system.mass, system.stiffness, sigma_form(system)):
            d = op - op.T
            assert abs(d).max() <= 1e-14 * max(abs(op).max(), 1.0)

    def test_gauss_identity_2d(self):
        # C + C^T equals the boundary matrix weighted by sum of normal components
        system = make_system(mesh=geometry.build_rect_mesh(1.0, 1.0, 2, 2),
                             x0=np.array([-0.1, -0.1]))
        defect = system.coupling + system.coupling.T - _sum_nu_form(system)
        assert np.max(np.abs(defect.toarray())) <= 1e-12

    def test_gauss_identity_1d(self):
        system = make_system(nodes=7)
        defect = system.coupling + system.coupling.T - _sum_nu_form(system)
        assert np.max(np.abs(defect.toarray())) <= 1e-14

    def test_stencil_builds_the_forms_assembly_reads(self):
        # the gamma1 band is read as 1D bands alone, by the preconditioners
        system = make_system(mesh=geometry.build_rect_mesh(1.0, 1.0, 3, 3),
                             x0=np.array([-0.1, -0.1]))
        assert "gamma1" in system.factors[0]
        assert not {"slots", "cols"} & set(vars(system))  # no slot array outlives assembly
        forms, cols = _fem.stencil(system.factors)
        for got, name in zip((system.mass, system.stiffness, system.coupling, system.multiplier),
                             ("mass", "stiffness", "derivative", "multiplier")):
            want, = _fem.stencil_csr([forms[name]], cols, forms["mass"] != 0)
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, part), getattr(want, part)), (name, part)

    def test_stiffness_positive_definite_on_free_dofs(self):
        system = make_system(nodes=9)
        K = system.stiffness.toarray()
        assert np.all(np.linalg.eigvalsh(K) > 0)

    def test_sigma_default_matches_partition_normals(self):
        system = make_system(nodes=5, alpha2=2.0)
        sigma = system.alpha2 * gamma1_point_data(system.partition)["sum_nu"]
        assert np.allclose(sigma, 2.0)

    @pytest.mark.parametrize("mesh, x0", [
        (geometry.build_interval_mesh(1.0, 9), [0.0]),
        (geometry.build_interval_mesh(1.0, 9), [1.3]),
        (geometry.build_rect_mesh(1.0, 1.3, 7, 5), [-0.1, -0.1]),
        (geometry.build_rect_mesh(1.0, 1.3, 7, 5), [0.5, -0.1]),
        (geometry.build_rect_mesh(1.0, 1.3, 7, 5), [1.2, 0.6]),
    ])
    def test_free_is_the_complement_of_gamma0(self, mesh, x0):
        system = make_system(mesh=mesh, x0=np.array(x0))
        want = np.setdiff1d(np.arange(len(mesh.nodes)), system.partition.gamma0_nodes())
        assert system.free.dtype == want.dtype
        assert np.array_equal(system.free, want)


def _out_of_place_state_operator(system):
    """The (S_base, S_mu, M2) of S = S_base + mu S_mu and blockdiag(M, M)
    on one layout: S_base from the slots of _fem.stencil(system.factors)
    with a1 C and Sg - a2 C as new arrays and the kept slots or'ed form by
    form over all three, and S_mu and M2 by layout_blocks.  The reference
    for the products state_operator writes into its slot grid's blocks,
    and for the order of its diagonal blocks' entries."""
    slots, cols = _fem.stencil(system.factors)
    nf = len(system.free)
    M, K, C, Sg = (slots[name] for name in ("mass", "stiffness", "derivative", "sigma"))
    base = (None, system.alpha1 * C, Sg - system.alpha2 * C, K)
    forms = [base, (K, None, None, None), (M, None, None, M)]
    shape = (2 * nf, 2 * M.shape[1])

    def on_grid(parts, out):
        for (r, c), X in zip(np.ndindex(2, 2), parts):
            out.reshape(2, nf, 2, -1)[r, :, c] = 0.0 if X is None else X
        return out

    keep = on_grid([np.logical_or.reduce([X != 0 for X in parts if X is not None])
                    for parts in zip(*forms)], np.empty(shape, dtype=bool))
    columns = on_grid((cols, cols + nf) * 2, np.empty(shape, np.int32))
    S_base, = _fem.stencil_csr([on_grid(base, np.empty(shape))], columns, keep)
    return S_base, *layout_blocks(system, S_base)


def _state_parts(system):
    """(S_base, S_mu, M2) as the solver reads them: state_operator(), and
    the data of the system's stiffness and mass written in order into the
    entries of its u-u block and (mass) its v-v block, 0 elsewhere."""
    S_base = system.state_operator()
    nf, m = len(system.free), S_base.indptr[len(system.free)]
    lower = S_base.indices < nf
    uu, vv = np.flatnonzero(lower[:m]), m + np.flatnonzero(~lower[m:])
    S_mu, M2 = (sp.csr_matrix((np.zeros(S_base.nnz), S_base.indices, S_base.indptr),
                              shape=S_base.shape) for _ in range(2))
    S_mu.data[uu] = system.stiffness.data
    M2.data[uu] = M2.data[vv] = system.mass.data
    return S_base, S_mu, M2


class TestStateOperator:
    @pytest.mark.parametrize("mesh, x0, alpha1", [
        (geometry.build_rect_mesh(1.3, 0.7, 9, 6), [-0.1, -0.1], 0.3),
        (geometry.build_rect_mesh(1.3, 0.7, 9, 6), [0.5, -0.1], 0.3),  # a free-free axis
        (geometry.build_rect_mesh(1.3, 0.7, 9, 6), [-0.1, -0.1], 0.0),  # a1 C = 0: no u-v slots
        (geometry.build_interval_mesh(1.3, 11), [0.0], 0.3),
    ], ids=["corner", "free-free", "alpha1-zero", "interval"])
    def test_bit_identical_to_out_of_place(self, mesh, x0, alpha1):
        system = make_system(mesh=mesh, x0=np.array(x0), alpha1=alpha1, alpha2=0.7)
        for got, want in zip(_state_parts(system), _out_of_place_state_operator(system),
                             strict=True):
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, part), getattr(want, part)), part
                assert getattr(got, part).dtype == getattr(want, part).dtype
            assert np.array_equal(np.signbit(got.data), np.signbit(want.data))


class TestRhs:
    def test_zero_state_is_equilibrium(self):
        system = make_system(nodes=9)
        n = len(system.free)
        state = SimState(0.0, *(np.zeros(n) for _ in range(4)))
        d2u, d2v = rhs(system, state)
        assert np.all(d2u == 0.0) and np.all(d2v == 0.0)

    def test_decoupled_wave_acceleration(self):
        system = make_conservative_system(nodes=9)
        u = interpolate(system, sine_field(system.mesh))
        state = SimState(0.0, u, np.zeros_like(u), np.zeros_like(u), np.zeros_like(u))
        d2u, d2v = rhs(system, state)
        expected = np.linalg.solve(system.mass.toarray(), -(system.stiffness @ u))
        assert np.allclose(d2u, expected, atol=1e-14)
        assert np.allclose(d2v, 0.0, atol=1e-14)

    def test_hand_acceleration_three_nodes(self):
        system = make_conservative_system(nodes=3)
        u = np.array([1.0, 0.0])  # the free nodes x = 1/2 and x = 1
        state = SimState(0.0, u, np.zeros(2), np.zeros(2), np.zeros(2))
        d2u, _ = rhs(system, state)
        K = np.array([[4.0, -2.0], [-2.0, 2.0]])
        M = np.array([[2.0, 0.5], [0.5, 1.0]]) / 6.0
        expected = np.linalg.solve(M, -K @ u)
        assert np.allclose(d2u, expected, atol=1e-12)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_clamped_nodes_stay_clamped(self, seed):
        _check_against_all_node_forms(make_system(nodes=7), seed)

    @pytest.mark.parametrize("mesh, x0", [
        (geometry.build_rect_mesh(1.3, 0.7, 5, 3), np.array([-0.2, 0.31])),
        (geometry.build_rect_mesh(1.0, 2.0, 3, 5), np.array([1.4, 0.5])),
    ], ids=["5x3", "3x5"])
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_clamped_nodes_stay_clamped_on_the_rect(self, mesh, x0, seed):
        _check_against_all_node_forms(make_system(mesh=mesh, x0=x0), seed)

    @pytest.mark.parametrize("mesh", ["interval", "rect"])
    def test_block_columns_are_the_column_states(self, mesh):
        # a decaying mu takes one value per column, and the saturating laws
        # act on each column's own traces
        kw = dict(law1=saturating_law(1.0, 2.0), law2=saturating_law(0.5, 4.0),
                  schedule=decaying_schedule(1.0, 0.8, 1.0))
        system = (make_system(nodes=21, **kw) if mesh == "interval" else
                  make_system(mesh=geometry.build_rect_mesh(1.0, 1.3, 8, 6),
                              x0=np.array([-0.1, -0.1]), alpha1=0.03, alpha2=0.05, **kw))
        rng = np.random.default_rng(12)
        t = np.linspace(0.0, 2.0, 5)
        fields = [rng.standard_normal((len(system.free), len(t))) for _ in range(4)]
        got = rhs(system, StateBlock(t, *fields, {}))
        assert [g.shape for g in got] == [fields[0].shape] * 2
        for j in range(len(t)):
            want = rhs(system, SimState(float(t[j]), *(f[:, j].copy() for f in fields)))
            for g, w in zip(got, want):
                assert np.max(np.abs(g[:, j] - w)) <= 1e-14 * np.max(np.abs(w))


class TestInitialData:
    def test_sine_data_is_compatible(self):
        system = make_system(nodes=21, alpha2=0.1)
        u0 = sine_field(system.mesh)
        zero = make_field("zero", system.mesh)
        r_u, _ = compatibility_residuals(system, u0, zero, zero, zero)
        assert np.allclose(r_u, 0.0, atol=1e-14)

    def test_exact_cancellation(self):
        # du0/dnu = -1 at x=1 cancels (m.nu) p1(u1) with u1 = 1 there
        system = make_system(nodes=11, alpha2=0.1)
        u0 = linear_field(system.mesh, amplitude=-1.0)
        ones = Field("ones", lambda x: np.ones(len(x)),
                     lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                     lambda x: np.zeros(len(x)))
        zero = make_field("zero", system.mesh)
        r_u, _ = compatibility_residuals(system, u0, zero, ones, zero)
        assert np.allclose(r_u, 0.0, atol=1e-14)

    def test_quadratic_data_flagged_not_fatal(self, caplog):
        system = make_system(nodes=11)
        u0 = make_field("quadratic", system.mesh)
        zero = make_field("zero", system.mesh)
        with caplog.at_level("WARNING"):
            state, info = project_initial_data(system, u0, zero, zero, zero)
        # residual = du0/dnu(1) = 2, plus the sigma coupling on the v equation
        assert info["residual_u"][0] == pytest.approx(2.0)
        assert info["norm"] > 1e-10
        assert any("compatibility" in rec.message for rec in caplog.records)
        assert state.t == 0.0

    def test_reference_data_warn_at_any_amplitude(self, caplog):
        # u0(1) = 1: sigma u0 = alpha2 breaks the v relation on Gamma1, by the
        # same share of the data at any amplitude
        relative = []
        for amplitude in (1.0, 1e-8, 1e-14):
            info, warned = _project(_reference_cfg("sine", amplitude), caplog)
            assert warned, amplitude
            assert info["norm"] == pytest.approx(0.1 * amplitude, rel=1e-12)
            relative.append(info["relative"])
        assert relative == pytest.approx([relative[0]] * 3, rel=1e-12)
        assert relative[0] == pytest.approx(0.1 / np.sqrt(1.25), rel=1e-12)

    @pytest.mark.parametrize("mesh", ["interval", "rect"])
    @pytest.mark.parametrize("data", ["bump", "zero"])
    @pytest.mark.parametrize("amplitude", [1e-14, 16.0, 1e8])
    def test_compatible_data_stay_silent(self, mesh, data, amplitude, caplog):
        info, warned = _project(_reference_cfg(data, amplitude, mesh), caplog)
        assert not warned
        assert info["relative"] == 0.0

    def test_summary_reports_the_absolute_residual(self, tmp_path, caplog):
        cfg = _reference_cfg("sine", 1e-14)
        harness.apply_overrides(cfg, T=0.002, out=str(tmp_path))
        info, _ = _project(cfg, caplog)
        out = io.StringIO()
        assert harness.run_simulate(cfg, stream=out) == 0
        assert f"compat_residual {info['norm']:.17g}\n" in out.getvalue()
        assert info["norm"] < 1e-14  # the absolute figure, not the relative 0.089

    def test_interpolation_leaves_out_clamped_nodes(self):
        system = make_system(nodes=9)
        vals = interpolate(system, Field("shift", lambda x: np.sum(x, axis=1) + 1.0))
        assert np.array_equal(vals, np.arange(1, 9) / 8.0 + 1.0)  # x = 0 is clamped
        assert vals[-1] == pytest.approx(2.0)


def _per_point_oracle(system, u0, v0, u1, v1):
    """The Gamma1 quantities from per-point arrays (gamma1_point_data): the
    compatibility residuals with du/dnu by one einsum with the normals,
    sigma = alpha2 sum_i nu_i, w (m.nu), and the report's sigma fields."""
    part = system.partition
    data = gamma1_point_data(part)
    pts = np.concatenate([_fem.side_rule(system.mesh.axes, d, end, part.free_slices)[2]
                          for d, end, *_ in part.gamma1_sides])
    mn, sigma = data["m_dot_nu"], system.alpha2 * data["sum_nu"]

    def dnu(fld):
        return np.einsum("qd,qd->q", np.asarray(fld.grad(pts), dtype=float), data["normals"])

    r_u = dnu(u0) + mn * np.asarray(system.law1(np.asarray(u1.value(pts))))
    r_v = (dnu(v0) + mn * np.asarray(system.law2(np.asarray(v1.value(pts))))
           + sigma * np.asarray(u0.value(pts)))
    return {"r_u": r_u, "r_v": r_v, "wmn": system.trace_weights * mn,
            "sigma_sup": float(np.max(np.abs(sigma))), "sigma_positive": bool(np.all(sigma > 0))}


class TestGamma1SideConstants:
    """The Gamma1 data built side by side from the partition's gamma1_sides
    equal the per-point formulas bit for bit."""

    @pytest.mark.parametrize("mesh, x0", [
        (geometry.build_rect_mesh(1.0, 1.0, 16, 16), (-0.1, -0.1)),
        (geometry.build_rect_mesh(1.0, 1.0, 16, 16), (0.5, -0.1)),
        (geometry.build_rect_mesh(1.3, 0.7, 7, 5), (1.4, 0.5)),
        (geometry.build_rect_mesh(1.0, 1.0, 12, 12), (1.4, 1.3)),
        (geometry.build_interval_mesh(1.0, 21), (0.0,)),
        (geometry.build_interval_mesh(1.0, 21), (1.3,)),
    ], ids=["rect16-corner", "rect16-free-free", "rect7x5", "rect12-far", "interval-0",
            "interval-1.3"])
    @pytest.mark.parametrize("laws", [("identity", "identity"), ("saturating", "hardening")])
    def test_matches_per_point_formulas(self, mesh, x0, laws):
        part = geometry.classify_boundary(mesh, np.array(x0))
        law1, law2 = (CATALOG[name]() for name in laws)
        system = assemble(mesh, part, 0.1, 0.2, constant_schedule(1.0), law1, law2)
        report = build_report(mesh.dimension, 1.0, 1.0, 1.0, 1.0, constant_schedule(1.0),
                              law1, law2, 0.1, 0.2, part)
        for name in ("bump", "quadratic", "linear", "sine"):
            fields = [make_field(name, mesh, a) for a in (1.0, -0.5, 0.3, 2.0)]
            want = _per_point_oracle(system, *fields)
            r_u, r_v = compatibility_residuals(system, *fields)
            for got, key in ((r_u, "r_u"), (r_v, "r_v"), (system.trace_wmn, "wmn")):
                assert got.dtype == want[key].dtype and got.tobytes() == want[key].tobytes()
        assert np.float64(report.sigma_sup).tobytes() == np.float64(want["sigma_sup"]).tobytes()
        assert report.sigma_positive is want["sigma_positive"]
