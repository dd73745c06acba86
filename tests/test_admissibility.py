import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from beamstab import admissibility as adm
from beamstab import _fem, diagnostics, geometry
from beamstab.discretization import SimState, assemble
from beamstab.errors import InvalidArgumentError
from beamstab.feedback import identity_law, zero_law

from conftest import gamma1_point_data, make_system, sigma_form


class TestSchedules:
    def test_constant(self):
        sched = adm.constant_schedule(2.0)
        assert sched.mu(3.7) == 2.0
        assert sched.mu_prime(3.7) == 0.0
        assert sched.mu0 == 2.0 and sched.mu_at_0 == 2.0

    def test_decaying(self):
        sched = adm.decaying_schedule(1.0, 0.1, horizon=5.0)
        assert sched.mu(0.0) == pytest.approx(1.0)
        assert sched.mu(5.0) == pytest.approx(math.exp(-0.5))
        assert sched.mu0 == pytest.approx(math.exp(-0.5))
        assert sched.mu_prime(1.0) < 0

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            adm.constant_schedule(0.0)
        with pytest.raises(InvalidArgumentError):
            adm.decaying_schedule(1.0, -0.1, 1.0)

    @pytest.mark.parametrize("build, args", [
        pytest.param(adm.constant_schedule, (math.nan,), id="constant-nan"),
        pytest.param(adm.decaying_schedule, (1.0, math.nan, 1.0), id="decaying-rate-nan"),
    ])
    def test_non_finite_coefficient_is_refused(self, build, args):
        with pytest.raises(InvalidArgumentError, match="finite and positive"):
            build(*args)


class TestConstantFormulas:
    """Closed-form hand evaluations; these must be reproduced exactly."""

    def test_A_one_dimensional(self):
        assert adm.compute_A(1, 0.6366, 1.0, 1.0, 1.0) == 8.0

    def test_A_two_dimensional(self):
        assert adm.compute_A(2, 1.0, 1.0, 1.0, 1.0) == 12.0

    def test_A_mu0_homogeneity(self):
        # quadrupling mu0 halves the 1/sqrt(mu0) terms
        a1 = adm.compute_A(2, 1.0, 1.0, 1.0, 1.0)
        a4 = adm.compute_A(2, 1.0, 1.0, 4.0, 1.0)
        assert a4 == pytest.approx((2 + 4) / 2 + (2 + 4) * 1.0)
        assert a4 < a1

    def test_P1_P2_hand_values(self):
        assert adm.compute_P1(1, 0.6366, 1.0, 1.0) == 16.0
        assert adm.compute_P2(1, 1.0, 1.0, 1.0, 1.0, 1.0) == 18.0

    def test_P1_drops_first_term_in_1d(self):
        assert adm.compute_P1(1, 123.0, 2.0, 1.0) == 64.0

    def test_R_homogeneity(self):
        assert adm.compute_P1(1, 1.0, 2.0, 1.0) == 4 * adm.compute_P1(1, 1.0, 1.0, 1.0)

    def test_S_hand_values(self):
        S = adm.compute_S(1, 1.0, 1.0, 1.0, 1.0, 1.0)
        assert S["S1"] == 2.0 and S["S2"] == 3.0
        S2d = adm.compute_S(2, 1.0, 1.0, 1.0, 1.0, 1.0)
        assert S2d["S1"] == 6.0 and S2d["S2"] == 7.0

    def test_S_rejects_zero_growth(self):
        with pytest.raises(InvalidArgumentError):
            adm.compute_S(1, 1.0, 1.0, 0.0, 0.0, 1.0)

    @given(scale=st.floats(min_value=1.0, max_value=4.0))
    @settings(max_examples=30, deadline=None)
    def test_constants_weakly_increasing(self, scale):
        base = (adm.compute_A(2, 1.0, 1.0, 1.0, 1.0),
                adm.compute_P1(2, 1.0, 1.0, 1.0),
                adm.compute_P2(2, 1.0, 1.0, 1.0, 1.0, 1.0),
                adm.compute_S(2, 1.0, 1.0, 1.0, 1.0, 1.0)["S1"])
        bigger = (adm.compute_A(2, scale, scale, 1.0, 1.0),
                  adm.compute_P1(2, scale, scale, 1.0),
                  adm.compute_P2(2, scale, 1.0, 1.0, scale, 1.0),
                  adm.compute_S(2, scale, scale, scale, scale, 1.0)["S1"])
        assert all(b >= a for a, b in zip(base, bigger))


class TestMultiplierBound:
    """|G| <= A E over every discrete state, for alpha1 below and above alpha2."""

    @pytest.mark.parametrize("mesh, x0", [
        (geometry.build_interval_mesh(1.0, 51), [0.0]),
        (geometry.build_rect_mesh(1.0, 1.0, 8, 8), [-0.1, -0.1]),
    ], ids=["interval51", "rect8"])
    @pytest.mark.parametrize("ratio", [0.1, 0.25, 1.0, 4.0])
    def test_largest_G_over_E_within_A(self, mesh, x0, ratio):
        alpha2 = 0.2
        system = make_system(mesh=mesh, x0=np.array(x0), alpha1=ratio * alpha2, alpha2=alpha2)
        part = system.partition
        gc = geometry.geometric_constants(mesh, part)
        M = geometry.embedding_constants(mesh, part)["M"]
        A = adm.compute_A(mesh.dimension, M, gc["R"], 1.0, system.alpha_ratio)
        # G and E as quadratic forms in z = (u, v, u', v'), mu = 1
        Mm, K, X = (op.toarray() for op in (system.mass, system.stiffness, system.multiplier))
        Y = (mesh.dimension - 1) * Mm + 2.0 * X  # G = u'.Y u + v'.Y v
        nf = len(Mm)
        G = np.zeros((4 * nf, 4 * nf))
        for field in (0, 1):
            pos, vel = slice(field * nf, (field + 1) * nf), slice((field + 2) * nf, (field + 3) * nf)
            G[vel, pos] = 0.5 * Y
            G[pos, vel] = 0.5 * Y.T
        r = system.alpha_ratio
        E = 0.5 * scipy.linalg.block_diag(K, r * K, Mm, r * Mm)
        z = np.random.default_rng(5).standard_normal(4 * nf)
        state = SimState(0.0, *np.split(z, 4))
        assert z @ G @ z == pytest.approx(diagnostics.functional_G(system, state), rel=1e-12)
        assert z @ E @ z == pytest.approx(diagnostics.energy(system, state), rel=1e-12)
        worst = np.max(np.abs(scipy.linalg.eigh(G, E, eigvals_only=True)))
        assert worst <= A, (worst, A)


class TestAdmissibility:
    CONSTANTS = dict(n=1, M=0.6366, P1=16.0, P2=18.0, mu0=1.0)

    def test_reference_point_admissible(self):
        out = adm.check_admissibility(0.1, 0.1, **self.CONSTANTS)
        assert out["admissible"]
        assert out["product_slack"] == pytest.approx(1 / (64 * 0.6366 ** 2) - 0.01)
        assert out["quadratic_slack"] == pytest.approx(7 / 8 - 0.34)

    def test_unit_couplings_inadmissible(self):
        out = adm.check_admissibility(1.0, 1.0, **self.CONSTANTS)
        assert not out["admissible"]
        assert out["quadratic_slack"] == pytest.approx(7 / 8 - 34.0)

    def test_boundary_case_is_admissible(self):
        # alpha1*alpha2 exactly at the product bound, quadratic condition slack
        alpha = math.sqrt(1.0 / 256.0)
        out = adm.check_admissibility(alpha, alpha, n=1, M=2.0, P1=1.0, P2=1.0, mu0=1.0)
        assert out["product_slack"] == pytest.approx(0.0, abs=1e-18)
        assert out["admissible"]

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(InvalidArgumentError):
            adm.check_admissibility(0.0, 0.1, **self.CONSTANTS)

    @given(shrink=st.floats(min_value=0.01, max_value=1.0),
           alpha=st.floats(min_value=1e-3, max_value=2.0))
    @settings(max_examples=100, deadline=None)
    def test_shrinking_alphas_never_breaks_admissibility(self, shrink, alpha):
        before = adm.check_admissibility(alpha, alpha, **self.CONSTANTS)
        after = adm.check_admissibility(shrink * alpha, shrink * alpha, **self.CONSTANTS)
        if before["admissible"]:
            assert after["admissible"]


class TestEpsilonEta:
    def test_hand_values(self):
        out = adm.epsilon_eta(8.0, 2.0, 3.0, 1.0, 1.0, 1.0, 1.0)
        assert out["eps1_max"] == 1.0 / 32.0
        assert out["eps2_max"] == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert out["eta"] == 1.0 / 32.0

    def test_A_homogeneity(self):
        half = adm.epsilon_eta(16.0, 2.0, 3.0, 1.0, 1.0, 1.0, 1.0)
        assert half["eps1_max"] == 1.0 / 64.0

    @given(A=st.floats(min_value=0.1, max_value=100),
           S1=st.floats(min_value=0.1, max_value=100),
           S2=st.floats(min_value=0.1, max_value=100),
           b=st.floats(min_value=0.01, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_eta_is_min(self, A, S1, S2, b):
        out = adm.epsilon_eta(A, S1, S2, b, b, 1.0, 1.0)
        assert out["eta"] <= out["eps1_max"]
        assert out["eta"] <= out["eps2_max"]


class TestDecayEnvelope:
    def test_initial_value(self):
        assert adm.decay_envelope(2.0, 1.0, 0.0) == 6.0

    def test_substitution(self):
        t = np.array([0.0, 1.0, 2.0])
        assert np.allclose(adm.decay_envelope(1.0, 3.0, t), 3.0 * np.exp(-2.0 * t))

    def test_zero_energy(self):
        assert adm.decay_envelope(0.0, 1.0, 5.0) == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidArgumentError):
            adm.decay_envelope(1.0, 1.0, -0.1)

    @pytest.mark.parametrize("E0, eta", [(math.nan, 1.0), (1.0, math.nan)],
                             ids=["E0-nan", "eta-nan"])
    def test_non_finite_constant_rejected(self, E0, eta):
        with pytest.raises(InvalidArgumentError, match="finite"):
            adm.decay_envelope(E0, eta, np.array([0.0, 1.0]))


class TestSigmaFromMesh:
    """sigma = alpha2 * (sum of normal components) on Gamma1, as assembled
    into the system and summarized in the certificate report."""

    def _system_and_report(self, mesh, x0, alpha2):
        part = geometry.classify_boundary(mesh, np.asarray(x0, dtype=float))
        system = assemble(mesh, part, 0.01, alpha2, adm.constant_schedule(1.0),
                          identity_law(), identity_law())
        gc = geometry.geometric_constants(mesh, part)
        emb = geometry.embedding_constants(mesh, part)
        report = adm.build_report(mesh.dimension, emb["M"], emb["N"], gc["R"], gc["tau0"],
                                  adm.constant_schedule(1.0), identity_law(), identity_law(),
                                  0.01, alpha2, part)
        sigma = alpha2 * gamma1_point_data(part)["sum_nu"]  # per Gamma1 quadrature point
        assert report.sigma_sup == np.max(np.abs(sigma))
        defect = _fem.trace_form(system.trace, system.trace_weights * sigma) - sigma_form(system)
        assert np.max(np.abs(defect.toarray())) <= 1e-14 * alpha2
        return sigma, report

    def test_interval(self, interval3):
        sigma, report = self._system_and_report(interval3, [0.0], 2.0)
        assert np.allclose(sigma, [2.0])
        assert report.sigma_sup == 2.0 and report.sigma_positive

    def test_rect_edges(self):
        mesh = geometry.build_rect_mesh(1.0, 1.0, 2, 2)
        sigma, report = self._system_and_report(mesh, [-0.1, -0.1], 3.0)
        assert np.allclose(sigma, 3.0)  # right and top edges, sum nu = 1
        assert report.sigma_sup == 3.0 and report.sigma_positive
        assert report.sum_nu_bound == 1.0


class TestReport:
    def _reference_report(self, nodes=51):
        mesh = geometry.build_interval_mesh(1.0, nodes)
        part = geometry.classify_boundary(mesh, np.array([0.0]))
        gc = geometry.geometric_constants(mesh, part)
        emb = geometry.embedding_constants(mesh, part)
        return adm.build_report(1, emb["M"], emb["N"], gc["R"], gc["tau0"],
                                adm.constant_schedule(1.0), identity_law(),
                                identity_law(), 0.1, 0.1, part)

    def test_reference_configuration(self):
        report = self._reference_report()
        assert report.admissible
        assert report.A == pytest.approx(8.0, rel=1e-9)
        assert report.P1 == pytest.approx(16.0, rel=1e-9)
        assert report.P2 == pytest.approx(18.0, rel=1e-9)
        assert report.S1 == 2.0 and report.S2 == 3.0
        assert report.eps1_max == pytest.approx(1 / 32, rel=1e-9)
        assert report.eps2_max == pytest.approx(1 / 3, rel=1e-9)
        assert report.eta == pytest.approx(1 / 32, rel=1e-9)

    def test_eta_respects_bound_invariant(self):
        report = self._reference_report()
        assert report.eta <= min(report.eps1_max, report.eps2_max)

    def test_serialization(self):
        report = self._reference_report()
        text = report.as_text()
        assert "admissible" in text and "true" in text
        header, row = report.as_csv().strip().split("\n")
        names = [
            "n", "M", "N", "R", "tau0", "mu0", "mu_at_0", "b1", "b2", "L1", "L2",
            "alpha1", "alpha2", "sum_nu_bound", "sigma_sup", "sigma_positive",
            "A", "P1", "P2", "S1", "S2", "product_slack", "quadratic_slack",
            "admissible", "eps1_max", "eps2_max", "eta",
        ]
        assert header.split(",") == names
        assert len(row.split(",")) == len(names)
        assert [ln.split()[0] for ln in text.splitlines()] == names

    def test_refuses_undamped_law(self, interval3, interval3_partition):
        with pytest.raises(InvalidArgumentError):
            adm.build_report(1, 0.6, 1.0, 1.0, 1.0, adm.constant_schedule(1.0),
                             zero_law(), identity_law(), 0.1, 0.1, interval3_partition)
