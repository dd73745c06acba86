import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamstab import feedback, geometry
from beamstab.errors import InvalidArgumentError
from beamstab.feedback import (FeedbackLaw, LipschitzLaw, hardening_law, identity_law,
                               law_from_spec, saturating_law, strauss_approximate, zero_law)

from conftest import gamma1_faces, make_system


def _interval_system(mn, law):
    """Interval [0, mn] with x0 = 0: one Gamma1 point, at x = mn, where
    m.nu = mn and the quadrature weight is 1."""
    return make_system(mesh=geometry.build_interval_mesh(mn, 3), law1=law)


class TestEvaluateH:
    """h(x, s) = (m.nu) p(s) as the system's Gamma1 forcing load."""

    def test_identity(self):
        system = _interval_system(1.0, identity_law())
        load = system.boundary_load(system.law1, np.array([2.0]))
        assert np.array_equal(load, [0.0, 2.0])  # the free nodes x = mn/2 and x = mn

    def test_vanishes_at_origin(self):
        for law in (identity_law(), saturating_law(), hardening_law()):
            system = _interval_system(1.7, law)
            assert np.all(system.boundary_load(law, np.zeros(1)) == 0.0)

    def test_saturating_value(self):
        law = saturating_law(b=1.0, L=2.0)
        load = _interval_system(1.5, law).boundary_load(law, np.array([1.0]))
        assert load[-1] == pytest.approx(1.5 * (1.0 + math.tanh(1.0)))

    def test_no_forcing_off_gamma1(self):
        # left and bottom edges are Gamma0: only the free nodes of the
        # right/top edges are loaded; the clamped corners are no dofs
        mesh = geometry.build_rect_mesh(1.0, 1.0, 3, 3)
        system = make_system(mesh=mesh, x0=np.array([-0.1, -0.1]))
        load = system.boundary_load(identity_law(), np.ones(len(system.trace_weights)))
        gamma1_nodes = np.unique(gamma1_faces(mesh, system.partition).nodes)
        gamma1_dofs = np.flatnonzero(np.isin(system.free, gamma1_nodes))
        assert len(gamma1_dofs) == len(gamma1_nodes) - 2
        assert np.array_equal(np.flatnonzero(load), gamma1_dofs)
        assert np.all(load[gamma1_dofs] > 0)


class TestLawCatalog:
    def test_law_must_vanish_at_zero(self):
        with pytest.raises(InvalidArgumentError):
            FeedbackLaw(lambda s: np.asarray(s) + 1.0, lambda s: 1.0, 1.0, 1.0)

    def test_constants_ordering(self):
        with pytest.raises(InvalidArgumentError):
            saturating_law(b=2.0, L=1.0)

    @pytest.mark.parametrize("b, L", [(-1.0, 1.0), (2.0, 1.0), (math.nan, 1.0), (0.5, math.nan)])
    def test_inconsistent_constants_are_refused(self, b, L):
        with pytest.raises(InvalidArgumentError, match="0 <= b <= L"):
            FeedbackLaw(lambda s: s, lambda s: 1.0, b, L)

    def test_hardening_kink(self):
        law = hardening_law(b=1.0, L=3.0, knee=1.0)
        assert law(0.5) == pytest.approx(0.5)
        assert law(2.0) == pytest.approx(1.0 + 3.0 * 1.0)
        assert law.slope(0.5) == 1.0 and law.slope(2.0) == 3.0

    def test_from_spec(self):
        law = law_from_spec("saturating", {"b": 1.0, "L": 2.0})
        assert law.b == 1.0 and law.L == 2.0
        with pytest.raises(InvalidArgumentError):
            law_from_spec("nope", {})


class TestLipschitzConstants:
    """A LipschitzLaw checks its constants as FeedbackLaw does, since the
    certificate reads its b and L."""

    @pytest.mark.parametrize("x, y, b", [
        ([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], 5.0),   # b above L = 1
        ([-1.0, 0.0, 1.0], [-3.0, 0.0, 1.0], 2.0),   # b above the smallest slope, below L
        ([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], -0.5),  # b negative
        ([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], math.nan),
        ([1.0, 0.0, -1.0], [1.0, 0.0, -1.0], 0.5),   # decreasing breakpoints
        ([-1.0, 0.0, 0.0, 1.0], [-1.0, 0.0, 0.0, 1.0], 0.5),  # a repeated breakpoint
        ([-1.0, 1.0], [0.0, 2.0], 1.0),              # p(0) = 1
        ([0.0], [0.0], 0.0),                         # no segment
        ([-1.0, 0.0, 1.0], [-1.0, 0.0], 0.5),        # a value missing
    ])
    def test_inconsistent_constants_are_refused(self, x, y, b):
        with pytest.raises(InvalidArgumentError):
            LipschitzLaw(x, y, b)

    def test_b_may_exceed_a_slope_by_round_off_only(self):
        x, y = [-1.0, 0.0, 1.0], [-3.0, 0.0, 1.0]
        law = LipschitzLaw(x, y, 1.0 + 0.5 * feedback.SLOPE_TOL)
        assert (law.L, law.slopes.tolist()) == (3.0, [3.0, 1.0])
        with pytest.raises(InvalidArgumentError):
            LipschitzLaw(x, y, 1.0 + 2.0 * feedback.SLOPE_TOL)

    @pytest.mark.parametrize("level", range(1, 9))
    @pytest.mark.parametrize("name", sorted(feedback.CATALOG))
    def test_catalog_approximants_construct(self, name, level):
        law = feedback.CATALOG[name]()
        approx = strauss_approximate(law, level)
        assert approx.b == law.b <= approx.L <= law.L + feedback.SLOPE_TOL

    def test_constant_slope(self):
        assert identity_law(0.3).constant_slope and zero_law().constant_slope
        assert saturating_law(2.0, 2.0).constant_slope
        assert not saturating_law(1.0, 2.0).constant_slope
        assert not hardening_law(1.0, 3.0).constant_slope
        # one segment slope with b < L, and the identity's approximant
        assert LipschitzLaw([-1.0, 0.0, 2.0], [-2.0, 0.0, 4.0], 1.0).constant_slope
        assert strauss_approximate(identity_law(), 3).constant_slope
        assert not strauss_approximate(saturating_law(2.0, 2.5), 3).constant_slope


class TestStraussApproximate:
    def test_identity_is_fixed_point(self):
        approx = strauss_approximate(identity_law(), 4)
        s = np.linspace(-10, 10, 1001)
        assert np.max(np.abs(approx(s) - s)) == 0.0

    def test_sup_error_improves_with_level(self):
        law = saturating_law(b=1.0, L=2.0)
        s = np.linspace(-5.0, 5.0, 100_000)
        err5 = np.max(np.abs(strauss_approximate(law, 5)(s) - law(s)))
        err10 = np.max(np.abs(strauss_approximate(law, 10)(s) - law(s)))
        assert err10 < err5

    def test_slopes_within_derivative_range(self):
        law = saturating_law(b=1.0, L=2.0)
        for level in (1, 2, 4, 8):
            slopes = strauss_approximate(law, level).slopes
            assert np.all(slopes >= 1.0 - 1e-12)
            assert np.all(slopes <= 2.0 + 1e-12)

    def test_bad_level(self):
        with pytest.raises(InvalidArgumentError):
            strauss_approximate(identity_law(), 0)

    def test_value_zero_at_origin(self):
        for name in ("identity", "saturating", "hardening"):
            approx = strauss_approximate(feedback.CATALOG[name](), 3)
            assert approx(0.0) == 0.0

    @pytest.mark.parametrize("name", ["identity", "saturating", "hardening"])
    def test_sup_error_bound_and_monotone(self, name):
        # spec invariant: non-increasing in l; final error below half the
        # worst unit-spacing second difference of p over [-3,3], divided by l
        law = feedback.CATALOG[name]()
        s = np.linspace(-3.0, 3.0, 20_001)
        p = np.asarray(law(s))
        errors = []
        for level in (1, 2, 4, 8, 16):
            approx = strauss_approximate(law, level)
            errors.append(float(np.max(np.abs(approx(s) - p))))
        assert all(a >= b for a, b in zip(errors, errors[1:]))
        grid = np.arange(-4.0, 5.0)
        second = np.abs(np.asarray(law(grid[:-2])) - 2 * np.asarray(law(grid[1:-1]))
                        + np.asarray(law(grid[2:])))
        bound = 0.5 * float(np.max(second)) / 16
        if bound > 0:
            assert errors[-1] < bound
        else:
            assert errors[-1] == 0.0

    @given(level=st.integers(min_value=1, max_value=12),
           s=st.floats(min_value=-20, max_value=20))
    @settings(max_examples=50, deadline=None)
    def test_oddness_preserved(self, level, s):
        approx = strauss_approximate(saturating_law(1.0, 2.0), level)
        assert approx(-s) == pytest.approx(-approx(s), abs=1e-12)

    @given(level=st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_monotonicity_survives_approximation(self, level):
        law = hardening_law(b=0.5, L=3.0, knee=0.7)
        approx = strauss_approximate(law, level)
        assert np.all(approx.slopes >= law.b - 1e-12)


@given(mn=st.floats(min_value=1e-3, max_value=10.0),
       s=st.floats(min_value=-50.0, max_value=50.0))
@settings(max_examples=100, deadline=None)
def test_dissipation_sign_structure(mn, s):
    # int_G1 h(x, s) s >= int_G1 (m.nu) b s^2 through the system's boundary integral
    for law in (identity_law(0.7), saturating_law(1.0, 2.0), hardening_law(0.5, 2.0)):
        system = _interval_system(mn, law)
        trace = np.array([s])
        dissipation = system.boundary_integral(np.asarray(law(trace)) * trace)
        assert dissipation == pytest.approx(mn * float(law(s)) * s, rel=1e-14)
        assert dissipation >= mn * law.b * s * s - 1e-9 * max(1.0, s * s)


def test_zero_law_is_inert():
    law = zero_law()
    assert law.b == 0.0 and law.L == 0.0
    assert np.all(law(np.linspace(-3, 3, 7)) == 0.0)
