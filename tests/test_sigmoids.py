"""Transition function families: values, inverses, tail asymptotics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchlayer import SigmoidSpec, UnsupportedExpansionError
from switchlayer.sigmoids import KINDS

SYMMETRIC = ("piecewise_linear", "arctan_unit", "tanh", "erf")
UNIT = ("arctan_01", "hill")


def spec_for(kind, eps=0.1):
    return SigmoidSpec(kind, eps=eps)


class TestConstruction:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            SigmoidSpec("logit", eps=0.1)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            SigmoidSpec("tanh", eps=0.0)

    def test_hill_theta_must_be_positive(self):
        with pytest.raises(ValueError):
            SigmoidSpec("hill", eps=0.1, theta=-1.0)

    @pytest.mark.parametrize("theta", [-5.0, 2.0])
    def test_theta_only_for_hill(self, theta):
        with pytest.raises(ValueError, match="theta"):
            SigmoidSpec("tanh", eps=0.1, theta=theta)

    def test_range_fixed_by_kind(self):
        for kind in SYMMETRIC:
            assert spec_for(kind).range == (-1.0, 1.0)
        for kind in UNIT:
            assert spec_for(kind).range == (0.0, 1.0)


class TestEvaluation:
    def test_midpoint_values(self):
        for kind in SYMMETRIC:
            assert spec_for(kind)(0.0) == 0.0
        assert spec_for("arctan_01")(0.0) == 0.5
        assert spec_for("hill")(1.0) == 0.5  # theta = 1

    def test_piecewise_linear_is_clipped_ramp(self):
        s = SigmoidSpec("piecewise_linear", eps=0.5)
        v = np.array([-2.0, -0.25, 0.0, 0.25, 2.0])
        np.testing.assert_array_equal(s(v), [-1.0, -0.5, 0.0, 0.5, 1.0])

    @given(v=st.floats(-50.0, 50.0), kind=st.sampled_from(SYMMETRIC))
    @settings(max_examples=300, deadline=None)
    def test_odd_symmetry_and_bounds(self, v, kind):
        s = spec_for(kind)
        assert s(v) == pytest.approx(-s(-v), abs=1e-15)
        assert -1.0 <= s(v) <= 1.0

    def test_scalar_fn_matches_evaluate(self):
        for kind in KINDS:
            s = spec_for(kind)
            f = s.scalar_fn()
            vs = np.linspace(0.001, 5.0, 47) if kind == "hill" \
                else np.linspace(-5.0, 5.0, 47)
            for v in vs:
                assert f(float(v)) == pytest.approx(s(float(v)),
                                                    abs=1e-15, rel=1e-15)
        with pytest.raises(ValueError):
            spec_for("hill").scalar_fn()(-1.0)

    def test_evaluate_is_scalar_fn_elementwise(self):
        # one statement of each formula: the vectorized and scalar paths agree bit for bit
        for kind in KINDS:
            s = SigmoidSpec(kind, eps=0.3)
            f = s.scalar_fn()
            vs = np.linspace(0.001, 5.0, 2001) if kind == "hill" \
                else np.linspace(-5.0, 5.0, 2001)
            ref = np.array([f(v) for v in vs.tolist()])
            np.testing.assert_array_equal(s(vs), ref, strict=True)
            np.testing.assert_array_equal(s(vs.reshape(3, 667)), ref.reshape(3, 667),
                                          strict=True)
            scalars = [s(v) for v in vs.tolist()]
            assert all(type(y) is float for y in scalars)
            assert scalars == ref.tolist()

    @given(kind=st.sampled_from(KINDS),
           a=st.floats(-10.0, 10.0), b=st.floats(-10.0, 10.0))
    @settings(max_examples=300, deadline=None)
    def test_monotone_nondecreasing(self, kind, a, b):
        s = spec_for(kind)
        if kind == "hill":
            a, b = math.exp(a / 4), math.exp(b / 4)
        lo, hi = min(a, b), max(a, b)
        assert s(lo) <= s(hi) + 1e-15

    def test_hill_matches_power_law_oracle(self):
        s = SigmoidSpec("hill", eps=0.5, theta=2.0)
        for v in (0.3, 1.0, 2.0, 5.0):
            n = 1.0 / s.eps
            expected = v**n / (v**n + s.theta**n)
            assert s(v) == pytest.approx(expected, rel=1e-12)

    def test_hill_stable_for_tiny_eps(self):
        s = SigmoidSpec("hill", eps=1e-4, theta=1.0)
        assert s(2.0) == pytest.approx(1.0)
        assert s(0.5) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ValueError):
            s(-1.0)

    def test_vectorized_evaluation(self):
        s = spec_for("tanh")
        out = s(np.linspace(-1, 1, 7))
        assert out.shape == (7,)


class TestInverse:
    @given(y=st.floats(-0.999, 0.999), kind=st.sampled_from(SYMMETRIC))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_symmetric(self, y, kind):
        s = spec_for(kind)
        assert s(s.inverse(y)) == pytest.approx(y, abs=1e-9)

    @given(y=st.floats(0.001, 0.999), kind=st.sampled_from(UNIT))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_unit(self, y, kind):
        s = spec_for(kind)
        assert s(s.inverse(y)) == pytest.approx(y, abs=1e-9)

    def test_inverse_rejects_range_boundary(self):
        with pytest.raises(ValueError):
            spec_for("tanh").inverse(1.0)
        with pytest.raises(ValueError):
            spec_for("arctan_01").inverse(0.0)


class TestTailAsymptotics:
    def test_tanh_coefficients(self):
        kappa, p, c = spec_for("tanh").tail_coefficients()
        assert (kappa, p) == (2.0, 1.0)
        assert c == [-2.0, 0.0, 0.0, 0.0]

    def test_erf_coefficients(self):
        kappa, p, c = spec_for("erf").tail_coefficients()
        assert (kappa, p) == (1.0, 2.0)
        sp = math.sqrt(math.pi)
        assert c[0] == 0.0
        assert c[1] == pytest.approx(-1.0 / sp)
        assert c[2] == 0.0
        assert c[3] == pytest.approx(0.5 / sp)

    def test_no_exponential_tail_for_algebraic_kinds(self):
        for kind in ("piecewise_linear", "arctan_unit", "arctan_01", "hill"):
            with pytest.raises(UnsupportedExpansionError):
                spec_for(kind).tail_coefficients()

    def test_tanh_tail_accuracy(self):
        s = SigmoidSpec("tanh", eps=0.1)
        for v in (0.4, 0.6, 1.0):
            exact = s(v)
            approx = s.tail_expansion(v)
            # next tanh tail term is O(e^{-4u}), far below the kept one
            assert abs(approx - exact) < 3 * math.exp(-4 * v / s.eps)

    def test_erf_tail_orders_improve(self):
        s = SigmoidSpec("erf", eps=0.1)
        v = 0.35
        exact = s(v)
        e1 = abs(s.tail_expansion(v, order=1) - exact)
        e3 = abs(s.tail_expansion(v, order=3) - exact)
        assert e3 < e1 < abs(s.tail_expansion(v, order=0) - exact)

    def test_arctan_tail_first_order(self):
        s = SigmoidSpec("arctan_unit", eps=0.1)
        v = 1.0
        exact = s(v)
        e0 = abs(s.tail_expansion(v, order=0) - exact)
        e1 = abs(s.tail_expansion(v, order=1) - exact)
        assert e1 < e0
        # the omitted term is O((eps/v)^3)
        assert e1 < 10 * (s.eps / v) ** 3
        with pytest.raises(UnsupportedExpansionError):
            s.tail_expansion(v, order=2)

    def test_arctan_01_tail_both_sides(self):
        s = SigmoidSpec("arctan_01", eps=0.1)
        assert s.tail_expansion(1.0, order=1) == pytest.approx(s(1.0), abs=1e-3)
        assert s.tail_expansion(-1.0, order=1) == pytest.approx(s(-1.0), abs=1e-3)

    def test_piecewise_linear_tail_exact(self):
        s = SigmoidSpec("piecewise_linear", eps=0.1)
        assert s.tail_expansion(0.5) == 1.0
        assert s.tail_expansion(-0.5) == -1.0

    def test_tail_requires_distance_from_switch(self):
        with pytest.raises(ValueError, match="3 eps"):
            spec_for("tanh").tail_expansion(0.1)

    def test_invalid_order_rejected(self):
        with pytest.raises(UnsupportedExpansionError):
            spec_for("tanh").tail_expansion(1.0, order=4)

    def test_saturation_far_from_switch(self):
        # exponential-tail kinds are saturated to 1e-2 by 10 eps; the
        # algebraic arctan kinds only by ~100 eps
        for kind in ("piecewise_linear", "tanh", "erf"):
            s = spec_for(kind, eps=0.01)
            assert abs(s(10 * s.eps) - 1.0) < 1e-2
        for kind in ("arctan_unit",):
            s = spec_for(kind, eps=0.01)
            assert abs(s(100 * s.eps) - 1.0) < 1e-2
