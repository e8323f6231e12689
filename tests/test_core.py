"""Canonical hidden-term form: evaluation, classification, validation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchlayer import (
    DimensionMismatchError,
    NonFiniteFieldError,
    SwitchedField,
    eval_field,
    hidden_term,
    regime_of,
)


def linear_system(fp, fm, dim=2, g=None):
    fp = np.asarray(fp, dtype=float)
    fm = np.asarray(fm, dtype=float)
    return SwitchedField(
        f_plus=lambda x, t: fp,
        f_minus=lambda x, t: fm,
        dim=dim,
        hidden_g=g,
    )


class TestEvalField:
    def test_boundary_values_are_exact_branch_evaluations(self):
        sys = linear_system([1.0, -1.0], [-1.0, -1.0])
        x = np.array([0.3, 0.7])
        np.testing.assert_array_equal(eval_field(sys, x, 1.0), [1.0, -1.0])
        np.testing.assert_array_equal(eval_field(sys, x, -1.0), [-1.0, -1.0])

    def test_hidden_multiplier_never_called_at_boundaries(self):
        def g(x, t, lam):
            raise AssertionError("hidden multiplier evaluated at lam = +-1")

        sys = linear_system([1.0, 0.0], [0.0, 1.0], g=g)
        x = np.array([0.0, 0.0])
        eval_field(sys, x, 1.0)
        eval_field(sys, x, -1.0)
        hidden_term(sys, x, 1.0)
        hidden_term(sys, x, -1.0)

    def test_interior_value_is_convex_combination_plus_hidden(self):
        def g(x, t, lam):
            return np.array([2.0, 0.0])

        sys = linear_system([1.0, 1.0], [1.0, 1.0], g=g)
        x = np.array([0.0, 0.0])
        lam = 0.5
        # (1, 1) + (0.25 - 1)(2, 0) = (-0.5, 1)
        np.testing.assert_allclose(eval_field(sys, x, lam), [-0.5, 1.0],
                                   rtol=0, atol=1e-15)

    def test_lambda_out_of_range_rejected(self):
        sys = linear_system([1.0, 0.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="lambda"):
            eval_field(sys, np.zeros(2), 1.0 + 1e-9)
        with pytest.raises(ValueError, match="lambda"):
            eval_field(sys, np.zeros(2), -2.0)

    def test_dimension_mismatch_rejected(self):
        sys = linear_system([1.0, 0.0], [0.0, 1.0])
        with pytest.raises(DimensionMismatchError):
            eval_field(sys, np.zeros(3), 0.0)

    def test_non_finite_field_reported(self):
        sys = linear_system([np.inf, 0.0], [0.0, 1.0])
        with pytest.raises(NonFiniteFieldError):
            eval_field(sys, np.zeros(2), 0.5)

    def test_composed_evaluator_follows_replaced_parts(self):
        sys = linear_system([1.0, 0.0], [0.0, 1.0])
        moved = dataclasses.replace(sys, f_plus=lambda x, t: np.array([3.0, 0.0]))
        np.testing.assert_array_equal(eval_field(moved, np.zeros(2), 1.0), [3.0, 0.0])
        np.testing.assert_allclose(eval_field(moved, np.zeros(2), 0.0), [1.5, 0.5])

    def test_field_needs_fused_or_both_branches(self):
        with pytest.raises(TypeError, match="needs fused"):
            SwitchedField(dim=2)
        with pytest.raises(TypeError, match="needs fused"):
            SwitchedField(dim=2, f_plus=lambda x, t: np.zeros(2))
        with pytest.raises(TypeError):  # keywords only
            SwitchedField(lambda x, t: np.zeros(2), lambda x, t: np.zeros(2), 2)

    def test_hidden_g_only_composes(self):
        def g(x, t, lam):
            return np.array([5.0, 5.0])

        with pytest.raises(TypeError, match="hidden_g composes"):
            SwitchedField(dim=2, fused=lambda x, t, lam: (0.0, 1.0), hidden_g=g)
        sys = linear_system([1.0, 0.0], [0.0, 1.0], g=g)
        with pytest.raises(TypeError, match="hidden_g composes"):
            dataclasses.replace(sys, fused=lambda x, t, lam: (0.0, 1.0))
        np.testing.assert_array_equal(hidden_term(sys, np.zeros(2), 0.0), [-5.0, -5.0])

    def test_state_vector_carries_time(self):
        seen = {}

        def fp(x, t):
            seen["t"] = t
            return np.array([1.0, 0.0])

        sys = SwitchedField(f_plus=fp, f_minus=fp, dim=2)
        eval_field(sys, np.zeros(2), 1.0, t=7.0)
        assert seen["t"] == 7.0


class TestHiddenTerm:
    @given(lam=st.floats(-1.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_vanishes_exactly_at_boundaries_and_matches_formula_inside(self, lam):
        def g(x, t, lam):
            return np.array([x[1], lam])

        sys = linear_system([1.0, 0.0], [0.0, 1.0], g=g)
        x = np.array([0.0, 2.0])
        e = hidden_term(sys, x, lam)
        if abs(lam) == 1.0:
            np.testing.assert_array_equal(e, [0.0, 0.0])
        else:
            np.testing.assert_allclose(
                e, (lam * lam - 1.0) * np.array([2.0, lam]), rtol=1e-15)

    def test_zero_without_hidden_multiplier(self):
        sys = linear_system([1.0, 0.0], [0.0, 1.0])
        np.testing.assert_array_equal(hidden_term(sys, np.zeros(2), 0.3), [0, 0])


class TestRegimeClassification:
    def test_thresholding(self):
        sys = dataclasses.replace(linear_system([1.0, 0.0], [0.0, 1.0]),
                                  surface_tolerance=1e-6)
        assert regime_of(sys, np.array([1e-5, 0.0])) == "plus"
        assert regime_of(sys, np.array([-1e-5, 0.0])) == "minus"
        assert regime_of(sys, np.array([5e-7, 0.0])) == "on_surface"
        assert regime_of(sys, np.array([0.0, 9.0])) == "on_surface"

    def test_tolerance_must_be_positive(self):
        sys = linear_system([1.0, 0.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            dataclasses.replace(sys, surface_tolerance=0.0)

