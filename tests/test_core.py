"""The fused evaluator and its hidden term: evaluation, classification, validation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchlayer import (
    SURFACE_TOL,
    DimensionMismatchError,
    NonFiniteFieldError,
    SwitchedField,
    eval_field,
    hidden_term,
    make_example2,
    regime_of,
)

from fields import tautology


class TestEvalField:
    def test_boundary_values_are_exact_branch_evaluations(self):
        sys = tautology([1.0, -1.0], [-1.0, -1.0])
        x = np.array([0.3, 0.7])
        np.testing.assert_array_equal(eval_field(sys, x, 1.0), [1.0, -1.0])
        np.testing.assert_array_equal(eval_field(sys, x, -1.0), [-1.0, -1.0])

    def test_hidden_multiplier_never_called_at_boundaries(self):
        def g(x, t, lam):
            raise AssertionError("hidden multiplier evaluated at lam = +-1")

        sys = tautology([1.0, 0.0], [0.0, 1.0], g=g)
        x = np.array([0.0, 0.0])
        eval_field(sys, x, 1.0)
        eval_field(sys, x, -1.0)
        hidden_term(sys, x, 1.0)
        hidden_term(sys, x, -1.0)

    def test_interior_value_is_convex_combination_plus_hidden(self):
        def g(x, t, lam):
            return np.array([2.0, 0.0])

        sys = tautology([1.0, 1.0], [1.0, 1.0], g=g)
        x = np.array([0.0, 0.0])
        lam = 0.5
        # (1, 1) + (0.25 - 1)(2, 0) = (-0.5, 1)
        np.testing.assert_allclose(eval_field(sys, x, lam), [-0.5, 1.0],
                                   rtol=0, atol=1e-15)

    def test_lambda_out_of_range_rejected(self):
        sys = tautology([1.0, 0.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="lambda"):
            eval_field(sys, np.zeros(2), 1.0 + 1e-9)
        with pytest.raises(ValueError, match="lambda"):
            eval_field(sys, np.zeros(2), -2.0)

    def test_dimension_mismatch_rejected(self):
        sys = tautology([1.0, 0.0], [0.0, 1.0])
        with pytest.raises(DimensionMismatchError):
            eval_field(sys, np.zeros(3), 0.0)

    def test_non_finite_field_reported(self):
        sys = tautology([np.inf, 0.0], [0.0, 1.0])
        with pytest.raises(NonFiniteFieldError):
            eval_field(sys, np.zeros(2), 0.5)

    def test_field_needs_fused(self):
        def branch(x, t):
            return np.zeros(2)

        with pytest.raises(TypeError, match="fused"):
            SwitchedField(dim=2)
        # the branches are readings of fused, not fields
        with pytest.raises(TypeError, match="f_plus"):
            SwitchedField(dim=2, f_plus=branch)
        with pytest.raises(TypeError, match="f_minus"):
            SwitchedField(dim=2, f_minus=branch)
        with pytest.raises(TypeError):  # keywords only
            SwitchedField(branch, branch, 2)

    def test_three_fields(self):
        assert [f.name for f in dataclasses.fields(SwitchedField)] == [
            "dim", "fused", "time_dependent"]
        sys = tautology([1.0, 0.0], [0.0, 1.0])
        for name in ("f_plus", "f_minus", "hidden_g", "surface_tolerance"):
            with pytest.raises(TypeError, match=name):
                dataclasses.replace(sys, **{name: None})

    def test_removed_members_read_none(self):
        # read as None by tools that instrument every callable member
        sys = make_example2("nonlinear")
        assert sys.f_plus is None and sys.f_minus is None and sys.hidden_g is None

    def test_hidden_g_keyword_rejected(self):
        def g(x, t, lam):
            return np.array([5.0, 5.0])

        fused = tautology([1.0, 0.0], [0.0, 1.0], g=g).fused
        with pytest.raises(TypeError, match="hidden_g"):
            SwitchedField(dim=2, fused=fused, hidden_g=g)
        sys = SwitchedField(dim=2, fused=fused)
        with pytest.raises(TypeError, match="hidden_g"):
            dataclasses.replace(sys, hidden_g=g)
        np.testing.assert_array_equal(hidden_term(sys, np.zeros(2), 0.0), [-5.0, -5.0])

    def test_state_vector_carries_time(self):
        seen = {}

        def fp(x, t):
            seen["t"] = t
            return np.array([1.0, 0.0])

        sys = tautology(fp, fp)
        eval_field(sys, np.zeros(2), 1.0, t=7.0)
        assert seen["t"] == 7.0


class TestHiddenTerm:
    @given(lam=st.floats(-1.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_vanishes_exactly_at_boundaries_and_matches_formula_inside(self, lam):
        def g(x, t, lam):
            return np.array([x[1], lam])

        sys = tautology([1.0, 0.0], [0.0, 1.0], g=g)
        x = np.array([0.0, 2.0])
        e = hidden_term(sys, x, lam)
        if abs(lam) == 1.0:
            np.testing.assert_array_equal(e, [0.0, 0.0])
        else:
            # taken out of f(lam) by subtraction: the rounding of the
            # field's O(1) values stays in a term that vanishes at lam = +-1
            np.testing.assert_allclose(
                e, (lam * lam - 1.0) * np.array([2.0, lam]), rtol=1e-15, atol=1e-15)

    def test_zero_without_hidden_multiplier(self):
        # zero up to the rounding of the subtraction from f(lam)
        sys = tautology([1.0, 0.0], [0.0, 1.0])
        np.testing.assert_allclose(hidden_term(sys, np.zeros(2), 0.3), [0, 0],
                                   rtol=0, atol=1e-16)

    def test_branch_passed_through_replace_is_not_used(self):
        # a branch cannot be passed at all: hidden_term takes f+- from fused,
        # and (2 lam^2 - 1, 1) has f+- = (1, 1)
        sys = make_example2("nonlinear")
        with pytest.raises(TypeError, match="f_plus"):
            dataclasses.replace(sys, f_plus=lambda x, t: np.array([5.0, 5.0]))
        np.testing.assert_array_equal(hidden_term(sys, np.array([0.0, 0.3]), 0.0),
                                      [-2.0, 0.0])


class TestRegimeClassification:
    def test_thresholding(self):
        tol = SURFACE_TOL
        assert tol == 1e-9
        assert regime_of(np.array([10 * tol, 0.0])) == "plus"
        assert regime_of(np.array([-10 * tol, 0.0])) == "minus"
        assert regime_of(np.array([tol / 2, 0.0])) == "on_surface"
        assert regime_of(np.array([tol, 0.0])) == "on_surface"
        assert regime_of(np.array([-tol, 0.0])) == "on_surface"
        assert regime_of(np.array([0.0, 9.0])) == "on_surface"
