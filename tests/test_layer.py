"""Layer analysis: sliding roots, equilibria, classification, hybrid runs."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from switchlayer import (
    SURFACE_TOL,
    CircuitParams,
    DegenerateInclusionError,
    DimensionMismatchError,
    IntegrationError,
    IntegratorConfig,
    NonFiniteFieldError,
    SeriesExpansion,
    SigmoidSpec,
    SwitchedField,
    circuit_iv_to_state,
    classify_surface_point,
    find_layer_equilibria,
    find_sliding_modes,
    integrate_hybrid,
    integrate_layer_only,
    integrate_regularized,
    layer_amplitude,
    make_circuit,
    make_duffing,
    make_example1,
    make_example2,
    to_hidden_form,
)
from switchlayer.layer import _integrate_sliding

from fields import lam_tracker, tautology


def polynomial_system(coeffs):
    """System whose normal component is the polynomial sum c_n lam^n."""
    funcs = tuple(
        (lambda c: (lambda x: np.array([c, 0.0])))(c) for c in coeffs
    )
    return to_hidden_form(SeriesExpansion(funcs), dim=2)


class TestFindSlidingModes:
    def test_two_hidden_roots(self):
        roots = find_sliding_modes(make_example2("nonlinear"), np.array([0.0]))
        assert len(roots) == 2
        assert roots[0].lam_s == pytest.approx(-1 / np.sqrt(2), abs=1e-10)
        assert roots[1].lam_s == pytest.approx(1 / np.sqrt(2), abs=1e-10)
        assert roots[0].stability == "attracting"
        assert roots[1].stability == "repelling"
        for r in roots:
            np.testing.assert_allclose(r.sliding_field, [1.0])

    def test_continuous_variant_has_no_roots(self):
        assert find_sliding_modes(make_example2("continuous"), np.array([0.0])) == []

    def test_classic_attracting_root(self):
        sys = tautology([-1.0, 2.0], [3.0, 5.0])
        (root,) = find_sliding_modes(sys, np.array([0.0]))
        # f1 = 1 + (-2) lam = 0 at lam = 1/2
        assert root.lam_s == pytest.approx(0.5, abs=1e-10)
        assert root.stability == "attracting"
        # tangential part at lam = 1/2: 7/2 + (-3/2)(1/2) = 11/4
        np.testing.assert_allclose(root.sliding_field, [2.75], atol=1e-9)

    def test_against_polynomial_root_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            deg = int(rng.integers(1, 6))
            coeffs = rng.normal(size=deg + 1)
            sys = polynomial_system(coeffs)
            got = find_sliding_modes(sys, np.array([0.0]))
            # oracle: companion-matrix roots of the same polynomial
            all_roots = np.roots(coeffs[::-1])
            real = all_roots[np.abs(all_roots.imag) < 1e-9].real
            expected = np.sort(real[np.abs(real) <= 1.0])
            assert len(got) == len(expected)
            for r, e in zip(got, expected):
                assert r.lam_s == pytest.approx(e, abs=1e-8)
            # stability tags must match the sign of the derivative
            dpoly = np.polyder(np.poly1d(coeffs[::-1]))
            for r in got:
                d = dpoly(r.lam_s)
                if abs(d) > 1e-6:
                    want = "attracting" if d < 0 else "repelling"
                    assert r.stability == want

    def test_filippov_sign_test_on_random_linear_fields(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            fp = rng.normal(size=2)
            fm = rng.normal(size=2)
            sys = tautology(fp, fm)
            roots = find_sliding_modes(sys, np.array([0.0]))
            if fp[0] * fm[0] < 0:
                assert len(roots) == 1
                want = "attracting" if fp[0] < 0 else "repelling"
                assert roots[0].stability == want
            else:
                assert len(roots) <= 1  # same-sign boundaries: generic crossing
                if roots:
                    assert abs(roots[0].lam_s) <= 1.0

    def test_degenerate_inclusion_detected(self):
        sys = tautology([0.0, 1.0], [0.0, -1.0])  # f1 == 0 for all lam
        with pytest.raises(DegenerateInclusionError):
            find_sliding_modes(sys, np.array([0.0]))


def product_system(roots):
    """f1 = prod(lam - r) over roots (repeats allowed), evaluated as a product."""

    def fused(x, t, lam):
        return np.array([math.prod(lam - r for r in roots), 1.0 + x[1]])

    return SwitchedField(dim=2, fused=fused)


def grid_scan_modes(sys, x_rest, t=0.0):
    """The sign-change scan on 513 uniform lam values: the reference for
    every root it finds (kept as find_sliding_modes was before Chebyshev)."""
    x = np.zeros(sys.dim)
    x[1:] = x_rest
    feval = sys.fused  # every lam below lies in [-1, 1]

    def f1(lam):
        return float(feval(x, t, lam)[0])

    lams = np.linspace(-1.0, 1.0, 513)
    vals = np.array([feval(x, t, lm) for lm in lams.tolist()])[:, 0]
    roots = []

    def add(r):
        if all(abs(r - q) > 1e-9 for q in roots):
            roots.append(r)

    for i in range(512):
        a, b = lams[i], lams[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            add(a)
            continue
        if fb == 0.0:
            if i == 511:
                add(b)
            continue
        if fa * fb < 0:
            add(float(brentq(f1, a, b, xtol=1e-12, rtol=4 * np.finfo(float).eps)))
    out = []
    for r in sorted(roots):
        lo, hi = max(-1.0, r - 1e-6), min(1.0, r + 1e-6)
        d = (f1(hi) - f1(lo)) / (hi - lo)
        stab = "marginal" if abs(d) <= 1e-8 else ("attracting" if d < 0 else "repelling")
        out.append((r, stab, feval(x, t, r)[1:]))
    return out


def assert_same_as_grid_scan(sys, x_rest):
    got = find_sliding_modes(sys, np.array(x_rest))
    want = grid_scan_modes(sys, np.array(x_rest))
    assert [(r.lam_s, r.stability) for r in got] == [w[:2] for w in want]
    for r, w in zip(got, want):
        assert type(r.lam_s) is float
        np.testing.assert_array_equal(r.sliding_field, w[2])


class TestChebyshevRoots:
    """Roots the uniform grid misses: tangential, clustered, in one cell."""

    @pytest.mark.parametrize("multiple, simple", [
        ((0.3,), ()),                  # the switch_atlas tangential fields
        ((-0.55,), (0.8,)),
        ((0.1, -0.7), ()),
    ])
    def test_tangential_fields(self, multiple, simple):
        roots = [r for r in multiple for _ in range(2)] + list(simple)
        got = find_sliding_modes(polynomial_system(np.poly(roots)[::-1]), np.array([0.0]))
        assert [r.lam_s for r in got] == pytest.approx(sorted(multiple + simple), abs=1e-6)
        for r in got:
            if any(abs(r.lam_s - s) < 1e-6 for s in simple):
                assert r.lam_s == pytest.approx(0.8, abs=1e-9)
                assert r.stability == "repelling"
            else:
                assert r.stability == "marginal"

    def test_triple_root(self):
        (root,) = find_sliding_modes(polynomial_system(np.poly([0.5] * 3)[::-1]),
                                     np.array([0.0]))
        assert root.lam_s == pytest.approx(0.5, abs=1e-6)
        assert root.stability == "marginal"

    @pytest.mark.parametrize("pair", [(0.1, 0.101), (0.2975, 0.3)])
    def test_close_pair(self, pair):
        # (0.2975, 0.3) lie in one grid cell, [0.296875, 0.30078125]
        got = find_sliding_modes(polynomial_system(np.poly(pair)[::-1]), np.array([0.0]))
        assert [r.lam_s for r in got] == pytest.approx(pair, abs=1e-9)
        assert [r.stability for r in got] == ["attracting", "repelling"]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(-0.95, 0.95), st.integers(1, 3)),
                    min_size=1, max_size=4))
    def test_root_multiset(self, draws):
        distinct = []
        for r, m in sorted(draws):
            if all(abs(r - q) >= 0.1 for q, _ in distinct):
                distinct.append((r, m))
        got = find_sliding_modes(product_system([r for r, m in distinct for _ in range(m)]),
                                 np.array([0.0]))
        assert [r.lam_s for r in got] == pytest.approx([r for r, _ in distinct], abs=1e-6)
        for sol, (r, m) in zip(got, distinct):
            assert (sol.stability == "marginal") == (m > 1)
            if m == 1:
                assert sol.lam_s == pytest.approx(r, abs=1e-9)

    def test_same_roots_as_grid_scan(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            roots = []
            while len(roots) < int(rng.integers(1, 6)):
                r = float(rng.uniform(-1.5, 1.5))
                if all(abs(r - q) >= 0.01 for q in roots):
                    roots.append(r)
            coeffs = float(rng.uniform(0.5, 2.0)) * np.poly(roots)[::-1]
            tangential = rng.normal(size=coeffs.size)
            funcs = tuple((lambda c, d: (lambda x: np.array([c, d * (1.0 + x[1])])))(c, d)
                          for c, d in zip(coeffs, tangential))
            assert_same_as_grid_scan(to_hidden_form(SeriesExpansion(funcs), dim=2),
                                     [float(rng.uniform(-1.0, 1.0))])
        for make, variants in ((make_example1, ("filippov", "nonlinear")),
                               (make_example2, ("continuous", "nonlinear"))):
            for v in variants:
                assert_same_as_grid_scan(make(v), [0.0])
        for sigma in (0.0, 0.3, 0.5):
            sys = make_circuit(CircuitParams(sigma=sigma))
            for current in np.linspace(-0.5, 6.0, 60):
                assert_same_as_grid_scan(sys, [current])

    def test_kink_falls_back_to_grid_scan(self):
        # |lam - 0.2| - 0.1 is not resolved by Chebyshev sampling at 512 cells
        def fused(x, t, lam):
            return np.array([abs(lam - 0.2) - 0.1, 1.0])

        sys = SwitchedField(dim=2, fused=fused)
        got = find_sliding_modes(sys, np.array([0.0]))
        assert [r.lam_s for r in got] == pytest.approx([0.1, 0.3], abs=1e-9)
        assert_same_as_grid_scan(sys, [0.0])

    def test_zero_on_half_the_layer_is_degenerate(self):
        def fused(x, t, lam):
            return np.array([max(lam, 0.0), 1.0])

        sys = SwitchedField(dim=2, fused=fused)
        with pytest.raises(DegenerateInclusionError):
            find_sliding_modes(sys, np.array([0.0]))


class TestNonFiniteField:
    """The root finders evaluate unchecked and test the collected values."""

    @staticmethod
    def infinite_inside_layer():
        return tautology([-1.0, 0.0], [1.0, 0.0],
                         g=lambda x, t, lam: np.array([np.inf, 0.0]))

    def test_sliding_modes_raise(self):
        with pytest.raises(NonFiniteFieldError):
            find_sliding_modes(self.infinite_inside_layer(), np.array([0.0]))

    def test_layer_equilibria_raise(self):
        # the typed error comes alone, without a numpy warning before it
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteFieldError):
                find_layer_equilibria(self.infinite_inside_layer(), [(-1, 1), (-5, 5)])


class TestRestShape:
    """x_rest is (x2, ..., xn): a short or long one is rejected, not broadcast."""

    @pytest.mark.parametrize("factory, x_rest", [
        (lambda: lam_tracker(make_duffing()), [0.3]),
        (lambda: make_example2(), [0.3, 0.1]),
    ], ids=["short", "long"])
    def test_wrong_length_rejected(self, factory, x_rest):
        sys = factory()
        shapes = rf"\({sys.dim - 1},\).*\({len(x_rest)},\)"
        with pytest.raises(DimensionMismatchError, match=shapes):
            find_sliding_modes(sys, np.array(x_rest))
        with pytest.raises(DimensionMismatchError, match=shapes):
            classify_surface_point(sys, np.array(x_rest), 0.0, "plus")
        with pytest.raises(DimensionMismatchError, match=shapes):
            integrate_layer_only(sys, 0.0, np.array(x_rest), (0.0, 1.0))


class TestClassifySurfacePoint:
    def test_attracting_sliding_detected(self):
        sys = tautology([-1.0, 1.0], [1.0, 1.0])
        kind, sol = classify_surface_point(sys, np.array([0.0]), 0.0, "minus")
        assert kind == "stick"
        assert sol.lam_s == pytest.approx(0.0, abs=1e-10)

    def test_crossing_detected(self):
        sys = tautology([1.0, 1.0], [1.0, -1.0])
        kind, sol = classify_surface_point(sys, np.array([0.0]), 0.0, "minus")
        assert kind == "cross"
        assert sol is None

    def test_first_root_in_travel_direction_wins(self):
        roots = find_sliding_modes(make_example2("nonlinear"), np.array([0.0]))
        kind, sol = classify_surface_point(make_example2("nonlinear"),
                                           np.array([0.0]), 0.0, "minus")
        assert kind == "stick"
        assert sol.lam_s == pytest.approx(roots[0].lam_s)  # -1/sqrt(2)

    def test_time_dependent_defers_to_layer(self):
        kind, sol = classify_surface_point(make_duffing(), np.array([0.0]),
                                           0.0, "minus")
        assert kind == "layer_dynamic"
        assert sol is None

    def test_entry_side_validated(self):
        with pytest.raises(ValueError):
            classify_surface_point(make_example2(), np.array([0.0]), 0.0, "up")


class TestFindLayerEquilibria:
    def test_linear_oracle(self):
        # f1 = 0.3 - lam, rest relaxing to 2: equilibrium (0.3, 2), eigenvalues -1, -1
        def fp(x, t):
            return np.array([-0.7, 2.0 - x[1]])

        def fm(x, t):
            return np.array([1.3, 2.0 - x[1]])

        sys = tautology(fp, fm)
        eqs = find_layer_equilibria(sys, [(-1, 1), (-5, 5)])
        assert len(eqs) == 1
        eq = eqs[0]
        assert eq.lam_e == pytest.approx(0.3, abs=1e-8)
        assert eq.x_rest[0] == pytest.approx(2.0, abs=1e-8)
        assert eq.classification == "node"
        np.testing.assert_allclose(np.sort(eq.eigenvalues.real), [-1, -1],
                                   atol=1e-5)

    def test_no_equilibrium_outside_box(self):
        def fp(x, t):
            return np.array([-0.7, 1.0])

        def fm(x, t):
            return np.array([1.3, 1.0])

        sys = tautology(fp, fm)
        assert find_layer_equilibria(sys, [(-1, 1), (-5, 5)]) == []

    @pytest.mark.parametrize("fused, classification, eigenvalues", [
        (lambda x, t, lam: (-lam - x[1], lam - x[1]), "focus", [-1 - 1j, -1 + 1j]),
        (lambda x, t, lam: (-x[1], lam), "nonhyperbolic", [-1j, 1j]),
    ], ids=["focus", "nonhyperbolic"])
    def test_classification(self, fused, classification, eigenvalues):
        # one rest point at (lam, x2) = (0, 0)
        (eq,) = find_layer_equilibria(SwitchedField(dim=2, fused=fused), [(-1, 1), (-5, 5)])
        assert eq.lam_e == pytest.approx(0.0, abs=1e-9)
        assert eq.x_rest[0] == pytest.approx(0.0, abs=1e-9)
        assert eq.classification == classification
        np.testing.assert_allclose(np.sort_complex(eq.eigenvalues), eigenvalues, atol=1e-6)

    def test_singular_seeds_are_dropped_alone(self):
        # J = [[x2, lam], [0, 1]] is singular on the seed row x2 = 0; the
        # other seeds still converge to the one rest point (0.25, 2)
        sys = SwitchedField(dim=2, fused=lambda x, t, lam: (x[1] * lam - 0.5, x[1] - 2.0))
        (eq,) = find_layer_equilibria(sys, [(-1, 1), (0, 7)])
        assert (eq.lam_e, eq.x_rest.tolist()) == (0.25, [2.0])
        assert eq.classification == "node"

    @staticmethod
    def bilinear_roots(a, c, z0):
        """Rest points of F = A u + c u1 u2, u = z - z0, with their classes.

        c2 F1 - c1 F2 = 0 is linear in u, so besides u = 0 there is at
        most one more root, on the line u2 = k u1.
        """
        roots = [np.zeros(2)]
        m = c[1] * a[0] - c[0] * a[1]
        if abs(m[1]) > 1e-3:
            k = -m[0] / m[1]
            if abs(c[0] * k) > 1e-3:
                u1 = -(a[0, 0] + a[0, 1] * k) / (c[0] * k)
                roots.append(np.array([u1, k * u1]))
        out = []
        for u in roots:
            J = a + np.outer(c, [u[1], u[0]])
            eigs = np.linalg.eigvals(J)
            disc = np.trace(J) ** 2 - 4 * np.linalg.det(J)
            if np.abs(eigs.real).min() < 0.05 or abs(disc) < 0.05:
                return None  # too close to a class boundary to test
            cls = ("focus" if disc < 0 else
                   "saddle" if eigs.real.min() < 0 < eigs.real.max() else "node")
            out.append((z0 + u, cls))
        return out

    def test_bilinear_fields_against_closed_form(self):
        rng = np.random.default_rng(11)
        box = [(-1.0, 1.0), (-3.0, 3.0)]
        tested = 0
        while tested < 25:
            a, c = rng.normal(size=(2, 2)), rng.normal(size=2)
            z0 = np.array([rng.uniform(-0.8, 0.8), rng.uniform(-2.5, 2.5)])
            expected = self.bilinear_roots(a, c, z0)
            if expected is None:
                continue
            # keep the draw if no root lies near the box's edge
            inside = []
            for z, cls in expected:
                gap = min(min(z[i] - lo, hi - z[i]) for i, (lo, hi) in enumerate(box))
                if abs(gap) < 0.1:
                    break
                if gap > 0:
                    inside.append((z, cls))
            else:
                def fused(x, t, lam, a=a, c=c, z0=z0):
                    u = (lam - z0[0], x[1] - z0[1])
                    return tuple(a[i, 0] * u[0] + a[i, 1] * u[1] + c[i] * u[0] * u[1]
                                 for i in range(2))

                eqs = find_layer_equilibria(SwitchedField(dim=2, fused=fused), box)
                got = sorted(((eq.lam_e, eq.x_rest[0]), eq.classification) for eq in eqs)
                want = sorted(((z[0], z[1]), cls) for z, cls in inside)
                assert [cls for _, cls in got] == [cls for _, cls in want]
                np.testing.assert_allclose([z for z, _ in got], [z for z, _ in want],
                                           atol=1e-9)
                tested += 1

    def test_non_finite_on_some_seeds_raises(self):
        # the field is finite on the seeds with x2 < 2.5 only
        sys = SwitchedField(dim=2, fused=lambda x, t, lam: (
            lam - 0.3 if x[1] < 2.5 else math.nan, x[1] - 1.0))
        with pytest.raises(NonFiniteFieldError):
            find_layer_equilibria(sys, [(-1, 1), (0, 3)])

    def test_time_dependent_rejected(self):
        with pytest.raises(ValueError):
            find_layer_equilibria(make_duffing(), [(-1, 1), (-5, 5)])

    def test_box_dimension_validated(self):
        with pytest.raises(ValueError):
            find_layer_equilibria(make_example2(), [(-1, 1)])

    @pytest.mark.parametrize("box", [[(1, -1), (0, 30)], [(-1, 1), (30, 0)]])
    def test_reversed_box_axis_rejected(self, box):
        # unchecked, a reversed axis gave no seeds inside the box and so []
        sys = make_circuit(CircuitParams(sigma=0.5))
        with pytest.raises(ValueError, match="lo <= hi"):
            find_layer_equilibria(sys, box)
        (eq,) = find_layer_equilibria(sys, [(-1, 1), (0, 30)])
        assert eq.lam_e == pytest.approx(2 / 3, abs=1e-8)


class TestIntegrateHybrid:
    def test_free_then_stick(self):
        sys = make_example2("nonlinear")
        traj = integrate_hybrid(sys, np.array([-0.3, 0.0]), (0.0, 1.0))
        assert [kind for _, kind in traj.transitions] == ["stick"]
        assert traj.transitions[0][0] == pytest.approx(0.3, abs=1e-8)
        assert traj.segments[0].regime == "free_minus"
        assert traj.segments[1].regime == "sliding"
        # sliding keeps v = 0 and moves tangentially at unit speed
        assert traj.x_final[0] == 0.0
        assert traj.x_final[1] == pytest.approx(1.0, abs=1e-7)
        lam = traj.segments[1].lam
        np.testing.assert_allclose(lam, -1 / np.sqrt(2), atol=1e-8)

    def test_crossing(self):
        sys = tautology([1.0, 1.0], [1.0, -1.0])
        traj = integrate_hybrid(sys, np.array([-0.3, 0.0]), (0.0, 1.0))
        assert [kind for _, kind in traj.transitions] == ["cross_up"]
        assert traj.segments[-1].regime == "free_plus"
        assert traj.x_final[0] == pytest.approx(0.7, abs=1e-7)

    def test_slide_until_boundary_exit(self):
        # f1_plus = x2 - 1 drifts the sliding root to the layer boundary
        def fp(x, t):
            return np.array([x[1] - 1.0, 1.0])

        def fm(x, t):
            return np.array([1.0, 1.0])

        sys = tautology(fp, fm)
        traj = integrate_hybrid(sys, np.array([-0.5, 0.0]), (0.0, 2.0))
        kinds = [kind for _, kind in traj.transitions]
        assert kinds[:2] == ["stick", "exit_slide"]
        t_stick, t_exit = traj.transitions[0][0], traj.transitions[1][0]
        assert t_stick == pytest.approx(0.5, abs=1e-7)
        assert t_exit == pytest.approx(1.0, abs=1e-6)  # lam_s = 1 at x2 = 1
        assert traj.segments[-1].regime == "free_plus"

    def test_three_dimensional_slide_against_closed_form(self):
        # from x1 = 0.1 on the plus side, x1 = 0.1 - t + t^2/4 and x2 = x3 = t
        # until the hit at t_hit = 2 - sqrt(3.6); there the slide lam_s = x2/2
        # carries x3 = t_hit + (t^2 - t_hit^2)/4 until lam_s = 1 at t = 2
        sys = SwitchedField(dim=3, fused=lambda x, t, lam: (0.5 * x[1] - lam, 1.0, lam))
        traj = integrate_hybrid(sys, np.array([0.1, 0.0, 0.0]), (0.0, 3.0))
        (t_stick, stick), (t_exit, leave) = traj.transitions[:2]
        assert (stick, leave) == ("stick", "exit_slide")
        t_hit = 2.0 - math.sqrt(3.6)
        assert abs(t_stick - t_hit) < 1e-9
        assert abs(t_exit - 2.0) < 1e-9
        slide = traj.segments[1]
        assert slide.regime == "sliding"
        t = slide.t
        assert np.abs(slide.x[:, 1] - t).max() < 1e-9
        assert np.abs(slide.lam - 0.5 * slide.x[:, 1]).max() < 1e-9
        assert np.abs(slide.x[:, 2] - (t_hit + (t ** 2 - t_hit ** 2) / 4)).max() < 1e-9

    def test_layer_transit_crossing(self):
        sys = tautology([1.0, 0.0], [1.0, 0.0], time_dependent=True)
        eps_layer = 1e-4
        traj = integrate_hybrid(sys, np.array([-0.2, 0.0]), (0.0, 1.0),
                                eps_layer=eps_layer)
        kinds = [kind for _, kind in traj.transitions]
        assert kinds[:2] == ["layer_enter", "layer_exit"]
        transit = traj.transitions[1][0] - traj.transitions[0][0]
        assert transit == pytest.approx(2 * eps_layer, rel=1e-3)
        assert traj.segments[-1].regime == "free_plus"

    def test_layer_capture(self):
        # attracting layer with an interior rest point: lam settles at 0
        sys = tautology([-1.0, 0.5], [1.0, 0.5], time_dependent=True)
        traj = integrate_hybrid(sys, np.array([-0.2, 0.0]), (0.0, 1.0),
                                eps_layer=1e-4)
        assert [kind for _, kind in traj.transitions] == ["layer_enter"]
        seg = traj.segments[-1]
        assert seg.regime == "layer_transit"
        assert seg.lam[-1] == pytest.approx(0.0, abs=1e-6)
        assert seg.t_final == pytest.approx(1.0)

    def test_transition_continuity(self):
        tol = SURFACE_TOL
        configs = [
            (make_example2("nonlinear"), np.array([-0.3, 0.0])),
            (tautology([1.0, 1.0], [1.0, -1.0]), np.array([-0.3, 0.0])),
        ]
        for sys, x0 in configs:
            traj = integrate_hybrid(sys, x0, (0.0, 1.0))
            for prev, nxt in zip(traj.segments, traj.segments[1:]):
                gap = np.linalg.norm(nxt.x[0] - prev.x_final)
                assert gap <= 10 * tol

    @pytest.mark.parametrize("x0, regime", [
        ([0.5, 0.0], "free_plus"), ([-0.5, 0.1], "free_minus"), ([0.0, 0.3], "sliding")])
    @pytest.mark.parametrize("t_span", [(0.0, 1e-15), (1.0, 1.0 + 4e-15)])
    def test_span_shorter_than_tolerance_gives_a_segment(self, x0, regime, t_span):
        traj = integrate_hybrid(make_example1(), x0, t_span)
        assert [seg.regime for seg in traj.segments] == [regime]
        assert traj.segments[0].t[0] == t_span[0] and traj.t_final == t_span[1]

    def test_eps_layer_validated(self):
        with pytest.raises(ValueError):
            integrate_hybrid(make_example2(), np.array([-0.3, 0.0]), (0.0, 1.0),
                             eps_layer=0.0)

    @pytest.mark.parametrize("eps_layer", [math.nan, math.inf])
    def test_non_finite_eps_layer_rejected(self, eps_layer):
        with pytest.raises(ValueError, match="eps_layer"):
            integrate_hybrid(make_example2(), np.array([-0.3, 0.0]), (0.0, 1.0),
                             eps_layer=eps_layer)


class TestCircuitCriticalImperfection:
    """The paper's circuit claim: a slight imperfection sigma flips the fate.

    The flow off the surface does not depend on sigma, so the run from
    (I, V) = (0, 0) sticks at one current, I_entry, for every sigma.  The
    slide escapes once the layer saddle's current Vb / (R p(mu0)),
    mu0 = V0 / Vb, falls below I_entry, that is above
    sigma* = (1 - Vb / (R mu0 I_entry)) / (1 - mu0).  Near sigma* the slide
    passes the saddle, whose sliding flow repels at the rate
    kappa = R p(mu0)^2 / (L p'(mu0)), so its duration grows by ln 10 / kappa
    per decade of sigma - sigma*.
    """

    T_ENTRY, I_ENTRY = 4.8122401011, 2.0755570677  # the closed circuit's exact flow
    SIGMA_STAR = 0.449682844651

    def run(self, sigma):
        p = CircuitParams(sigma=sigma)
        return integrate_hybrid(make_circuit(p), circuit_iv_to_state(0.0, 0.0, p),
                                (0.0, 200.0), IntegratorConfig(max_step=0.05))

    def test_sigma_star_closed_form(self):
        p = CircuitParams()
        mu0 = p.V0 / p.Vb
        sigma_star = (1.0 - p.Vb / (p.R * mu0 * self.I_ENTRY)) / (1.0 - mu0)
        # I_ENTRY's ten digits carry sigma* to about 1e-10
        assert sigma_star == pytest.approx(self.SIGMA_STAR, abs=1e-9)

    def test_fate_flips_at_sigma_star_and_slide_time_law(self):
        slide = []
        for k in (3, 4, 5, 6):
            above = self.run(self.SIGMA_STAR + 10.0**-k)
            below = self.run(self.SIGMA_STAR - 10.0**-k)
            for traj in (above, below):
                t_stick, kind = traj.transitions[0]
                assert kind == "stick"
                assert t_stick == pytest.approx(self.T_ENTRY, abs=1e-7)
                assert traj.segments[1].x[0, 1] == pytest.approx(self.I_ENTRY, abs=1e-7)
            assert [kind for _, kind in above.transitions] == ["stick", "exit_slide"], k
            assert [kind for _, kind in below.transitions] == ["stick"], k
            assert below.t_final == 200.0
            slide.append(above.transitions[1][0] - above.transitions[0][0])

        p = CircuitParams(sigma=self.SIGMA_STAR)
        mu0 = p.V0 / p.Vb
        kappa = p.R * p.p_of_mu(mu0) ** 2 / (p.L * (1.0 - p.sigma * (1.0 - 2.0 * mu0)))
        per_decade = math.log(10.0) / kappa
        assert per_decade == pytest.approx(6.7152, abs=1e-4)
        np.testing.assert_allclose(np.diff(slide), per_decade, rtol=0.01)


def _fuzz_system(rng, hidden):
    """f+- = A+- x + b+- with N(0, 1) entries; g = h (1 + lam) when hidden."""
    Ap, Am = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    bp, bm = rng.normal(size=2), rng.normal(size=2)
    h = rng.normal(size=2) if hidden else None
    return tautology(lambda x, t: Ap @ x + bp, lambda x, t: Am @ x + bm,
                     None if h is None else lambda x, t, lam: h * (1.0 + lam))


def assert_complete(traj, t_end):
    assert traj.t_final == pytest.approx(t_end, abs=1e-12)
    for prev, nxt in zip(traj.segments, traj.segments[1:]):
        assert np.linalg.norm(nxt.x[0] - prev.x_final) <= 1e-8
        assert nxt.t[0] == prev.t_final


def recipe_draw(draw):
    """(A, B, x0) of draw ``draw`` of one default_rng(7) stream.

    Every earlier draw is taken in order from the seed.  Dim 2 on even
    draws and 3 on odd ones; A_k, B_k (k = 0..3) and x0 all N(0, 1).
    """
    rng = np.random.default_rng(7)
    for k in range(draw + 1):
        d = 2 if k % 2 == 0 else 3
        A, B = rng.standard_normal((4, d, d)), rng.standard_normal((4, d))
        x0 = rng.standard_normal(d)
    return A, B, x0


def recipe_field(A, B, as_tuple=True):
    """The field f = sum_k lam^k (A_k x + B_k), k = 0..3."""
    def fused(x, t, lam):
        v = sum(lam ** k * (A[k] @ x + B[k]) for k in range(4))
        return tuple(v.tolist()) if as_tuple else v

    return SwitchedField(dim=len(B[0]), fused=fused)


RECIPE_CFG = IntegratorConfig(max_step=0.05, max_steps=200_000)


class TestSlidingRobustness:
    def test_random_affine_systems_complete(self):
        # the slides of draws 32, 66, 90 and 130 end at a fold of the root
        rng = np.random.default_rng(0)
        cfg = IntegratorConfig(max_step=0.05)
        for k in range(150):
            sys = _fuzz_system(rng, hidden=k % 2 == 0)
            x0 = rng.normal(size=2)
            assert_complete(integrate_hybrid(sys, x0, (0.0, 5.0), cfg), 5.0)

    def test_fold_exit_to_free_flight(self):
        # f1 = lam^2 + x2 - 1/4: the attracting root -sqrt(1/4 - x2) meets
        # the repelling one at x2 = 1/4 (t = 1/4); past it f1 > 0 pushes lam up
        f = lambda x, t: np.array([x[1] + 0.75, 1.0])  # noqa: E731
        sys = tautology(f, f, lambda x, t, lam: np.array([1.0, 0.0]))
        traj = integrate_hybrid(sys, np.array([-0.1, 0.0]), (0.0, 1.0))
        assert [k for _, k in traj.transitions] == ["stick", "exit_slide"]
        assert traj.transitions[1][0] == pytest.approx(0.25, abs=1e-6)
        slide = traj.segments[1]
        np.testing.assert_allclose(slide.lam, -np.sqrt(0.25 - slide.x[:, 1]), atol=1e-6)
        assert slide.lam[-1] == pytest.approx(0.0, abs=1e-6)
        assert [s.regime for s in traj.segments] == ["free_minus", "sliding", "free_plus"]
        assert_complete(traj, 1.0)

    def test_fold_exit_sticks_on_the_root_ahead(self):
        # f1 = -(lam^2 + x2 - 1/4)(lam - 1/2): past the fold f1 = lam^2/2
        # near lam = 0, so the fast flow runs up to the root lam = 1/2
        sys = tautology(lambda x, t: np.array([-0.5 * x[1] - 0.375, 1.0]),
                        lambda x, t: np.array([1.5 * x[1] + 1.125, 1.0]),
                        lambda x, t, lam: np.array([0.5 - lam, 0.0]))
        for lam in (-0.7, -0.2, 0.3, 0.9):
            want = -(lam * lam + 0.1 - 0.25) * (lam - 0.5)
            assert sys.fused(np.array([0.0, 0.1]), 0.0, lam)[0] == pytest.approx(want)
        traj = integrate_hybrid(sys, np.array([-0.1, 0.0]), (0.0, 1.0))
        assert [k for _, k in traj.transitions] == ["stick", "exit_slide", "stick"]
        assert traj.transitions[1][0] == pytest.approx(0.25, abs=1e-6)
        assert [s.regime for s in traj.segments] == ["free_minus", "sliding", "sliding"]
        np.testing.assert_allclose(traj.segments[-1].lam, 0.5, atol=1e-9)
        assert_complete(traj, 1.0)

    def test_boundary_exit_time_matches_reduced_equation(self):
        # sigma = 1/2 circuit from (0, 0): the slide leaves through lam = +1
        # at I = Vb / R = 1.6; on it dI/dt = (V0 - mu_s Vb) / L, with mu_s
        # the root of I R (mu - sigma (1 - mu) mu) = Vb
        p = CircuitParams(sigma=0.5)
        traj = integrate_hybrid(make_circuit(p), circuit_iv_to_state(0.0, 0.0, p),
                                (0.0, 15.0), IntegratorConfig(max_step=0.05))
        (t_stick, stick), (t_exit, leave) = traj.transitions[:2]
        assert (stick, leave) == ("stick", "exit_slide")
        slide = traj.segments[1]

        def rate(t, y):
            c = p.Vb / (y[0] * p.R)
            mu = (math.sqrt((1 - p.sigma) ** 2 + 4 * p.sigma * c) - (1 - p.sigma)) / (2 * p.sigma)
            return [(p.V0 - mu * p.Vb) / p.L]

        at_exit = lambda t, y: y[0] - p.Vb / p.R  # noqa: E731
        at_exit.terminal = True
        ref = solve_ivp(rate, (t_stick, 15.0), [slide.x[0, 1]], rtol=1e-13, atol=1e-14,
                        events=at_exit)
        assert t_exit == pytest.approx(ref.t_events[0][0], abs=1e-8)
        assert slide.lam[-1] == 1.0

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), cubic=st.booleans(),
           x0=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
    def test_random_polynomial_fields_never_raise(self, seed, cubic, x0):
        # affine in x; through g = G x + h0 + h1 lam, up to cubic in lam
        rng = np.random.default_rng(seed)
        Ap, Am, G = rng.normal(size=(3, 2, 2))
        bp, bm, h0, h1 = rng.normal(size=(4, 2)) * [[1], [1], [1], [cubic]]
        sys = tautology(lambda x, t: Ap @ x + bp, lambda x, t: Am @ x + bm,
                        lambda x, t, lam: G @ x + h0 + h1 * lam)
        traj = integrate_hybrid(sys, np.array(x0), (0.0, 2.0), IntegratorConfig(max_step=0.05))
        assert_complete(traj, 2.0)

    @pytest.mark.parametrize("draw,as_tuple", [(35, True), (47, True), (35, False)],
                             ids=["35-tuple", "47-tuple", "35-array"])
    def test_secant_step_below_one_ulp_converges(self, draw, as_tuple):
        # These unstable flows slide at |x| ~ 1e5, where f1's rounding
        # floor lies above the root tolerance and the secant step f1/slope
        # falls below one ulp of lam.  A float64 array return used to give
        # a 0/0 slope there, not a crash
        A, B, x0 = recipe_draw(draw)
        traj = integrate_hybrid(recipe_field(A, B, as_tuple), x0, (0.0, 5.0), RECIPE_CFG)
        assert traj.t_final == 5.0
        assert "sliding" in [s.regime for s in traj.segments]
        for prev, nxt in zip(traj.segments, traj.segments[1:]):
            assert np.abs(nxt.x[0] - prev.x_final).max() <= 1e-6

    @pytest.mark.parametrize("draw", range(60))
    def test_recipe_draws_end_or_raise_typed(self, draw):
        # a run ends at t_end or with one of the library's typed errors
        A, B, x0 = recipe_draw(draw)
        try:
            traj = integrate_hybrid(recipe_field(A, B), x0, (0.0, 5.0), RECIPE_CFG)
        except (IntegrationError, NonFiniteFieldError, DegenerateInclusionError):
            return
        assert traj.t_final == 5.0
        for prev, nxt in zip(traj.segments, traj.segments[1:]):
            assert np.abs(nxt.x[0] - prev.x_final).max() <= 1e-6

    def test_sliding_errors_name_phase_and_state(self):
        sys = make_example2("nonlinear")
        with pytest.raises(IntegrationError,
                           match=r"sliding phase at t=0\.\d+, x_rest=\[0\.\d+\], "
                                 r"lam=-0\.707107: step budget of 5 exceeded") as err:
            integrate_hybrid(sys, np.array([-0.01, 0.0]), (0.0, 1.0),
                             IntegratorConfig(max_steps=5))
        # x1 and x2 both rise at rate 1 to the stick point (0, 0.01) at
        # t = 0.01, then x2 slides on at rate 1: x_rest = t at the printed t
        t, x_rest = re.search(r"t=(\S+), x_rest=\[(\S+)\]", str(err.value)).groups()
        assert float(x_rest) == pytest.approx(float(t), abs=1e-5)

    def test_slide_solves_once_per_stage(self):
        # example 1 slides on f1 = lam = 0, where the carried anchor is the
        # root: one field call a solve.  An accepted DOPRI5 step makes six
        # stage solves, takes its sample's solve from the last stage's, and
        # adds one call for d f1/d lam there.  Seven calls start the slide:
        # the anchor's slope (2), the start's solve and slope (2), the
        # loop's first stage and its slope (2), and the first-step probe.
        sys, calls = make_example1(), []
        counted = dataclasses.replace(sys, fused=lambda x, t, lam: calls.append(t)
                                      or sys.fused(x, t, lam))
        root = find_sliding_modes(sys, np.array([0.4]))[0]
        seg, side, _ = _integrate_sliding(counted, np.array([0.0, 0.4]), (0.0, 2.0),
                                          IntegratorConfig(max_step=0.05), root)
        assert side is None and seg.t.size == 42
        assert len(calls) == 7 * (seg.t.size - 1) + 7

    @staticmethod
    def failing_example2(value):
        # example 2 slides on lam = -1/sqrt(2) with x2 rising at rate 1;
        # from x2 = 0.5 on, f1 is value() instead
        def fused(x, t, lam):
            return (2.0 * lam * lam - 1.0 if x[1] < 0.5 else value(), 1.0)
        return dataclasses.replace(make_example2("nonlinear"), fused=fused)

    def test_non_finite_f1_mid_slide_names_phase_and_state(self):
        sys = self.failing_example2(lambda: math.nan)
        with pytest.raises(IntegrationError,
                           match=r"sliding phase at t=0\.\d+, x_rest=\[0\.\d+\], "
                                 r"lam=-0\.707107: non-finite field value"):
            integrate_hybrid(sys, np.array([-0.01, 0.0]), (0.0, 1.0))

    def test_field_error_mid_slide_keeps_its_type(self):
        def boom():
            raise ValueError("boom at x2 = 0.5")
        sys = self.failing_example2(boom)
        with pytest.raises(ValueError, match="boom at x2 = 0.5") as err:
            integrate_hybrid(sys, np.array([-0.01, 0.0]), (0.0, 1.0))
        assert not isinstance(err.value, IntegrationError)


class TestIntegrateLayerOnly:
    def test_relaxation_inside_layer(self):
        sys = tautology([-2.0, 0.0], [2.0, 0.0])
        eps_layer = 1e-3
        seg = integrate_layer_only(sys, -0.9, np.array([0.0]), (0.0, 0.1),
                                   eps_layer=eps_layer)
        # d lam/dt = -2 lam / eps_layer: exponential decay toward 0
        assert seg.lam[-1] == pytest.approx(0.0, abs=1e-6)
        assert np.all(np.abs(seg.lam) <= 1.0 + 1e-12)
        assert seg.regime == "layer_transit"
        np.testing.assert_array_equal(seg.x[:, 0], 0.0)

    def test_forced_oscillation_stays_in_layer(self):
        cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9, max_step=0.05)
        seg = integrate_layer_only(make_duffing(), 0.0, np.array([0.0]),
                                   (0.0, 30.0), cfg, eps_layer=1e-4)
        assert seg.t_final == pytest.approx(30.0)
        assert np.max(np.abs(seg.lam)) > 0.1  # sustained hidden oscillation
        assert np.all(np.abs(seg.lam) <= 1.0 + 1e-9)

    @pytest.mark.parametrize("eps_layer", [0.0, -1e-4, math.inf])
    def test_eps_layer_validated(self, eps_layer):
        with pytest.raises(ValueError, match="eps_layer"):
            integrate_layer_only(make_duffing(), 0.0, np.array([0.0]), (0.0, 2.0),
                                 eps_layer=eps_layer)

    def test_step_budget_leaks_no_solver_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError):
                integrate_layer_only(make_duffing(), 0.5, np.array([0.0]), (0.0, 1.0),
                                     IntegratorConfig(max_steps=3))

    @pytest.mark.parametrize("lam0, x2", [(0.01, -0.004), (-0.2, 0.05),
                                          (0.3, -0.16), (0.0, 0.001)])
    def test_exit_time_matches_tight_reference(self, lam0, x2):
        # exits are located on the step's cubic Hermite interpolant, also
        # on the long steps of the layer's 8th-order method
        eps_layer = 1e-3
        sys = SwitchedField(dim=2, time_dependent=True, fused=lambda x, t, lam: (
            x[1] + 0.5 * lam * math.cos(t), -lam))

        def rhs(t, z):
            return [(z[1] + 0.5 * z[0] * math.cos(t)) / eps_layer, -z[0]]

        def boundary(side):
            def g(t, z):
                return z[0] - side
            g.terminal, g.direction = True, side
            return g

        ref = solve_ivp(rhs, (0.0, 1.0), [lam0, x2], method="DOP853", rtol=1e-12,
                        atol=1e-14, events=(boundary(1.0), boundary(-1.0)))
        assert ref.status == 1
        side = 1.0 if ref.t_events[0].size else -1.0
        seg = integrate_layer_only(sys, lam0, np.array([x2]), (0.0, 1.0),
                                   eps_layer=eps_layer)
        assert abs(seg.t_final - ref.t[-1]) < 1e-9
        assert seg.lam[-1] == pytest.approx(side, abs=1e-12)


# returned as is by the field's fused at lam = +-1
F_PLUS = np.array([-1.0, 1.0])
F_MINUS = np.array([1.0, 0.5])


def test_runs_never_write_into_field_arrays():
    before = F_PLUS.copy(), F_MINUS.copy()
    sys = tautology(F_PLUS, F_MINUS)
    assert sys.fused(np.zeros(2), 0.0, 1.0) is F_PLUS
    assert sys.fused(np.zeros(2), 0.0, -1.0) is F_MINUS
    x0 = np.array([0.5, 0.0])
    integrate_layer_only(sys, 1.0, np.array([0.0]), (0.0, 1.0), eps_layer=1e-3)
    integrate_regularized(sys, SigmoidSpec("piecewise_linear", eps=1e-2), x0, (0.0, 1.0))
    # free flight, then sliding or (time dependent) a layer transit
    for system, regime in ((sys, "sliding"),
                           (dataclasses.replace(sys, time_dependent=True), "layer_transit")):
        traj = integrate_hybrid(system, x0, (0.0, 1.0), eps_layer=1e-3)
        assert [seg.regime for seg in traj.segments] == ["free_plus", regime]
    np.testing.assert_array_equal(F_PLUS, before[0])
    np.testing.assert_array_equal(F_MINUS, before[1])


class TestLayerAmplitude:
    t = np.linspace(0.0, 10.0, 10_001)
    # slow swing of amplitude 0.5 with a fast ripple of amplitude 0.1
    lam = 0.5 * np.sin(t) + 0.1 * np.sin(200.0 * t)

    def test_raw_and_averaged(self):
        raw = layer_amplitude(self.t, self.lam, (0.0, 10.0))
        assert raw == pytest.approx(0.6, abs=1e-3)
        avg = layer_amplitude(self.t, self.lam, (0.0, 10.0), average=2 * np.pi / 20)
        assert avg == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("window, average", [
        ((20.0, 30.0), 0.0),   # no samples in the window
        ((20.0, 30.0), 0.3),
        ((4.0, 4.2), 0.3),     # window shorter than the averaging span
    ])
    def test_empty_window_named(self, window, average):
        with pytest.raises(ValueError, match=r"window \[\d"):
            layer_amplitude(self.t, self.lam, window, average=average)
