"""The compiled search for sliding modes against its Python reference.

``find_sliding_modes`` runs in ``_loop.c`` (``sl_modes``).  The reference,
``sliding_reference``, is the Python pipeline it replaced: numpy's cosines,
FFT and LAPACK eigenvalues, and scipy's Brent.  A root polished on the grid
comes from the same Brent search on the same cell, so it, its stability
tag and its sliding field must equal the reference's bit for bit; a root
no cell brackets (a double root, two roots in one cell) is a colleague-
matrix eigenvalue, which LAPACK and the compiled QR iteration give to
rounding level, so it must agree to 1e-9.  A Python field must be called
at the reference's lam values, in its order, and an error must stop the
search at the call that caused it.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from switchlayer import (
    CircuitParams,
    DegenerateInclusionError,
    IntegratorConfig,
    NonFiniteFieldError,
    SeriesExpansion,
    SwitchedField,
    classify_surface_point,
    expand_from_midpoint,
    find_sliding_modes,
    integrate_hybrid,
    make_circuit,
    make_example1,
    make_example2,
    to_hidden_form,
)
from switchlayer.integrate import _solve
from switchlayer.layer import _integrate_sliding, _series_block

import sliding_reference as reference
from test_layer import polynomial_system

GRID_STEP = 2.0 / 512


def series_field(roots, scale, tangential):
    """A series field whose f1 is scale * prod(lam - r) in ascending powers,
    with tangential component (1 + x2) sum d_n lam^n, as switch_atlas builds."""
    coeffs = scale * np.poly(roots)[::-1]
    funcs = tuple((lambda c, d: (lambda x: np.array([c, d * (1.0 + x[1])])))(c, d)
                  for c, d in zip(coeffs, tangential[:coeffs.size]))
    return to_hidden_form(SeriesExpansion(funcs), dim=2)


def seeded_roots(k, rng):
    """The roots of seeded field k: degree 1-8, by kind k % 5 simple roots
    inside and outside [-1, 1], a double root, a triple root, two roots in
    one grid cell, or a mix of them."""
    deg = 1 + k % 8
    kind = k % 5

    def simple():
        return float(rng.uniform(-1.6, 1.6))

    def off_grid():
        # an interior point that no grid point lies within 1e-4 of
        r = float(rng.uniform(-0.95, 0.95))
        return r if abs(r / GRID_STEP - round(r / GRID_STEP)) * GRID_STEP > 1e-4 else r + 1e-3

    if kind == 1 and deg >= 2:
        r = off_grid()
        roots = [r, r]
    elif kind == 2 and deg >= 3:
        r = off_grid()
        roots = [r, r, r]
    elif kind == 3 and deg >= 2:
        cell = -1.0 + GRID_STEP * int(rng.integers(26, 486))
        roots = [cell + 0.25 * GRID_STEP, cell + 0.75 * GRID_STEP]
    elif kind == 4 and deg >= 4:
        r = off_grid()
        roots = [r, r, float(rng.choice([-1.0, 1.0]) * rng.uniform(1.05, 2.0))]
    else:
        roots = []
    while len(roots) < deg:
        r = simple()
        if all(abs(r - q) >= 0.02 for q in roots):
            roots.append(r)
    return roots


SEEDED = [series_field(seeded_roots(k, rng := np.random.default_rng(900 + k)),
                       float(rng.uniform(0.5, 2.0)) * float(rng.choice([-1.0, 1.0])),
                       rng.normal(size=9))
          for k in range(200)]
TANGENTIAL = [((0.3,), ()), ((-0.55,), (0.8,)), ((0.1, -0.7), ())]


def kink_field():
    # |lam - 0.2| - 0.1 is not resolved by Chebyshev sampling at 512 cells
    return SwitchedField(dim=2, fused=lambda x, t, lam: np.array([abs(lam - 0.2) - 0.1, 1.0]))


def untagged(sys):
    """The same system with its fused behind a Python function, which the
    search calls at every sample: the callback path."""
    return dataclasses.replace(sys, fused=lambda x, t, lam: sys.fused(x, t, lam))


def bits(found):
    return [(r.lam_s.hex(), r.stability, r.sliding_field.tobytes()) for r in found]


def assert_same_as_reference(sys, x_rest, t=0.0):
    """find_sliding_modes(sys) against the reference, and for a series field,
    which it searches on the compiled polynomial in lam, against its
    callback path, bit for bit; returns how many roots were polished and
    how many were not."""
    got = find_sliding_modes(sys, np.array(x_rest), t)
    if hasattr(sys.fused, "series"):
        assert _series_block(sys, np.array(x_rest)) is not None
        assert bits(got) == bits(find_sliding_modes(untagged(sys), np.array(x_rest), t))
    want, polished = reference.find_sliding_modes(sys, np.array(x_rest), t)
    assert len(got) == len(want)
    for g, w, p in zip(got, want, polished):
        assert type(g.lam_s) is float
        assert g.stability == w.stability
        if p:
            assert g.lam_s.hex() == w.lam_s.hex()
            assert g.sliding_field.tobytes() == w.sliding_field.tobytes()
        else:
            assert g.lam_s == pytest.approx(w.lam_s, abs=1e-9)
    return sum(polished), len(polished) - sum(polished)


class TestReferenceOracle:
    def test_seeded_series_fields(self):
        counts = np.zeros(2, dtype=int)
        for k, sys in enumerate(SEEDED):
            x2 = float(np.random.default_rng(k).uniform(-1.0, 1.0))
            counts += assert_same_as_reference(sys, [x2])
        # both kinds of root occur: polished ones and cluster means
        assert counts[0] > 300 and counts[1] > 100

    @pytest.mark.parametrize("double, simple", TANGENTIAL)
    def test_switch_atlas_tangential_fields(self, double, simple):
        roots = [r for r in double for _ in range(2)] + list(simple)
        rng = np.random.default_rng(5)
        polished, unpolished = assert_same_as_reference(
            series_field(roots, 1.0, rng.normal(size=len(roots) + 1)), [0.25])
        assert unpolished == len(double) and polished == len(simple)

    @pytest.mark.parametrize("sigma", [0.0, 0.3, 0.5])
    def test_circuit(self, sigma):
        sys = make_circuit(CircuitParams(sigma=sigma))
        for current in np.linspace(-0.5, 6.0, 60):
            assert_same_as_reference(sys, [current])

    @pytest.mark.parametrize("sys", [make_example1("filippov"), make_example1("nonlinear"),
                                     make_example2("continuous"), make_example2("nonlinear")],
                             ids=["example1-filippov", "example1-nonlinear",
                                  "example2-continuous", "example2-nonlinear"])
    def test_examples(self, sys):
        for t in (0.0, 0.7):
            assert_same_as_reference(sys, [0.0], t)

    def test_kink(self):
        assert assert_same_as_reference(kink_field(), [0.0]) == (2, 0)


class FieldFailed(Exception):
    pass


class Counting:
    """A Python field that records the lam of every call, raises ``exc`` at
    call ``fail_at`` (1-based) and returns a NaN f2 where ``bad(lam)`` holds."""

    def __init__(self, sys, fail_at=None, bad=None, exc=FieldFailed):
        self.sys, self.calls, self.fail_at, self.bad, self.exc = sys, [], fail_at, bad, exc

    def __call__(self, x, t, lam):
        self.calls.append(lam)
        if len(self.calls) == self.fail_at:
            raise self.exc(f"field failed at call {self.fail_at}")
        value = self.sys.fused(x, t, lam)
        if self.bad is not None and self.bad(lam):
            return (value[0], math.nan)
        return value

    def system(self):
        return SwitchedField(dim=self.sys.dim, fused=self)


CALL_CASES = {
    "series": SEEDED[17],
    "double-root": SEEDED[6],
    "two-in-a-cell": SEEDED[13],
    "circuit": make_circuit(CircuitParams(sigma=0.5)),
    "example2": make_example2("nonlinear"),
    "kink": kink_field(),
}


class TestCalls:
    @pytest.mark.parametrize("name", CALL_CASES)
    def test_calls_are_the_references(self, name):
        # as many calls, at the same lam values in the same order, so the
        # traced field_evals of a benchmark cannot move: the Chebyshev points
        # are np.cos's and the polish searches the same cells.  Only the
        # three calls at a root no cell brackets (its central difference and
        # its sliding field) are at its own value, which agrees to 1e-9.
        got, want = Counting(CALL_CASES[name]), Counting(CALL_CASES[name])
        find_sliding_modes(got.system(), np.array([3.0]))
        _, polished = reference.find_sliding_modes(want.system(), np.array([3.0]))
        assert len(got.calls) == len(want.calls) >= 17
        assert got.calls == pytest.approx(want.calls, abs=1e-9, rel=0)
        differ = sum(a != b for a, b in zip(got.calls, want.calls))
        assert differ <= 3 * polished.count(False)
        assert len(got.calls) > {"kink": 512 + 513, "circuit": 17}.get(name, 30)

    @pytest.mark.parametrize("name", ["series", "kink"])
    def test_a_failing_field_stops_the_search(self, name):
        counted = Counting(CALL_CASES[name])
        reference.find_sliding_modes(counted.system(), np.array([0.5]))
        total = len(counted.calls)
        assert total > 30
        for k in sorted({1, 2, 17, 18, 30, total // 2, total - 1, total}):
            field = Counting(CALL_CASES[name], fail_at=k)
            with pytest.raises(FieldFailed, match=f"call {k}$"):
                find_sliding_modes(field.system(), np.array([0.5]))
            assert len(field.calls) == k

    def test_field_error_keeps_its_type(self):
        field = Counting(CALL_CASES["circuit"], fail_at=20, exc=ZeroDivisionError)
        with pytest.raises(ZeroDivisionError):
            find_sliding_modes(field.system(), np.array([2.0]))

    @pytest.mark.parametrize("name", ["series", "kink"])
    def test_nan_tangential_component(self, name):
        # NaN in f2 at one sample (a Chebyshev point, or a grid point past
        # them): NonFiniteFieldError, and no call after that sample
        bad = float(np.cos(5 * (np.pi / 16))) if name == "series" else -1.0 + 100 * GRID_STEP
        field = Counting(CALL_CASES[name], bad=lambda lam: lam == bad)
        with pytest.raises(NonFiniteFieldError, match=f"lam={bad}"):
            find_sliding_modes(field.system(), np.array([0.5]))
        assert field.calls[-1] == bad and field.calls.count(bad) == 1
        assert len(field.calls) == (6 if name == "series" else 513 + 101)

    def test_zero_f1_is_degenerate_after_the_first_samples(self):
        field = Counting(SwitchedField(dim=2, fused=lambda x, t, lam: (0.0, 1.0)))
        with pytest.raises(DegenerateInclusionError):
            find_sliding_modes(field.system(), np.array([0.0]))
        assert len(field.calls) == 17

    def test_zero_on_a_subinterval_is_degenerate_after_the_grid(self):
        field = Counting(SwitchedField(dim=2, fused=lambda x, t, lam: (max(lam, 0.0), 1.0)))
        want = Counting(field.sys)
        with pytest.raises(DegenerateInclusionError):
            find_sliding_modes(field.system(), np.array([0.0]))
        with pytest.raises(DegenerateInclusionError):
            reference.find_sliding_modes(want.system(), np.array([0.0]))
        assert field.calls == want.calls


# -- series fields: the coefficients once, the polynomial in lam compiled ----


def counted(funcs):
    """The coefficient functions, each counting its calls in ``calls``."""
    calls = [0] * len(funcs)

    def wrap(k, a):
        def alpha(x):
            calls[k] += 1
            return a(x)
        return alpha
    return tuple(wrap(k, a) for k, a in enumerate(funcs)), calls


def midpoint_field_3d():
    """A dim-3 expansion from its midpoint with dfdlam0, N = 3."""
    def f_plus(x):
        return np.array([-1.0 + 0.3 * x[1], x[2], -x[1] + 0.1 * x[2] ** 2])

    def f_minus(x):
        return np.array([0.8 - 0.2 * x[2], 1.0 + x[1] * x[2], 0.5 * x[1]])

    def r(x):
        return np.array([0.05 + 0.1 * x[1] * x[2], np.sin(x[1]), np.cos(x[2])])

    def dfdlam0(x):
        return np.array([-0.4 + 0.2 * x[1], 0.3, -0.1 * x[2]])
    return to_hidden_form(expand_from_midpoint(f_plus, f_minus, r, dfdlam0), dim=3)


class CoefficientFailed(Exception):
    pass


def failing(x):
    raise CoefficientFailed("coefficient failed")


def vec(*values):
    return lambda x: np.array(values)


GOOD = vec(0.5, 1.0)
# bad coefficients, and what find_sliding_modes raised for them when it
# called the series at every sample
BAD_COEFFICIENTS = {
    "three-values": ((vec(0.5, 1.0, 2.0), vec(1.0, 0.0, 1.0)), ValueError,
                     "^field returned 3 values for dimension 2$"),
    "lengths-differ": ((GOOD, vec(1.0, 0.0, 1.0)), ValueError, "could not be broadcast"),
    "zero-d": ((lambda x: np.array(0.5), lambda x: np.array(1.0)), TypeError, None),
    "nan": ((GOOD, vec(1.0, math.nan)), NonFiniteFieldError, r"lam=1\.0$"),
    "inf": ((GOOD, vec(math.inf, 1.0)), NonFiniteFieldError, r"lam=1\.0$"),
    "raises": ((GOOD, failing), CoefficientFailed, "^coefficient failed$"),
}


class TestSeriesFields:
    # the seeded and tangential series fields of TestReferenceOracle compare
    # with their callback path too (assert_same_as_reference)
    def test_dim_3_expansion_from_its_midpoint(self):
        sys = midpoint_field_3d()
        rng = np.random.default_rng(11)
        assert sum(sum(assert_same_as_reference(sys, rng.uniform(-2.0, 2.0, 2)))
                   for _ in range(40)) > 20

    def test_signed_zero_coefficients(self):
        # f1 = lam - lam^3 with signed zeros, and f2 = -0.0 sum lam^n, which
        # is -0.0 at lam = 1 and +0.0 at lam = -1: the sliding field's zeros
        # keep the signs the series gives them
        sys = to_hidden_form(SeriesExpansion((
            vec(-0.0, -0.0), vec(1.0, -0.0), vec(0.0, -0.0), vec(-1.0, -0.0))), dim=2)
        assert sum(assert_same_as_reference(sys, [0.0])) == 3
        signs = np.signbit([r.sliding_field[0] for r in find_sliding_modes(sys, [0.0])])
        assert signs.any() and not signs.all()

    def test_vanishing_f1_is_degenerate_on_both_paths(self):
        sys = to_hidden_form(SeriesExpansion((vec(0.0, 1.0), vec(-0.0, 0.5), vec(0.0, 2.0))),
                             dim=2)
        assert _series_block(sys, np.array([0.3])) is not None
        for s in (sys, untagged(sys)):
            with pytest.raises(DegenerateInclusionError):
                find_sliding_modes(s, np.array([0.3]))

    def test_coefficients_are_called_once_per_query(self):
        funcs, calls = counted(SEEDED[17].fused.series)
        sys = to_hidden_form(SeriesExpansion(funcs), dim=2)
        find_sliding_modes(sys, np.array([0.3]))
        assert calls == [1] * len(funcs)
        assert classify_surface_point(sys, np.array([0.3]), 0.0, "plus")[0] == "stick"
        assert calls == [3] * len(funcs)  # and f1 at the entry boundary
        find_sliding_modes(untagged(sys), np.array([0.3]))
        assert min(calls) > 30  # the callback path calls fused at every sample

    def test_a_replaced_fused_drops_the_block(self):
        sys = SEEDED[3]
        assert _series_block(untagged(sys), np.array([0.0])) is None
        assert _series_block(make_example1(), np.array([0.0])) is None

    def test_hybrid_run_on_a_polynomial_system(self):
        # f1 = -(lam - 0.3)(lam + 0.5): down onto the surface, stick at 0.3
        sys = polynomial_system(-np.poly([0.3, -0.5])[::-1])
        got = integrate_hybrid(sys, [0.5, 0.2], (0.0, 2.0))
        want = integrate_hybrid(untagged(sys), [0.5, 0.2], (0.0, 2.0))
        assert [k for _, k in got.transitions] == ["stick"]
        assert got.transitions == want.transitions
        assert len(got.segments) == len(want.segments) == 2
        for g, w in zip(got.segments, want.segments):
            assert g.regime == w.regime
            assert (g.t.tobytes(), g.x.tobytes()) == (w.t.tobytes(), w.x.tobytes())
            assert (g.lam is None and w.lam is None) or g.lam.tobytes() == w.lam.tobytes()
        assert got.segments[1].lam[-1] == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("kind, value", [("lam", 1.0), ("tanh", 0.05), ("layer", 1e-3)])
    def test_runs_call_the_coefficients_at_every_evaluation(self, kind, value):
        # a run's x moves, so it never takes the block: one call of every
        # coefficient a field evaluation
        funcs, calls = counted(midpoint_field_3d().fused.series)
        sys = to_hidden_form(SeriesExpansion(funcs), dim=3)
        x0 = [0.4, 0.2, -0.1] if kind != "layer" else [0.2, 0.2, -0.1]
        run = _solve((sys.fused, kind, value), np.array(x0), (0.0, 0.5),
                     IntegratorConfig(max_step=0.05))
        assert run.evals > 10 and calls == [run.evals] * len(funcs)

    def test_slides_call_the_coefficients_at_every_evaluation(self):
        funcs, calls = counted(SEEDED[9].fused.series)
        sys = to_hidden_form(SeriesExpansion(funcs), dim=2)
        x = np.array([0.0, 0.1])
        root = find_sliding_modes(sys, x[1:])[0]
        counts = []
        for s in (sys, untagged(sys)):
            calls[:] = [0] * len(funcs)
            seg, _, _ = _integrate_sliding(s, x, (0.0, 0.3), IntegratorConfig(max_step=0.05),
                                           root)
            counts.append(list(calls))
        assert counts[0] == counts[1] and min(counts[0]) > seg.t.size

    @pytest.mark.parametrize("name", BAD_COEFFICIENTS)
    def test_bad_coefficients_fail_as_the_series_does(self, name):
        funcs, exc, message = BAD_COEFFICIENTS[name]
        sys = to_hidden_form(SeriesExpansion(funcs), dim=2)
        for s in (sys, untagged(sys)):
            with pytest.raises(exc, match=message):
                find_sliding_modes(s, np.array([0.2]))

    @pytest.mark.parametrize("funcs", [(GOOD, lambda x: np.array(1.0)), (GOOD, vec(1.0)),
                                       (lambda x: [0.5, 1], lambda x: (1, 0))],
                             ids=["zero-d-broadcast", "length-1-broadcast", "sequences"])
    def test_coefficients_the_series_accepts(self, funcs):
        # a coefficient numpy broadcasts takes the callback path, one that
        # converts to dim floats the block; both give the series' roots
        sys = to_hidden_form(SeriesExpansion(funcs), dim=2)
        got = find_sliding_modes(sys, np.array([0.2]))
        want = find_sliding_modes(untagged(sys), np.array([0.2]))
        assert bits(got) == bits(want) != []

    def test_overflow_is_non_finite_without_a_warning(self):
        # numpy's sum warns on the overflow (an error under this suite's
        # filter); the compiled sum does not, and the search reports the
        # non-finite sample as the callback path does after its warning
        sys = to_hidden_form(SeriesExpansion((vec(1e308, 1.0), vec(1e308, 0.0))), dim=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteFieldError, match=r"lam=1\.0$"):
                find_sliding_modes(sys, np.array([0.2]))
        with pytest.raises(RuntimeWarning, match="overflow"):
            find_sliding_modes(untagged(sys), np.array([0.2]))
