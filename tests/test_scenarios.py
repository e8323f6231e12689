"""Reference systems: published parameters, field formulas, structure."""

import dataclasses
import math

import numpy as np
import pytest

from switchlayer import (
    CircuitParams,
    DuffingParams,
    SeriesExpansion,
    circuit_iv_to_state,
    circuit_state_to_iv,
    eval_field,
    hidden_term,
    make_circuit,
    make_duffing,
    make_example1,
    make_example2,
    mu_of_lambda,
    scenarios,
    to_hidden_form,
)

from fields import lam_tracker, tautology

ALL_FACTORIES = [
    lambda: make_example1("filippov"),
    lambda: make_example1("nonlinear"),
    lambda: make_example2("continuous"),
    lambda: make_example2("nonlinear"),
    lambda: make_circuit(CircuitParams()),
    lambda: make_circuit(CircuitParams(sigma=0.5)),
    lambda: make_duffing(DuffingParams(variant="linear")),
    lambda: make_duffing(DuffingParams(variant="nonlinear_cubic")),
    lambda: lam_tracker(make_duffing()),
]


def circuit_g(p):
    """p((1+lam)/2) has lam^2 coefficient sigma/4; it enters dV/dt through
    +I R p(mu)/RC, hence dx1/dt with a minus sign."""
    return lambda x, t, lam: np.array([-x[1] * p.R * p.sigma / (4.0 * p.RC), 0.0])


# the hidden multipliers g of ALL_FACTORIES, in order:
# f(x; lam) = (f_+ + f_-)/2 + (f_+ - f_-)/2 lam + (lam^2 - 1) g(x, lam)
HIDDEN_G = [
    lambda x, t, lam: np.zeros(2),
    lambda x, t, lam: np.array([0.0, -2.0]),
    lambda x, t, lam: np.zeros(2),
    lambda x, t, lam: np.array([2.0, 0.0]),
    circuit_g(CircuitParams()),
    circuit_g(CircuitParams(sigma=0.5)),
    lambda x, t, lam: np.zeros(2),
    lambda x, t, lam: np.array([0.0, -lam]),  # -lam^3 = -lam - (lam^2 - 1) lam
    lambda x, t, lam: np.array([0.0, -lam, 0.0]),
]


def assert_hidden_term(sys, g, x, t, lam):
    """hidden_term against (lam^2 - 1) g, to 1e-12 of the field's size."""
    f = np.concatenate([np.asarray(sys.fused(x, t, v), dtype=float) for v in (-1.0, lam, 1.0)])
    np.testing.assert_allclose(hidden_term(sys, x, lam, t=t), (lam * lam - 1.0) * g(x, t, lam),
                               rtol=0, atol=1e-12 * np.abs(f).max())


class TestStructuralInvariants:
    def test_hidden_term_vanishes_at_boundaries(self):
        rng = np.random.default_rng(1)
        for factory in ALL_FACTORIES:
            sys = factory()
            for _ in range(50):
                x = rng.normal(size=sys.dim)
                t = float(rng.uniform(0, 10))
                np.testing.assert_array_equal(hidden_term(sys, x, 1.0, t=t), 0.0)
                np.testing.assert_array_equal(hidden_term(sys, x, -1.0, t=t), 0.0)

    def test_boundary_evaluation_matches_branches(self):
        rng = np.random.default_rng(2)
        for factory in ALL_FACTORIES:
            sys = factory()
            x = rng.normal(size=sys.dim)
            t = 1.3
            np.testing.assert_array_equal(eval_field(sys, x, 1.0, t=t),
                                          np.asarray(sys.fused(x, t, 1.0)))
            np.testing.assert_array_equal(eval_field(sys, x, -1.0, t=t),
                                          np.asarray(sys.fused(x, t, -1.0)))

    def test_fused_field_matches_hidden_form(self):
        rng = np.random.default_rng(3)
        alphas = tuple((lambda v: (lambda x: v * (1.0 + x[1])))(rng.normal(size=2))
                       for _ in range(5))

        def series_field():
            return to_hidden_form(SeriesExpansion(alphas), dim=2)

        def series_g(x, t, lam):  # the factored alpha_2..alpha_4 part
            return alphas[2](x) + lam * alphas[3](x) + (1.0 + lam * lam) * alphas[4](x)

        def written_g(x, t, lam):
            return np.array([lam * x[1], 2.0 + lam * lam])

        def written():
            return tautology(lambda x, t: np.array([1.0 - x[1], np.sin(t)]),
                             lambda x, t: np.array([-1.0, x[0] * x[1]]), written_g)

        for factory, g in zip(ALL_FACTORIES + [series_field, written],
                              HIDDEN_G + [series_g, written_g]):
            sys = factory()
            for _ in range(50):
                x = rng.normal(size=sys.dim)
                t = float(rng.uniform(0, 10))
                lam = float(rng.uniform(-1.5, 1.5))
                fp, fm = eval_field(sys, x, 1.0, t), eval_field(sys, x, -1.0, t)
                oracle = (0.5 * (fp + fm) + 0.5 * (fp - fm) * lam
                          + (lam * lam - 1.0) * g(x, t, lam))
                np.testing.assert_allclose(sys.fused(x, t, lam), oracle,
                                           rtol=1e-12, atol=1e-12)
                np.testing.assert_array_equal(sys.fused(x, t, 1.0), fp)
                np.testing.assert_array_equal(sys.fused(x, t, -1.0), fm)
                if abs(lam) <= 1.0:
                    assert_hidden_term(sys, g, x, t, lam)


    def test_branches_follow_replaced_fused(self):
        rng = np.random.default_rng(5)
        alphas = tuple((lambda v: (lambda x: v))(rng.normal(size=2)) for _ in range(4))
        for factory in ALL_FACTORIES + [lambda: to_hidden_form(SeriesExpansion(alphas), dim=2)]:
            sys = factory()
            old = sys.fused
            moved = dataclasses.replace(
                sys, fused=lambda x, t, lam: 2.0 * np.asarray(old(x, t, lam)) + lam)
            x, t = rng.normal(size=sys.dim), 0.7
            fp = eval_field(moved, x, 1.0, t)
            np.testing.assert_array_equal(fp, 2.0 * eval_field(sys, x, 1.0, t) + 1.0)
            np.testing.assert_array_equal(eval_field(moved, x, -1.0, t),
                                          2.0 * eval_field(sys, x, -1.0, t) - 1.0)
            np.testing.assert_allclose(hidden_term(moved, x, 0.3, t=t),
                                       2.0 * hidden_term(sys, x, 0.3, t=t), rtol=1e-12,
                                       atol=1e-12 * np.abs(fp).max())


def array_circuit(p):
    """The circuit's evaluator on numpy scalars, as first written."""
    def fused(x, t, lam):
        mu = 0.5 * (1.0 + lam)
        V = p.Vb - x[0]
        return np.array([(V - x[1] * p.R * p.p_of_mu(mu)) / p.RC, (p.V0 - mu * V) / p.L])
    return fused


def array_duffing(p, with_tracker):
    """The forced relay's evaluator on numpy scalars, as first written,
    with ``lam_tracker``'s x3' = lam when with_tracker."""
    cubic = p.variant == "nonlinear_cubic"

    def fused(x, t, lam):
        drive = -lam * lam * lam if cubic else -lam
        out = [x[1] - p.c * x[0], drive - p.b * x[1] + p.a * math.cos(t)]
        if with_tracker:
            out.append(lam)
        return np.array(out)
    return fused


@pytest.mark.parametrize("sys, ref", [
    *[pytest.param(make_circuit(CircuitParams(sigma=s)), array_circuit(CircuitParams(sigma=s)),
                   id=f"circuit-sigma{s}") for s in (0.0, 0.5, 0.3)],
    *[pytest.param((lam_tracker if k else lambda s: s)(make_duffing(DuffingParams(variant=v))),
                   array_duffing(DuffingParams(variant=v), k), id=f"duffing-{v}-tracker{k}")
      for v in ("nonlinear_cubic", "linear") for k in (False, True)],
])
def test_float_evaluators_are_bit_exact(sys, ref):
    rng = np.random.default_rng(7)
    for _ in range(300):
        x = rng.normal(scale=3.0, size=sys.dim)
        t = float(rng.uniform(0.0, 50.0))
        for lam in (float(rng.uniform(-1.5, 1.5)), 1.0, -1.0):
            out = sys.fused(x, t, lam)
            # dim Python floats, no numpy scalars: DOPRI5 takes them as they are
            assert type(out) is tuple and len(out) == sys.dim
            assert all(type(v) is float for v in out)
            np.testing.assert_array_equal(np.asarray(out), ref(x, t, lam), strict=True)


class TestExample1:
    def test_outer_fields(self):
        sys = make_example1("nonlinear")
        x = np.array([0.2, -0.5])
        np.testing.assert_array_equal(eval_field(sys, x, 1.0), [1.0, -1.0])
        np.testing.assert_array_equal(eval_field(sys, x, -1.0), [-1.0, -1.0])

    def test_midpoint_values_differ_between_variants(self):
        x = np.array([0.0, 0.0])
        # the two models agree off the surface but disagree inside it
        np.testing.assert_allclose(
            eval_field(make_example1("filippov"), x, 0.0), [0.0, -1.0])
        np.testing.assert_allclose(
            eval_field(make_example1("nonlinear"), x, 0.0), [0.0, 1.0])

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            make_example1("cubic")


class TestExample2:
    def test_normal_component_is_shifted_parabola(self):
        sys = make_example2("nonlinear")
        x = np.array([0.0, 0.0])
        for lam in np.linspace(-1, 1, 11):
            f = eval_field(sys, x, float(lam))
            assert f[0] == pytest.approx(2 * lam**2 - 1, abs=1e-14)
            assert f[1] == pytest.approx(1.0)

    def test_continuous_variant_constant(self):
        sys = make_example2("continuous")
        for lam in (-1.0, -0.5, 0.0, 1.0):
            np.testing.assert_allclose(
                eval_field(sys, np.zeros(2), lam), [1.0, 1.0])


class TestCircuit:
    def test_default_parameters(self):
        p = CircuitParams()
        assert p.RC == pytest.approx(2.5)
        assert (p.L, p.V0, p.Vb, p.R) == (5.0, 5.0, 6.0, 3.75)
        assert p.sigma == 0.0

    def test_switch_response_endpoints(self):
        for sigma in (0.0, 0.3, 0.5, -0.4):
            p = CircuitParams(sigma=sigma)
            assert p.p_of_mu(0.0) == 0.0
            assert p.p_of_mu(1.0) == 1.0

    def test_saddle_closed_form(self):
        mu, i = CircuitParams().saddle()
        assert mu == pytest.approx(5 / 6)
        assert i == pytest.approx(1.92)
        mu, i = CircuitParams(sigma=0.5).saddle()
        assert mu == pytest.approx(5 / 6)
        # I = Vb / (R p(mu)) with p(5/6) = 5/6 - (1/2)(1/6)(5/6) = 55/72
        assert i == pytest.approx(6 / (3.75 * 55 / 72))
        assert i == pytest.approx(2.0945454545454545, abs=1e-12)

    def test_focus(self):
        i, v = CircuitParams().focus()
        assert i == pytest.approx(4 / 3)
        assert v == pytest.approx(5.0)

    def test_field_matches_hand_formula(self):
        p = CircuitParams(sigma=0.5)
        sys = make_circuit(p)
        x = np.array([1.5, 2.0])  # V = 4.5, I = 2.0
        for lam in (-1.0, -0.3, 0.0, 0.4, 1.0):
            mu = mu_of_lambda(lam)
            V, I = p.Vb - x[0], x[1]
            dV = (I * p.R * p.p_of_mu(mu) - V) / p.RC
            dI = (p.V0 - mu * V) / p.L
            np.testing.assert_allclose(eval_field(sys, x, lam), [-dV, dI],
                                       atol=1e-14)

    def test_no_hidden_term_for_ideal_switch(self):
        rng = np.random.default_rng(4)
        for p in (CircuitParams(), CircuitParams(sigma=0.5)):
            sys = make_circuit(p)
            for _ in range(20):
                x = rng.normal(size=2)
                assert_hidden_term(sys, circuit_g(p), x, 0.0, float(rng.uniform(-1, 1)))

    def test_coordinate_round_trip(self):
        p = CircuitParams()
        x = circuit_iv_to_state(2.0, 4.5, p)
        np.testing.assert_allclose(x, [1.5, 2.0])
        assert circuit_state_to_iv(x, p) == (2.0, 4.5)

    def test_mu_of_lambda(self):
        assert mu_of_lambda(-1.0) == 0.0
        assert mu_of_lambda(1.0) == 1.0
        assert mu_of_lambda(0.0) == 0.5

    def test_low_current_crosses_directly(self):
        # below the saddle current the normal flow never vanishes in the
        # layer: the relay switches through without sliding
        p = CircuitParams(sigma=0.5)
        sys = make_circuit(p)
        for i in (0.0, 0.5, 1.5):  # I R < Vb
            x = np.array([0.0, i])
            for lam in np.linspace(-1, 1, 21):
                assert eval_field(sys, x, float(lam))[0] > 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CircuitParams(R=-1.0)
        with pytest.raises(ValueError):
            CircuitParams(sigma=1.0)

    def test_each_circuit_gets_its_own_tagged_field(self, monkeypatch):
        # the field's source is compiled once a process; each call still
        # gives a new fused, with its own parameters and kernel tag
        compiled = []
        monkeypatch.setattr(scenarios, "exec", lambda *a: compiled.append(exec(*a)),
                            raising=False)
        scenarios._maker.cache_clear()
        a, b = (make_circuit(CircuitParams(sigma=s)) for s in (0.0, 0.5))
        assert make_circuit().fused is not a.fused
        assert a.fused.kernel == ("circuit", (5.0, 3.75, 2.5, 5.0, 6.0, 0.0))
        assert b.fused.kernel == ("circuit", (5.0, 3.75, 2.5, 5.0, 6.0, 0.5))
        x = np.array([1.5, 2.0])
        assert a.fused(x, 0.0, 0.2) != b.fused(x, 0.0, 0.2)
        assert b.fused(x, 0.0, 0.2) == make_circuit(CircuitParams(sigma=0.5)).fused(x, 0.0, 0.2)
        assert len(compiled) == 1

    @pytest.mark.parametrize("bad", [{"L": math.nan}, {"R": math.inf}, {"C": math.inf},
                                     {"V0": math.nan}, {"Vb": math.inf}], ids=repr)
    def test_non_finite_parameter_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CircuitParams(**bad)


class TestDuffing:
    def test_default_parameters(self):
        p = DuffingParams()
        assert (p.a, p.b, p.c) == (0.15, 0.05, 0.1)
        assert p.variant == "nonlinear_cubic"

    def test_cubic_field_formula(self):
        p = DuffingParams()
        sys = make_duffing(p)
        assert sys.time_dependent
        x = np.array([0.0, 0.3])
        for lam in (-1.0, -0.4, 0.0, 0.7, 1.0):
            for t in (0.0, 1.1):
                f = eval_field(sys, x, lam, t=t)
                assert f[0] == pytest.approx(x[1] - p.c * x[0])
                assert f[1] == pytest.approx(
                    -lam**3 - p.b * x[1] + p.a * np.cos(t), abs=1e-14)

    def test_linear_variant_has_no_hidden_part(self):
        sys = make_duffing(DuffingParams(variant="linear"))
        for x in ([0.0, 0.0], [0.0, 0.37], [0.2, -1.3]):
            for lam in (-0.9, -0.5, 0.0, 0.3, 0.77):
                np.testing.assert_allclose(hidden_term(sys, np.array(x), lam, t=1.1),
                                           0.0, atol=1e-12)
        f = eval_field(sys, np.array([0.0, 0.0]), 0.5, t=0.0)
        assert f[1] == pytest.approx(-0.5 + 0.15)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DuffingParams(a=-0.1)
        with pytest.raises(ValueError):
            DuffingParams(variant="quintic")

    @pytest.mark.parametrize("bad", [{"a": math.nan}, {"b": math.inf}, {"c": math.nan}],
                             ids=repr)
    def test_non_finite_parameter_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            DuffingParams(**bad)
