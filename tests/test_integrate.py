"""Event-driven integration: smooth flows, surface hits, regularized runs."""

import gc
import tracemalloc

import numpy as np
import pytest

from switchlayer import (
    CircuitParams,
    GrazeWarning,
    IntegratorConfig,
    SigmoidSpec,
    TrajectorySegment,
    advance_to_surface,
    circuit_iv_to_state,
    integrate_regularized,
    make_circuit,
)
from switchlayer.integrate import Event, IntegrationError, _solve

from fields import tautology


class TestIntegratorConfig:
    def test_defaults(self):
        cfg = IntegratorConfig()
        assert cfg.rel_tol == 1e-8
        assert cfg.abs_tol == 1e-10
        assert cfg.max_step == 1e-2
        assert cfg.max_steps == 10_000_000

    def test_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rel_tol=-1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(max_steps=0)


class TestTrajectorySegment:
    def test_monotone_time_required(self):
        with pytest.raises(ValueError):
            TrajectorySegment(np.array([0.0, 1.0, 0.5]), np.zeros((3, 2)), "free_plus")

    def test_shape_consistency_required(self):
        with pytest.raises(ValueError):
            TrajectorySegment(np.array([0.0, 1.0]), np.zeros((3, 2)), "free_plus")

    def test_final_accessors(self):
        seg = TrajectorySegment(np.array([0.0, 1.0]),
                                np.array([[0.0, 0.0], [1.0, 2.0]]), "sliding")
        assert seg.t_final == 1.0
        np.testing.assert_array_equal(seg.x_final, [1.0, 2.0])


class TestIntegrateSmooth:
    """Smooth fields on the DOPRI5 core, with no surface logic."""

    def test_exponential_decay_oracle(self):
        def field(x, t):
            return -x

        run = _solve(field, np.array([1.0, 2.0]), (0.0, 1.0), IntegratorConfig())
        np.testing.assert_allclose(run.y[-1], np.exp(-1.0) * np.array([1, 2]),
                                   rtol=1e-6)

    def test_non_finite_state_raises(self):
        def field(x, t):
            return x * x  # finite-time blow-up from x0 > 1

        with pytest.raises(IntegrationError):
            _solve(field, np.array([3.0, 3.0]), (0.0, 2.0), IntegratorConfig())

    def test_field_exception_propagates(self):
        class Boom(ValueError):
            pass

        def field(x, t):
            if t > 0.5:
                raise Boom("field failed")
            return -x

        with pytest.raises(Boom, match="field failed"):
            _solve(field, np.array([1.0, 1.0]), (0.0, 1.0), IntegratorConfig())

    def test_step_budget_enforced(self):
        cfg = IntegratorConfig(max_step=0.01, max_steps=50)
        with pytest.raises(IntegrationError, match="step budget"):
            _solve(lambda x, t: -x, np.array([1.0, 1.0]), (0.0, 1.0), cfg)

    def test_nested_run_rejected(self):
        def field(x, t):
            _solve(lambda y, s: -y, x, (0.0, 0.1), IntegratorConfig())
            return -x

        with pytest.raises(RuntimeError, match="re-entrant"):
            _solve(field, np.array([1.0, 1.0]), (0.0, 1.0), IntegratorConfig())

    def test_finished_runs_are_freed(self):
        cfg = IntegratorConfig(max_step=1e-3)

        def field(x, t):
            return np.array([x[1], -x[0]])

        _solve(field, np.array([1.0, 0.0]), (0.0, 0.1), cfg)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(10):  # 10k accepted steps each
                _solve(field, np.array([1.0, 0.0]), (0.0, 10.0), cfg)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 1e6, f"{retained / 1e6:.1f} MB retained after 10 runs"


class TestEvents:
    """Sign tests at the step ends on event values near 1e-200."""

    CFG = IntegratorConfig(max_step=0.01)

    @pytest.mark.parametrize("direction", [0.0, -1.0])
    def test_crossing_located_where_the_product_underflows(self, direction):
        # x1 = 1e-200 (1 - t): each step's two values multiply to 0.0 or -0.0
        def field(x, t):
            return np.array([-1e-200])

        run = _solve(field, np.array([1e-200]), (0.0, 2.0), self.CFG,
                     events=(Event(lambda t, y: y.item(0), direction),))
        assert run.stopped_by == 0
        assert run.t[-1] == pytest.approx(1.0, abs=1e-12)
        assert abs(run.y[-1, 0]) < 1e-210

    def test_crossing_in_the_other_direction_ignored(self):
        run = _solve(lambda x, t: np.array([-1e-200]), np.array([1e-200]), (0.0, 2.0),
                     self.CFG, events=(Event(lambda t, y: y.item(0), 1.0),))
        assert run.stopped_by is None and run.t[-1] == 2.0

    def test_tiny_positive_ends_do_not_fire(self):
        run = _solve(lambda x, t: -x, np.array([1e-200]), (0.0, 1.0), self.CFG,
                     events=(Event(lambda t, y: y.item(0)),))
        assert run.stopped_by is None and run.t[-1] == 1.0
        assert np.all(run.y[:, 0] > 0)


class TestAdvanceToSurface:
    def test_hit_time_and_localization(self):
        sys = tautology([1.0, 0.0], [1.0, 0.5])
        # from x1 = -0.4 moving up at speed 1: hit at t = 0.4
        seg, hit = advance_to_surface(sys, np.array([-0.4, 0.0]), (0.0, 2.0))
        assert hit is not None
        t_star, x_star = hit
        assert t_star == pytest.approx(0.4, abs=1e-9)
        assert abs(x_star[0]) < 1e-10
        assert x_star[1] == pytest.approx(0.2, abs=1e-9)
        assert seg.regime == "free_minus"

    def test_no_hit_runs_to_end(self):
        sys = tautology([1.0, 0.0], [-1.0, 0.0])
        seg, hit = advance_to_surface(sys, np.array([0.5, 0.0]), (0.0, 1.0))
        assert hit is None
        assert seg.t_final == pytest.approx(1.0)
        assert seg.x_final[0] == pytest.approx(1.5, rel=1e-8)

    def test_on_surface_start_rejected(self):
        sys = tautology([1.0, 0.0], [-1.0, 0.0])
        with pytest.raises(ValueError):
            advance_to_surface(sys, np.array([0.0, 0.0]), (0.0, 1.0))

    def test_graze_emits_warning(self):
        # band wide enough that the dip spans several integration steps
        tol = 1e-3

        def fp(x, t):
            return np.array([2.0 * (t - 1.0), 1.0])

        sys = tautology(fp, fp, surface_tolerance=tol)
        # x1(t) = (t-1)^2 + tol/2 dips into the band but never crosses
        x0 = np.array([1.0 + tol / 2, 0.0])
        with pytest.warns(GrazeWarning):
            seg, hit = advance_to_surface(sys, x0, (0.0, 2.0))
        assert hit is None

    def test_graze_warning_names_first_sample_in_band(self):
        tol = 1e-3

        def fp(x, t):
            return np.array([2.0 * (t - 1.0), 1.0])

        sys = tautology(fp, fp, surface_tolerance=tol)
        with pytest.warns(GrazeWarning) as record:
            seg, hit = advance_to_surface(sys, np.array([1.0 + tol / 2, 0.0]), (0.0, 2.0))
        first = seg.t[np.argmax(seg.x[:, 0] <= tol)]
        assert f"near t={first:.6g} " in str(record[0].message)


class TestIntegrateRegularized:
    def test_attracting_switch_settles_on_surface(self):
        sys = tautology([-1.0, 1.0], [1.0, 1.0])
        sig = SigmoidSpec("tanh", eps=1e-3)
        seg = integrate_regularized(sys, sig, np.array([0.5, 0.0]), (0.0, 2.0))
        assert abs(seg.x_final[0]) < 10 * sig.eps
        assert seg.x_final[1] == pytest.approx(2.0, rel=1e-6)
        assert seg.regime == "regularized"
        assert seg.lam is not None and seg.lam.shape == seg.t.shape
        assert np.all(np.abs(seg.lam) <= 1.0)

    def test_multiplier_samples_match_sigmoid_of_surface(self):
        sys = tautology([-1.0, 1.0], [1.0, 1.0])
        sig = SigmoidSpec("arctan_unit", eps=1e-2)
        seg = integrate_regularized(sys, sig, np.array([0.3, 0.0]), (0.0, 1.0))
        np.testing.assert_allclose(seg.lam, sig(seg.x[:, 0]), atol=1e-12)

    @pytest.mark.parametrize("kind", ["piecewise_linear", "arctan_unit", "arctan_01",
                                      "tanh", "erf"])
    def test_multiplier_saturates_inside_unit_range(self, kind):
        # far outside the band each kind gives lam = +-1 exactly, unclamped
        sys = tautology([1.0, 0.0], [-1.0, 0.0])  # x1 moves away from 0
        sig = SigmoidSpec(kind, eps=1e-300)
        for x1 in (0.5, -0.5):
            seg = integrate_regularized(sys, sig, np.array([x1, 0.0]), (0.0, 1.0))
            assert np.all(seg.lam == np.sign(x1))

    def test_step_cap_inside_band(self):
        sys = tautology([-1.0, 1.0], [1.0, 1.0])
        sig = SigmoidSpec("piecewise_linear", eps=4e-3)
        seg = integrate_regularized(sys, sig, np.array([0.05, 0.0]), (0.0, 0.5))
        inside = np.abs(seg.x[:, 0]) < sig.eps * 0.999
        steps = np.diff(seg.t)[inside[:-1] & inside[1:]]
        assert steps.size > 0
        assert steps.max() <= sig.eps / 4 + 1e-12

    def test_unit_range_sigmoid_equivalent_to_symmetric(self):
        sys = tautology([-1.0, 1.0], [1.0, 1.0])
        a01 = SigmoidSpec("arctan_01", eps=1e-2)
        asym = SigmoidSpec("arctan_unit", eps=1e-2)
        x0 = np.array([0.2, 0.0])
        s1 = integrate_regularized(sys, a01, x0, (0.0, 1.0))
        s2 = integrate_regularized(sys, asym, x0, (0.0, 1.0))
        np.testing.assert_allclose(s1.x_final, s2.x_final, atol=1e-8)

    def test_band_crossing_transversal(self):
        # flow pushing straight through the band: must emerge on the far side
        sys = tautology([1.0, 0.0], [1.0, 0.0])
        sig = SigmoidSpec("tanh", eps=1e-3)
        seg = integrate_regularized(sys, sig, np.array([-0.5, 0.0]), (0.0, 1.0))
        assert seg.x_final[0] == pytest.approx(0.5, rel=1e-6)
        assert np.all(np.diff(seg.t) > 0)
        # capped only inside the band: entry and exit are located events
        inside = np.abs(seg.x[:, 0]) < sig.eps * 0.999
        assert np.diff(seg.t)[inside[:-1] & inside[1:]].max() <= sig.eps / 4 + 1e-12
        assert np.diff(seg.t).max() > sig.eps

    def test_hidden_term_active_inside_band(self):
        # f = (1, 1) both sides with hidden (2, 0): at lam = 0 the surface
        # flow has dx1/dt = -1, so a start inside the band is pushed back
        def g(x, t, lam):
            return np.array([2.0, 0.0])

        sys = tautology([1.0, 1.0], [1.0, 1.0], g=g)
        sig = SigmoidSpec("piecewise_linear", eps=1e-2)
        seg = integrate_regularized(sys, sig, np.array([0.0, 0.0]), (0.0, 1.0))
        # the stable balance sits at lam = -1/sqrt(2), i.e. v = -eps/sqrt(2)
        assert seg.x_final[0] == pytest.approx(-sig.eps / np.sqrt(2), rel=1e-3)
        assert seg.x_final[1] == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("kind", ["piecewise_linear", "erf"])
    def test_restart_just_past_band_edge(self, kind):
        # the sigma = 1/2 circuit enters the band at t = 4.81; the run that
        # enters stops 2e-16 (erf: 4.7e-16) above x1 = eps, past a 1e-12
        # relative slack, so the restart must take its side from the event
        p = CircuitParams(sigma=0.5)
        sig = SigmoidSpec(kind, eps=1e-4)
        seg = integrate_regularized(make_circuit(p), sig, circuit_iv_to_state(0.0, 0.0, p),
                                    (0.0, 6.0))
        assert seg.t_final == 6.0
        entered = np.argmax(np.abs(seg.x[:, 0]) < sig.eps)
        assert 4.8 < seg.t[entered] < 4.82
        # capped from the entry on: the band is left only through its edges
        assert np.diff(seg.t[entered:]).max() <= sig.eps / 4 + 1e-12
