"""Event-driven integration: smooth flows, surface hits, regularized runs."""

import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest

from switchlayer import (
    SURFACE_TOL,
    CircuitParams,
    DimensionMismatchError,
    DuffingParams,
    GrazeWarning,
    HybridTrajectory,
    IntegratorConfig,
    SigmoidSpec,
    SwitchedField,
    TrajectorySegment,
    advance_to_surface,
    circuit_iv_to_state,
    integrate_hybrid,
    integrate_layer_only,
    integrate_regularized,
    make_circuit,
    make_duffing,
    make_example1,
    make_example2,
)
from switchlayer import integrate, layer
from switchlayer.cli import trajectory_table
from switchlayer.integrate import IntegrationError, _solve

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

    @pytest.mark.parametrize("bad", [
        {"rel_tol": -1.0}, {"rel_tol": float("nan")}, {"abs_tol": 0.0},
        {"abs_tol": float("inf")}, {"max_step": float("nan")}, {"max_step": float("inf")},
        {"max_steps": 0}, {"max_steps": 2.5}, {"max_steps": True}, {"max_steps": 1e6},
    ], ids=repr)
    def test_bad_value_rejected(self, bad):
        with pytest.raises(ValueError):
            IntegratorConfig(**bad)

    def test_numpy_integer_step_budget_accepted(self):
        assert IntegratorConfig(max_steps=np.int64(5)).max_steps == 5


class TestTrajectorySegment:
    def test_monotone_time_required(self):
        with pytest.raises(ValueError):
            TrajectorySegment(np.array([0.0, 1.0, 0.5]), np.zeros((3, 2)), "free_plus")

    def test_shape_consistency_required(self):
        with pytest.raises(ValueError):
            TrajectorySegment(np.array([0.0, 1.0]), np.zeros((3, 2)), "free_plus")

    def test_lam_length_checked(self):
        with pytest.raises(ValueError, match="lam"):
            TrajectorySegment([0, 1, 2], [[0], [1], [2]], "free_plus", lam=np.array([0.1]))

    def test_list_lam_converted(self):
        seg = TrajectorySegment([0, 1, 2], [[0], [1], [2]], "free_plus", lam=[0.1, 0, 1])
        assert seg.lam.dtype == np.float64
        _, rows = trajectory_table(HybridTrajectory([seg]))
        assert [row[-1] for row in rows] == [0.1, 0.0, 1.0]

    def test_final_accessors(self):
        seg = TrajectorySegment(np.array([0.0, 1.0]),
                                np.array([[0.0, 0.0], [1.0, 2.0]]), "sliding")
        assert seg.t_final == 1.0
        np.testing.assert_array_equal(seg.x_final, [1.0, 2.0])

    def test_time_check_allocates_no_float_copy(self):
        # the monotonicity check may take a boolean temporary, not a float64 one
        t = np.arange(200_000, dtype=float)
        x, lam = np.zeros((t.size, 2)), np.zeros(t.size)
        tracemalloc.start()
        try:
            TrajectorySegment(t, x, "regularized", lam=lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * t.nbytes, f"peak {peak / t.nbytes:.2f} x t.nbytes"


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

    def test_budget_counts_accepted_steps_only(self):
        # this run rejects steps on its way, and they must not count
        def field(x, t):
            return (-50.0 * (x[0] - math.sin(20.0 * t)),)

        def run(**budget):
            return _solve(field, np.array([1.0]), (0.0, 2.0),
                          IntegratorConfig(max_step=1.0, **budget))

        free = run()
        n = free.t.size - 1
        exact = run(max_steps=n)
        np.testing.assert_array_equal(exact.t, free.t)
        np.testing.assert_array_equal(exact.y, free.y)
        with pytest.raises(IntegrationError, match=f"^step budget of {n - 1} exceeded$"):
            run(max_steps=n - 1)

    def test_event_stop_past_the_budget_rejected(self):
        # x = 1 - t reaches the event x = 0 on step 11: the budget is tested
        # before the event, so a budget of 10 cannot end on that stop
        def run(max_steps):
            return _solve(lambda x, t: (-1.0,), np.array([1.0]), (0.0, 2.0),
                          IntegratorConfig(max_step=0.1, max_steps=max_steps),
                          lambda t, y: y.item(0))

        hit = run(11)
        assert hit.stopped and hit.t.size - 1 == 11
        with pytest.raises(IntegrationError, match="^step budget of 10 exceeded$"):
            run(10)

    def test_nested_run_gives_the_unnested_result(self):
        # the loop keeps its state in the call: a run started from inside a
        # field is the run it would be alone, and so is the outer run
        def inner():
            return _solve(lambda y, s: -y, np.array([1.0, 1.0]), (0.0, 0.1), IntegratorConfig())

        alone, nested = inner(), []

        def field(x, t):
            nested.append(inner())
            return -x

        outer = _solve(field, np.array([1.0, 1.0]), (0.0, 1.0), IntegratorConfig())
        plain = _solve(lambda x, t: -x, np.array([1.0, 1.0]), (0.0, 1.0), IntegratorConfig())
        assert len(nested) == outer.evals > 100
        for run in nested:
            assert np.array_equal(run.t, alone.t) and np.array_equal(run.y, alone.y)
        assert np.array_equal(outer.t, plain.t) and np.array_equal(outer.y, plain.y)

    def test_finished_runs_are_freed(self):
        # on a compiled kernel, so the runs make no Python call; what a
        # Python callback keeps is test_run_retains_under_2_kb's
        cfg = IntegratorConfig(max_step=1e-3)
        rhs = (make_duffing().fused, "lam", 0.5)

        _solve(rhs, np.array([1.0, 0.0]), (0.0, 0.1), cfg)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(10):
                assert _solve(rhs, np.array([1.0, 0.0]), (0.0, 10.0), cfg).accepted >= 10_000
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 1e6, f"{retained / 1e6:.1f} MB retained after 10 runs"

    # no callback may outlive its run, nor anything it reaches: not a big
    # array the field captures, and not a failed run's exception with the
    # frames and the sample buffers its traceback holds
    @staticmethod
    def retaining_run(kind):
        if kind == "captured_field":
            big = np.ones(10_000)  # 80 kB
            _solve(lambda x, t: (-big[0] * x[0], -x[1]), np.array([1.0, 0.5]),
                   (0.0, 0.1), IntegratorConfig(max_step=0.01))
            return

        def fused(x, t, lam):
            if t > 0.5:  # after 2,500 steps, 60 kB of samples
                raise KeyError("field failed")
            return (x[1] - 0.01 * lam, -x[0])

        cfg = IntegratorConfig(max_step=2e-4)
        with pytest.raises(KeyError):
            if kind == "failed":
                _solve(lambda x, t: fused(x, t, 0.0), np.array([1.0, 0.0]), (0.0, 1.0), cfg)
            else:  # the loop computes the multiplier around the Python field;
                # the run starts and stays inside the band, so it has one part
                integrate_regularized(SwitchedField(dim=2, fused=fused),
                                      SigmoidSpec("tanh", eps=10.0), [1.0, 0.0], (0.0, 1.0), cfg)

    RETAINING_RUNS = {"captured_field": 50, "failed": 3, "failed_regularized": 3}

    @pytest.mark.parametrize("kind", RETAINING_RUNS)
    def test_run_retains_under_2_kb(self, kind):
        count = self.RETAINING_RUNS[kind]
        self.retaining_run(kind)  # first calls fill caches that are no residue of a run
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(count):
                self.retaining_run(kind)
            gc.collect()
            per_run = (tracemalloc.get_traced_memory()[0] - before) / count
        finally:
            tracemalloc.stop()
        assert per_run < 2_000, f"{per_run:.0f} B retained per run"


class TestFieldValues:
    """The values a field returns reach the solver through one per-run store."""

    CFG = IntegratorConfig(max_step=0.05)
    DIMS = [1, 2, 3, 4]
    KINDS = ["regularized", "layer_only"]

    @staticmethod
    def rotation(n):
        # a decaying rotation in every pair of components, so each one moves
        A = -0.1 * np.eye(n)
        for i in range(n - 1):
            A[i, i + 1], A[i + 1, i] = 1.0, -1.0
        return A

    @pytest.mark.parametrize("n", DIMS)
    def test_return_types_give_identical_runs(self, n):
        A = self.rotation(n)
        x0 = np.linspace(1.0, 2.0, n)
        shapes = [lambda v: tuple(v.tolist()), lambda v: v.tolist(), lambda v: v, tuple]
        runs = [_solve(lambda x, t, as_=as_: as_(A @ x + np.sin(t)), x0, (0.0, 3.0), self.CFG)
                for as_ in shapes]
        assert runs[0].t.size > 60
        for run in runs[1:]:
            assert np.array_equal(run.t, runs[0].t) and np.array_equal(run.y, runs[0].y)

    # the wrong-count tests also return values that are no sequence at all
    NOT_SEQUENCES = {"float": 0.5, "none": None}
    EXTRA = [1, -1, *NOT_SEQUENCES]
    EXTRA_IDS = ["one_more", "one_less", *NOT_SEQUENCES]

    @pytest.mark.parametrize("n", DIMS)
    @pytest.mark.parametrize("extra", EXTRA, ids=EXTRA_IDS)
    def test_wrong_number_of_values_rejected(self, n, extra):
        if extra in self.NOT_SEQUENCES:
            with pytest.raises(TypeError):
                _solve(lambda x, t: self.NOT_SEQUENCES[extra], np.ones(n), (0.0, 1.0),
                       self.CFG)
            return

        # taken as they come, the values would be truncated or padded with 0
        def field(x, t):
            return tuple(-x.tolist()[0] for _ in range(n + extra))

        with pytest.raises(ValueError, match="values"):
            _solve(field, np.ones(n), (0.0, 1.0), self.CFG)

    @pytest.mark.parametrize("n", DIMS)
    @pytest.mark.parametrize("extra", [1, -1], ids=["one_more", "one_less"])
    def test_wrong_count_names_both_counts(self, n, extra):
        def field(x, t):
            return np.full(n + extra, -x.item(0))

        with pytest.raises(ValueError, match=f"^field returned {n + extra} values "
                                             f"for dimension {n}$"):
            _solve(field, np.ones(n), (0.0, 1.0), self.CFG)

    @pytest.mark.parametrize("n", DIMS)
    def test_field_not_called_after_it_raises(self, n):
        calls = []

        def field(x, t):
            calls.append(t)
            if t > 0.5:
                raise KeyError("field failed")
            return tuple(-x)

        with pytest.raises(KeyError, match="field failed"):
            _solve(field, np.ones(n), (0.0, 1.0), self.CFG)
        assert calls[-1] > 0.5 and all(t <= 0.5 for t in calls[:-1])

    # the same three checks on the run kinds whose multiplier or layer rhs
    # the loop computes around the field's Python callback

    @staticmethod
    def run_kind(kind, n, fused, t_end=3.0):
        sys = SwitchedField(dim=n, fused=fused, time_dependent=True)
        if kind == "regularized":
            return integrate_regularized(sys, SigmoidSpec("tanh", eps=0.1),
                                         np.linspace(0.05, 0.3, n), (0.0, t_end),
                                         TestFieldValues.CFG)
        return integrate_layer_only(sys, 0.2, np.linspace(0.1, 0.3, n)[1:], (0.0, t_end),
                                    TestFieldValues.CFG, eps_layer=1.0)

    @pytest.mark.parametrize("n", DIMS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_run_kind_return_types_give_identical_runs(self, kind, n):
        # x1 (the layer: lam) is pulled back by -4 lam, so lam stays in (-1, 1)
        A = self.rotation(n)

        def field(as_):
            def fused(x, t, lam):
                v = A @ x + np.sin(t)
                v[0] -= 4.0 * lam
                return as_(v)
            return fused

        shapes = [lambda v: tuple(v.tolist()), lambda v: v.tolist(), lambda v: v, tuple]
        runs = [self.run_kind(kind, n, field(as_)) for as_ in shapes]
        assert runs[0].t_final == 3.0 and runs[0].t.size > 60
        for run in runs[1:]:
            for a, b in ((run.t, runs[0].t), (run.x, runs[0].x), (run.lam, runs[0].lam)):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", DIMS)
    @pytest.mark.parametrize("extra", EXTRA, ids=EXTRA_IDS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_run_kind_wrong_number_of_values_rejected(self, kind, n, extra):
        if extra in self.NOT_SEQUENCES:
            with pytest.raises(TypeError):
                self.run_kind(kind, n, lambda x, t, lam: self.NOT_SEQUENCES[extra], t_end=1.0)
            return

        def fused(x, t, lam):
            return tuple(-x.tolist()[0] - lam for _ in range(n + extra))

        with pytest.raises(ValueError, match="values"):
            self.run_kind(kind, n, fused, t_end=1.0)

    @pytest.mark.parametrize("n", DIMS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_run_kind_field_not_called_after_it_raises(self, kind, n):
        calls, boom = [], KeyError("field failed")

        def fused(x, t, lam):
            calls.append(t)
            if t > 0.5:
                raise boom
            return tuple(-x - lam)

        with pytest.raises(KeyError) as err:
            self.run_kind(kind, n, fused, t_end=1.0)
        assert err.value is boom
        assert calls[-1] > 0.5 and all(t <= 0.5 for t in calls[:-1])

    @pytest.mark.parametrize("n", DIMS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_run_kind_field_not_called_after_inner_stage_raises(self, kind, n):
        # call 1 is the slope at the start and call 2 tries a first step
        # size, so call 5 is stage 4 of the first step: the step loop must
        # stop there, not go on to its later stages
        calls, boom = [], KeyError("field failed")

        def fused(x, t, lam):
            calls.append(t)
            if len(calls) >= 5:
                raise boom
            return tuple(-x - lam)

        with pytest.raises(KeyError) as err:
            self.run_kind(kind, n, fused, t_end=1.0)
        assert err.value is boom
        assert len(calls) == 5


    # a value of another kind, such as a dict, is rejected at every dim and
    # in every run kind: taken as a sequence, a dict would give its keys
    @pytest.mark.parametrize("n", DIMS)
    @pytest.mark.parametrize("kind", ["plain", "free", *KINDS])
    def test_dict_rejected(self, kind, n):
        def fused(x, t, lam):
            return {i: -x.item(0) - lam for i in range(n)}

        with pytest.raises(ValueError, match="dict"):
            if kind == "plain":
                _solve(lambda x, t: fused(x, t, 0.0), np.ones(n), (0.0, 1.0), self.CFG)
            elif kind == "free":
                advance_to_surface(SwitchedField(dim=n, fused=fused), np.full(n, 0.5),
                                   (0.0, 1.0), self.CFG)
            else:
                self.run_kind(kind, n, fused, t_end=1.0)

    def test_dict_of_the_open_report_rejected(self):
        # this run used to end at (0.5, 1.0), the motion of the keys (0, 1)
        sys = SwitchedField(dim=2, fused=lambda x, t, lam: {0: -x[0] - lam, 1: 1.0})
        with pytest.raises(ValueError, match="dict"):
            integrate_regularized(sys, SigmoidSpec("tanh", eps=0.1), [0.5, 0.0], (0.0, 1.0))


class TestLoopCounters:
    """The loop counts its accepted and rejected steps and its evaluations."""

    @pytest.mark.parametrize("kind", ["plain", "regularized", "layer"])
    def test_evaluations_are_the_calls_a_wrapper_sees(self, kind):
        calls = []

        def fused(x, t, lam):  # a run that rejects steps on its way
            calls.append(t)
            return (-50.0 * (x.item(0) - math.sin(20.0 * t)) - lam, 1.0)

        rhs = {"plain": lambda x, t: fused(x, t, 0.0), "regularized": (fused, "tanh", 0.1),
               "layer": (fused, "layer", 1.0)}[kind]
        counts = []
        for _ in range(2):
            calls.clear()
            run = _solve(rhs, np.array([1.0, 0.0]), (0.0, 2.0), IntegratorConfig(max_step=1.0),
                         method="dop853" if kind == "layer" else "dopri5")
            assert run.evals == len(calls)
            assert run.accepted == run.t.size - 1 and run.rejected > 0
            counts.append((run.accepted, run.rejected, run.evals))
        assert counts[0] == counts[1]


def python_path(sys):
    """The same system, its fused wrapped so that it has no compiled kernel."""
    inner = sys.fused
    return dataclasses.replace(sys, fused=lambda x, t, lam: inner(x, t, lam))


_HALF = CircuitParams(sigma=0.5)
BUILT_IN = {
    "example1": make_example1(), "example1_filippov": make_example1("filippov"),
    "example2": make_example2(), "example2_continuous": make_example2("continuous"),
    "circuit": make_circuit(), "circuit_half": make_circuit(_HALF),
    "duffing": make_duffing(), "duffing_linear": make_duffing(DuffingParams(variant="linear")),
}


class TestCompiledFields:
    """A built-in system's compiled runs are its Python-callback runs, bit for bit."""

    CFG = IntegratorConfig(rel_tol=1e-5, abs_tol=1e-8, max_step=0.05)

    @staticmethod
    def assert_same(a, b):
        assert a.regime == b.regime
        for u, v in ((a.t, b.t), (a.x, b.x), (a.lam, b.lam)):
            assert (u is None and v is None) or u.tobytes() == v.tobytes()

    @pytest.mark.parametrize("sys, eps_layer, lam0, t_end", [
        (make_duffing(DuffingParams()), 1e-3, 0.0, 20.0),
        (make_duffing(DuffingParams(variant="linear")), 1e-2, 0.0, 20.0),
        (make_example1(), 1e-2, 0.1, 1.0),  # f1 = lam: leaves at lam = 1, t = 0.023
    ], ids=["duffing_cubic", "duffing_linear", "exit"])
    def test_layer_equals_the_python_path(self, sys, eps_layer, lam0, t_end):
        segs = [integrate_layer_only(s, lam0, [0.0], (0.0, t_end), self.CFG, eps_layer=eps_layer)
                for s in (sys, python_path(sys))]
        assert segs[0].t.size > 3 and (segs[0].t_final < t_end) == (lam0 != 0.0)
        self.assert_same(*segs)

    @pytest.mark.parametrize("sys, sig, x0", [
        (make_duffing(DuffingParams()), SigmoidSpec("piecewise_linear", eps=1e-2),
         [0.005, 0.0]),
        (make_example2("continuous"), SigmoidSpec("tanh", eps=1e-3), [-0.5, 0.0]),
        *[(make_circuit(_HALF), SigmoidSpec(kind, eps=1e-2), circuit_iv_to_state(0.0, 0.0, _HALF))
          for kind in ("arctan_unit", "erf")],
    ], ids=["duffing", "band_crossing", "circuit_arctan", "circuit_erf"])
    def test_regularized_equals_the_python_path(self, sys, sig, x0):
        segs = [integrate_regularized(s, sig, x0, (0.0, 20.0), self.CFG)
                for s in (sys, python_path(sys))]
        assert segs[0].t.size > 100
        self.assert_same(*segs)

    @pytest.mark.parametrize("name", BUILT_IN)
    def test_free_flight_and_hybrid_equal_the_python_path(self, name):
        sys = BUILT_IN[name]
        for x0 in ([0.3, 0.1], [-0.3, 0.1]):
            runs = [advance_to_surface(s, x0, (0.0, 3.0), self.CFG) for s in (sys, python_path(sys))]
            self.assert_same(runs[0][0], runs[1][0])
            assert repr(runs[0][1]) == repr(runs[1][1])
            runs = [integrate_hybrid(s, x0, (0.0, 3.0), self.CFG, eps_layer=1e-3)
                    for s in (sys, python_path(sys))]
            assert runs[0].transitions == runs[1].transitions
            for a, b in zip(runs[0].segments, runs[1].segments, strict=True):
                self.assert_same(a, b)

    @pytest.mark.parametrize("sys, x0, t_end", [
        *[(make_circuit(p), circuit_iv_to_state(i, v, p), 20.0)
          for p in (CircuitParams(), _HALF) for i, v in ((3.0, 1.9), (3.5, 6.0))],
        (make_circuit(_HALF), circuit_iv_to_state(0.0, 0.0, _HALF), 200.0),  # criterion 3
        (make_example1(), [0.0, 0.4], 5.0),
        (make_example1("filippov"), [0.0, 0.4], 5.0),
        (make_example2(), [-0.5, 0.3], 5.0),
    ], ids=["circuit_0_a", "circuit_0_b", "circuit_half_a", "circuit_half_b", "escape",
            "example1", "example1_filippov", "example2"])
    def test_sliding_equals_the_python_path(self, sys, x0, t_end):
        runs = [integrate_hybrid(s, x0, (0.0, t_end), self.CFG) for s in (sys, python_path(sys))]
        assert "stick" in [k for _, k in runs[0].transitions]
        assert runs[0].transitions == runs[1].transitions
        for a, b in zip(runs[0].segments, runs[1].segments, strict=True):
            self.assert_same(a, b)

    def test_built_in_slide_calls_no_python(self, monkeypatch):
        # the field's Python body raises while a run is in the loop; with
        # the circuit's kernel tag the run never calls it
        circuit, inside = make_circuit(_HALF), []

        def fused(x, t, lam):
            if inside:
                raise AssertionError("the loop called the Python field")
            return circuit.fused(x, t, lam)
        solve = integrate._solve

        def armed(*args, **kwargs):
            inside.append(args)
            try:
                return solve(*args, **kwargs)
            finally:
                inside.pop()
        monkeypatch.setattr(integrate, "_solve", armed)
        monkeypatch.setattr(layer, "_solve", armed)
        x0 = circuit_iv_to_state(3.0, 1.9, _HALF)
        with pytest.raises(AssertionError, match="the loop called"):  # untagged: it runs
            integrate_hybrid(dataclasses.replace(circuit, fused=fused), x0, (0.0, 20.0), self.CFG)
        fused.kernel = circuit.fused.kernel
        traj = integrate_hybrid(dataclasses.replace(circuit, fused=fused), x0, (0.0, 20.0),
                                self.CFG)
        assert [k for _, k in traj.transitions] == ["stick"]
        assert traj.segments[-1].regime == "sliding" and traj.t_final == 20.0

    @pytest.mark.parametrize("kind", ["free", "regularized", "layer"])
    def test_replaced_fused_is_the_one_that_runs(self, kind):
        # the kernel rides on the callable, not on the system: replacing
        # fused drops it, so the run follows the replacement, here (0, 1)
        duffing = make_duffing()
        assert duffing.fused.kernel == ("duffing_cubic", (0.15, 0.05, 0.1))
        calls = []

        def other(x, t, lam):
            calls.append(t)
            return (0.0, 1.0)

        sys = dataclasses.replace(duffing, fused=other)
        if kind == "free":
            seg = advance_to_surface(sys, [0.5, 0.0], (0.0, 1.0), self.CFG)[0]
        elif kind == "regularized":
            seg = integrate_regularized(sys, SigmoidSpec("tanh", eps=0.1), [0.5, 0.0],
                                        (0.0, 1.0), self.CFG)
        else:
            seg = integrate_layer_only(sys, 0.5, [0.0], (0.0, 1.0), self.CFG)
        assert calls and seg.t_final == 1.0
        np.testing.assert_allclose(seg.x[-1], [0.0 if kind == "layer" else 0.5, 1.0],
                                   rtol=1e-12)


class TestEvents:
    """A fall through zero ends the run; sign tests on values near 1e-200."""

    CFG = IntegratorConfig(max_step=0.01)

    @pytest.mark.parametrize("sgn", [1.0, -1.0])
    def test_crossing_located_where_the_product_underflows(self, sgn):
        # sgn x1 = 1e-200 (1 - t) falls through zero at t = 1, as the free
        # flight event on either side; each step's two values multiply to 0.0
        def field(x, t):
            return np.array([-sgn * 1e-200])

        run = _solve(field, np.array([sgn * 1e-200]), (0.0, 2.0), self.CFG,
                     lambda t, y: sgn * y.item(0))
        assert run.stopped
        assert run.t[-1] == pytest.approx(1.0, abs=1e-12)
        assert abs(run.y[-1, 0]) < 1e-210

    def test_crossing_in_the_other_direction_ignored(self):
        # -x1 rises through zero: a rise does not end the run
        run = _solve(lambda x, t: np.array([-1e-200]), np.array([1e-200]), (0.0, 2.0),
                     self.CFG, lambda t, y: -y.item(0))
        assert not run.stopped and run.t[-1] == 2.0

    def test_tiny_positive_ends_do_not_fire(self):
        run = _solve(lambda x, t: -x, np.array([1e-200]), (0.0, 1.0), self.CFG,
                     lambda t, y: y.item(0))
        assert not run.stopped and run.t[-1] == 1.0
        assert np.all(run.y[:, 0] > 0)

    def test_event_evaluated_once_per_sample(self):
        # no crossing: one call at the start and one at each accepted step end
        calls = []

        def fun(t, y):
            calls.append(t)
            return 1.0 + y.item(0)

        run = _solve(lambda x, t: -x, np.array([1.0]), (0.0, 1.0), self.CFG, fun)
        assert not run.stopped and run.t.size > 100
        assert calls == run.t.tolist()


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

    @staticmethod
    def grazing_field():
        # x1(t) = tol/2 + (1 - tol/2) e^(-5t) from x1 = 1: it settles inside
        # the surface band, from t = ln(2/tol)/5 = 4.284 on, but never crosses
        def fp(x, t):
            return np.array([-5.0 * (x[0] - SURFACE_TOL / 2), 1.0])

        return tautology(fp, fp)

    def test_graze_emits_warning(self):
        with pytest.warns(GrazeWarning):
            seg, hit = advance_to_surface(self.grazing_field(), np.array([1.0, 0.0]),
                                          (0.0, 10.0))
        assert hit is None
        assert (seg.x[:, 0] > 0).all()
        assert (seg.x[:, 0] <= SURFACE_TOL).sum() > 100

    def test_graze_warning_names_first_sample_in_band(self):
        with pytest.warns(GrazeWarning) as record:
            seg, hit = advance_to_surface(self.grazing_field(), np.array([1.0, 0.0]),
                                          (0.0, 10.0))
        first = seg.t[np.argmax(seg.x[:, 0] <= SURFACE_TOL)]
        assert first == pytest.approx(math.log(2 / SURFACE_TOL) / 5, abs=0.01)
        assert f"near t={first:.6g} " in str(record[0].message)


def regularized(sys, x0, t_span):
    return integrate_regularized(sys, SigmoidSpec("tanh", eps=0.1), x0, t_span)


def layer_only(sys, z0, t_span):
    return integrate_layer_only(sys, z0[0], z0[1:], t_span)


NAN, INF, SHAPE = math.nan, math.inf, DimensionMismatchError
# (entry point, start, span, error): no run may begin from these on example2
BAD_STARTS = {
    "advance-dim3": (advance_to_surface, [1.0, 0.0, 5.0], (0.0, 1.0), SHAPE),
    "advance-inf-x1": (advance_to_surface, [INF, 0.0], (0.0, 1.0), ValueError),
    "advance-backward": (advance_to_surface, [1.0, 0.0], (1.0, 0.0), ValueError),
    "regularized-dim1": (regularized, [0.5], (0.0, 1.0), SHAPE),
    "regularized-nan-x2": (regularized, [0.5, NAN], (0.0, 1.0), ValueError),
    "regularized-empty-span": (regularized, [0.5, 0.0], (1.0, 1.0), ValueError),
    "hybrid-dim3": (integrate_hybrid, [-0.3, 0.0, 0.0], (0.0, 1.0), SHAPE),
    "hybrid-nan-x1": (integrate_hybrid, [NAN, 0.0], (0.0, 1.0), ValueError),
    "hybrid-nan-t1": (integrate_hybrid, [-0.3, 0.0], (0.0, NAN), ValueError),
    "hybrid-backward": (integrate_hybrid, [-0.3, 0.0], (1.0, 0.0), ValueError),
    "hybrid-inf-t1": (integrate_hybrid, [-0.3, 0.0], (0.0, INF), ValueError),
    "hybrid-inf-t0": (integrate_hybrid, [-0.3, 0.0], (-INF, 0.0), ValueError),
    "layer-lam0-3": (layer_only, [3.0, 0.0], (0.0, 1.0), ValueError),
    "layer-lam0-nan": (layer_only, [NAN, 0.0], (0.0, 1.0), ValueError),
    "layer-nan-x2": (layer_only, [0.5, NAN], (0.0, 1.0), ValueError),
    "layer-inf-t1": (layer_only, [0.5, 0.0], (0.0, INF), ValueError),
}


@pytest.mark.parametrize("run, x0, t_span, error", BAD_STARTS.values(),
                         ids=BAD_STARTS.keys())
def test_bad_start_rejected(run, x0, t_span, error):
    with pytest.raises(error) as info:
        run(make_example2(), np.array(x0), t_span)
    if error is ValueError:  # DimensionMismatchError is a ValueError too
        assert not isinstance(info.value, SHAPE)


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

    @pytest.mark.parametrize("kind", ["piecewise_linear", "arctan_unit", "tanh", "erf"])
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

    def test_band_parts_share_the_budget(self):
        # the first part runs up to the band edge x1 = -eps; a budget of
        # its steps leaves the band part none
        sys = tautology([1.0, 0.0], [1.0, 0.0])
        sig = SigmoidSpec("tanh", eps=1e-3)
        seg = integrate_regularized(sys, sig, np.array([-0.5, 0.0]), (0.0, 1.0))
        first = int(np.argmax(np.abs(seg.x[:, 0]) <= sig.eps * (1 + 1e-12)))
        assert 0 < first < seg.t.size - 1
        with pytest.raises(IntegrationError, match=f"^step budget of {first} exceeded$"):
            integrate_regularized(sys, sig, np.array([-0.5, 0.0]), (0.0, 1.0),
                                  IntegratorConfig(max_steps=first))

    def test_later_band_part_names_the_configured_budget(self):
        # the run takes 110 steps in three parts; the last part runs out
        sys = tautology([1.0, 0.0], [1.0, 0.0])
        sig = SigmoidSpec("tanh", eps=1e-3)
        seg = integrate_regularized(sys, sig, np.array([-0.5, 0.0]), (0.0, 1.0))
        assert seg.t.size - 1 == 110
        with pytest.raises(IntegrationError, match="^step budget of 109 exceeded$"):
            integrate_regularized(sys, sig, np.array([-0.5, 0.0]), (0.0, 1.0),
                                  IntegratorConfig(max_steps=109))

    @pytest.mark.parametrize("x0, flow", [(-0.5, 1.0), (0.5, -1.0)])
    def test_band_leaped_from_either_side(self, x0, flow):
        # a step outside is longer than the band is wide: the run that enters
        # must stop at the near edge, upward and downward alike
        sys = tautology([flow, 0.0], [flow, 0.0])
        sig = SigmoidSpec("tanh", eps=1e-3)
        seg = integrate_regularized(sys, sig, np.array([x0, 0.0]), (0.0, 1.0))
        assert seg.x_final[0] == pytest.approx(-x0, rel=1e-6)
        for edge in (-sig.eps, sig.eps):
            assert np.min(np.abs(seg.x[:, 0] - edge)) <= 1e-12 * sig.eps
        inside = np.abs(seg.x[:, 0]) < sig.eps * 0.999
        assert np.diff(seg.t)[inside[:-1] & inside[1:]].max() <= sig.eps / 4 + 1e-12

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


_DUFFING = make_duffing(DuffingParams())
_BAND_CFG = IntegratorConfig(rel_tol=1e-5, abs_tol=1e-8, max_step=0.05)
_FINE_CFG = IntegratorConfig(max_step=1e-4)

# one run of each kind with at least 20k samples, returning its segments
RUN_KINDS = {
    "advance_to_surface": lambda: [
        advance_to_surface(make_example2(), [-3.0, 0.0], (0.0, 2.5), _FINE_CFG)[0]],
    "integrate_regularized": lambda: [integrate_regularized(
        _DUFFING, SigmoidSpec("piecewise_linear", eps=1e-2), [0.0, 0.0], (0.0, 50.0),
        _BAND_CFG)],
    "regularized_band_crossing": lambda: [integrate_regularized(
        tautology([1.0, 1.0], [1.0, 1.0]), SigmoidSpec("tanh", eps=0.1), [-0.5, 0.0],
        (0.0, 1.0), IntegratorConfig(max_step=5e-5))],
    "integrate_layer_only": lambda: [integrate_layer_only(
        _DUFFING, 0.0, [0.0], (0.0, 100.0), _BAND_CFG, eps_layer=1e-5)],
    "integrate_hybrid_slide": lambda: integrate_hybrid(
        make_example2(), [-0.3, 0.0], (0.0, 2.3), _FINE_CFG).segments,
}


def _result_arrays(segments):
    return [a for seg in segments for a in (seg.t, seg.x, seg.lam) if a is not None]


@pytest.fixture(scope="module")
def traced_runs():
    """Each run kind's segments and the peak of traced memory it raised."""
    runs = {}
    for kind, run in RUN_KINDS.items():
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            segments = run()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        runs[kind] = segments, peak
    return runs



def test_result_arrays_hold_no_growth_slack():
    # a free flight of 20,000 steps at max_step 1e-4 that never reaches the
    # surface: each array's buffer is trimmed to its samples, so the result
    # holds its data and a few small objects
    def run():
        return advance_to_surface(make_example2(), [-3.0, 0.0], (0.0, 2.0), _FINE_CFG)[0]

    run()  # first calls fill caches that are no part of a result
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        seg = run()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert seg.t.size == 20_001 and seg.lam is None
    assert held - (seg.t.nbytes + seg.x.nbytes) < 2_000, f"{held} B held"

class TestRecordedMemory:
    """Samples are stored once, as float64, in buffers no result shares."""

    @pytest.mark.parametrize("kind", RUN_KINDS)
    def test_peak_below_twice_the_result(self, traced_runs, kind):
        segments, peak = traced_runs[kind]
        assert sum(seg.t.size for seg in segments) >= 20_000
        result = sum(a.nbytes for a in _result_arrays(segments))
        assert peak < 2 * result, f"peak {peak / 1e6:.2f} MB for {result / 1e6:.2f} MB of results"

    @pytest.mark.parametrize("kind", [*RUN_KINDS, "hybrid_layer_transits"])
    def test_result_arrays_share_no_memory(self, traced_runs, kind):
        if kind in traced_runs:
            segments = traced_runs[kind][0]
        else:  # free flight and layer transits entered at lam = +-1
            segments = integrate_hybrid(_DUFFING, [0.3, 0.0], (0.0, 3.0), _BAND_CFG).segments
            layers = [seg for seg in segments if seg.regime == "layer_transit"]
            assert len(layers) == 2
            for seg in layers:  # lam is not the zeroed x1 column
                assert abs(seg.lam[0]) == 1.0 and not seg.x[:, 0].any()
        arrays = _result_arrays(segments)
        assert all(a.flags.writeable for a in arrays)
        for i, a in enumerate(arrays):
            for b in arrays[:i]:
                assert not np.shares_memory(a, b)
