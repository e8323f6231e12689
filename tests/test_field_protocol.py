"""The evaluator contract: a tuple of floats and a float64 array run alike.

Every built-in ``fused`` returns a tuple of Python floats; a user field
may return a float64 array.  Each run kind must give the same
samples, lambda columns, transitions and roots, bit for bit, with either.
"""

import dataclasses

import numpy as np
import pytest

from switchlayer import (
    CircuitParams,
    DegenerateInclusionError,
    SigmoidSpec,
    SwitchedField,
    circuit_iv_to_state,
    find_layer_equilibria,
    find_sliding_modes,
    integrate_hybrid,
    integrate_layer_only,
    integrate_regularized,
    make_circuit,
    make_duffing,
    make_example1,
    make_example2,
)

from fields import lam_tracker


def fold_field():
    """f1 = lam^2 + x2 - 1/4: a slide from (-0.1, 0) leaves at a fold, t = 1/4."""
    def fused(x, t, lam):
        return (x.item(1) + 0.75 + (lam * lam - 1.0), 1.0)
    return SwitchedField(dim=2, fused=fused)


def as_array(sys):
    """The same field, its evaluator returning a new float64 array per call."""
    inner = sys.fused
    return dataclasses.replace(sys, fused=lambda x, t, lam: np.array(inner(x, t, lam)))


HALF = CircuitParams(sigma=0.5)
# (system, hybrid start, hybrid span, the regimes the hybrid run must pass)
CASES = {
    "example1-nonlinear": (make_example1("nonlinear"), [0.0, 0.3], 2.0, {"sliding"}),
    "example1-filippov": (make_example1("filippov"), [0.0, 0.3], 2.0, {"sliding"}),
    "example2-nonlinear": (make_example2("nonlinear"), [-0.3, 0.0], 2.0, {"sliding"}),
    "example2-continuous": (make_example2("continuous"), [-0.3, 0.0], 2.0, {"free_plus"}),
    "circuit-sigma0": (make_circuit(CircuitParams(sigma=0.0)),
                       circuit_iv_to_state(0.0, 0.0, CircuitParams()), 6.0, {"sliding"}),
    # the escape: a slide that leaves at lam = +-1, then free flight
    "circuit-sigma0.5": (make_circuit(HALF), circuit_iv_to_state(0.0, 0.0, HALF), 20.0,
                         {"sliding", "free_plus"}),
    "duffing": (make_duffing(), [0.3, 0.1], 3.0, {"layer_transit"}),
    "duffing-tracker": (lam_tracker(make_duffing()), [0.3, 0.1, 0.0], 3.0,
                        {"layer_transit"}),
    "fold": (fold_field(), [-0.1, 0.0], 1.0, {"sliding", "free_plus"}),
}


def assert_same_segment(a, b):
    assert a.regime == b.regime
    np.testing.assert_array_equal(a.t, b.t, strict=True)
    np.testing.assert_array_equal(a.x, b.x, strict=True)
    if a.lam is None:
        assert b.lam is None
    else:
        np.testing.assert_array_equal(a.lam, b.lam, strict=True)


def roots_of(sys, x_rest):
    try:
        return [(r.lam_s, r.stability, r.sliding_field.tolist())
                for r in find_sliding_modes(sys, x_rest, 0.7)]
    except DegenerateInclusionError as exc:
        return str(exc)


@pytest.mark.parametrize("name", CASES)
def test_tuple_and_array_evaluators_run_alike(name):
    sys, x0, t_end, regimes = CASES[name]
    arr = as_array(sys)
    x0 = np.asarray(x0, dtype=float)
    assert type(sys.fused(x0, 0.0, 0.5)) is tuple
    assert type(arr.fused(x0, 0.0, 0.5)) is np.ndarray

    runs = [integrate_hybrid(s, x0, (0.0, t_end), eps_layer=1e-3) for s in (sys, arr)]
    assert runs[0].transitions == runs[1].transitions
    assert len(runs[0].segments) == len(runs[1].segments)
    for a, b in zip(*(r.segments for r in runs)):
        assert_same_segment(a, b)
    assert regimes <= {seg.regime for seg in runs[0].segments}
    if name == "fold":
        assert [k for _, k in runs[0].transitions] == ["stick", "exit_slide"]

    rest = x0[1:]
    assert_same_segment(*(integrate_layer_only(s, 0.3, rest, (0.0, 0.5), eps_layer=1e-3)
                          for s in (sys, arr)))
    for kind in ("piecewise_linear", "tanh"):
        sig = SigmoidSpec(kind, eps=0.05)
        assert_same_segment(*(integrate_regularized(s, sig, x0, (0.0, min(t_end, 3.0)))
                              for s in (sys, arr)))

    for x2 in np.linspace(-1.0, 3.0, 9):
        x_rest = np.full(sys.dim - 1, x2)
        assert roots_of(sys, x_rest) == roots_of(arr, x_rest)
    if not sys.time_dependent:
        box = [(-1.0, 1.0)] + [(-1.0, 12.0)] * (sys.dim - 1)
        eqs = [[(e.lam_e, e.x_rest.tolist(), e.eigenvalues.tolist(), e.classification)
                for e in find_layer_equilibria(s, box)] for s in (sys, arr)]
        assert eqs[0] == eqs[1]
