"""find_layer_equilibria against the row-by-row numpy search it replaced.

The compiled ``sl_rows`` and ``sl_jac`` evaluate the layer field and its
central differences; Newton's steps, the merge and the eigenvalues stay
numpy's.  Every LayerEquilibrium must equal the reference's bit for bit,
a Python field must get the reference's calls in the reference's order,
and a failing field must fail as it did.
"""

import math
import warnings

import numpy as np
import pytest

import equilibria_reference as reference
from switchlayer import (
    CircuitParams,
    SwitchedField,
    find_layer_equilibria,
    make_circuit,
    make_example1,
    make_example2,
)
from switchlayer.core import NonFiniteFieldError


def assert_bitwise_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.float64(g.lam_e).tobytes() == np.float64(w.lam_e).tobytes()
        assert g.x_rest.tobytes() == w.x_rest.tobytes()
        assert g.eigenvalues.dtype == w.eigenvalues.dtype
        assert g.eigenvalues.tobytes() == w.eigenvalues.tobytes()
        assert g.classification == w.classification


def bilinear_field(rng):
    """F = A u + c u1 u2 with u = (lam, x2) - z0: up to two rest points."""
    a, c = rng.normal(size=(2, 2)), rng.normal(size=2)
    z0 = (rng.uniform(-0.8, 0.8), rng.uniform(-2.5, 2.5))

    def fused(x, t, lam):
        u = (lam - z0[0], x[1] - z0[1])
        return tuple(a[i, 0] * u[0] + a[i, 1] * u[1] + c[i] * u[0] * u[1] for i in range(2))
    return SwitchedField(dim=2, fused=fused)


def dim3_field():
    """Rest points at lam = 0.3 inside the layer and lam = -1 on its edge,
    where the differences straddle the clip."""
    def fused(x, t, lam):
        return (x[1] - lam, x[2] - lam * lam + 0.1, x[1] + x[2] - 0.3 * lam - 0.2)
    return SwitchedField(dim=3, fused=fused)


def counted(sys):
    """sys whose fused records (x, lam) at every call."""
    calls, inner = [], sys.fused

    def fused(x, t, lam):
        calls.append((*x.tolist(), t, lam))
        return inner(x, t, lam)
    return SwitchedField(dim=sys.dim, fused=fused), calls


CIRCUIT_BOXES = [[(-1, 1), (0, 30)], [(-1, 1), (-5, 5)], [(-0.5, 1), (0, 10)],
                 [(-1, 1), (1.9, 2.2)]]


class TestReferenceOracle:
    @pytest.mark.parametrize("sigma", [0.0, 0.1, 0.3, 0.5, 0.75, 0.95, -0.4, -0.9])
    def test_circuit(self, sigma):
        sys = make_circuit(CircuitParams(sigma=sigma))
        for box in CIRCUIT_BOXES:
            assert_bitwise_equal(find_layer_equilibria(sys, box),
                                 reference.find_layer_equilibria(sys, box))
        assert len(find_layer_equilibria(sys, CIRCUIT_BOXES[0])) == 1

    @pytest.mark.parametrize("sys", [make_example1(), make_example1("filippov"),
                                     make_example2(), make_example2("continuous")],
                             ids=["example1", "example1_filippov", "example2",
                                  "example2_continuous"])
    def test_examples(self, sys):
        for box in ([(-1, 1), (-5, 5)], [(-0.9, 0.9), (0, 1)]):
            assert_bitwise_equal(find_layer_equilibria(sys, box),
                                 reference.find_layer_equilibria(sys, box))

    def test_bilinear_callback_fuzz(self):
        rng = np.random.default_rng(31)
        found = 0
        for _ in range(30):
            sys = bilinear_field(rng)
            got = find_layer_equilibria(sys, [(-1, 1), (-3, 3)])
            assert_bitwise_equal(got, reference.find_layer_equilibria(sys, [(-1, 1), (-3, 3)]))
            found += len(got)
        assert found >= 20

    def test_dim3(self):
        sys = dim3_field()
        box = [(-1, 1), (-3, 3), (-3, 3)]
        got = find_layer_equilibria(sys, box)
        assert_bitwise_equal(got, reference.find_layer_equilibria(sys, box))
        assert [eq.lam_e for eq in got] == pytest.approx([-1.0, 0.3], abs=1e-9)

    @pytest.mark.parametrize("make", [lambda: bilinear_field(np.random.default_rng(5)),
                                      dim3_field], ids=["bilinear", "dim3"])
    def test_python_field_gets_the_reference_calls(self, make):
        sys = make()
        box = [(-1, 1)] + [(-3, 3)] * (sys.dim - 1)
        (ours, got), (theirs, want) = counted(sys), counted(sys)
        assert_bitwise_equal(find_layer_equilibria(ours, box),
                             reference.find_layer_equilibria(theirs, box))
        assert len(got) > 8 ** sys.dim
        assert np.array(got).tobytes() == np.array(want).tobytes()


class Stop(Exception):
    pass


def raising_at(sys, k):
    """sys whose fused raises Stop at its k-th call, and its call counter."""
    count, inner = [0], sys.fused

    def fused(x, t, lam):
        count[0] += 1
        if count[0] == k:
            raise Stop(k)
        return inner(x, t, lam)
    return SwitchedField(dim=sys.dim, fused=fused), count


class TestFailures:
    # 64 seed rows, then 4 evaluations a row for the first Jacobians
    @pytest.mark.parametrize("k", [1, 40, 64, 65, 100, 64 + 4 * 64])
    def test_field_exception_is_reraised_at_its_call(self, k):
        sys = bilinear_field(np.random.default_rng(5))
        for search in (find_layer_equilibria, reference.find_layer_equilibria):
            failing, count = raising_at(sys, k)
            with pytest.raises(Stop):
                search(failing, [(-1, 1), (-3, 3)])
            assert count[0] == k

    @pytest.mark.parametrize("k", [1, 70])
    def test_wrong_count_names_it(self, k):
        calls = [0]

        def fused(x, t, lam):
            calls[0] += 1
            return (lam - 0.3, x[1] - 1.0, 0.0) if calls[0] == k else (lam - 0.3, x[1] - 1.0)
        with pytest.raises(ValueError, match="returned 3 values for dimension 2"):
            find_layer_equilibria(SwitchedField(dim=2, fused=fused), [(-1, 1), (-3, 3)])
        assert calls[0] == k

    def test_non_finite_difference_raises_alone(self):
        # finite on every seed, x2 <= 3, but not at x2 + h on the top row
        def fused(x, t, lam):
            return (lam - 0.3 if x[1] <= 3.0 else math.inf, x[1] - 1.0)
        sys = SwitchedField(dim=2, fused=fused)
        messages = []
        for search in (find_layer_equilibria, reference.find_layer_equilibria):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(NonFiniteFieldError) as exc:
                    search(sys, [(-1, 1), (0, 3)])
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
