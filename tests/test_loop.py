"""The compiled step loop: its build, and its kernels against their Python evaluators.

A built-in field is declared once and evaluated twice: by its Python
``fused`` and by its C kernel, which the loop runs.  Both must give the
same floats, bit for bit, as must the loop's sigmoids and layer rhs and
their Python statements.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from switchlayer import (
    CircuitParams,
    DuffingParams,
    SigmoidSpec,
    integrate,
    make_circuit,
    make_duffing,
    make_example1,
    make_example2,
)
from switchlayer.scenarios import FIELDS
from switchlayer.sigmoids import KINDS

ffi, lib = integrate.ffi, integrate.lib
N = 10_000
SYSTEMS = {
    "example1_nonlinear": make_example1(), "example1_filippov": make_example1("filippov"),
    "example2_nonlinear": make_example2(), "example2_continuous": make_example2("continuous"),
    "circuit": make_circuit(CircuitParams(sigma=0.5)),
    "duffing_cubic": make_duffing(), "duffing_linear": make_duffing(DuffingParams(variant="linear")),
}


def magnitudes(rng, shape):
    """Random values of either sign and of magnitudes from 1e-3 to 1e2."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 2.0, shape)


def compiled(rhs, t, y, values=None):
    """The loop's rhs at each (t, y), its ``value`` set per point if given."""
    field, _, keep = integrate._field(rhs, y.shape[1])
    yb = np.empty(y.shape[1])
    y_ptr, dy = ffi.from_buffer("double[]", yb), ffi.new("double[]", y.shape[1])
    out = np.empty_like(y)
    for i in range(len(t)):
        if values is not None:
            field.value = values[i]
        yb[:] = y[i]
        assert lib.sl_rhs(field, t[i], y_ptr, dy) == 0
        out[i] = ffi.unpack(dy, y.shape[1])
    return out


def test_every_declared_field_is_checked():
    assert set(SYSTEMS) == set(FIELDS)
    assert all(s.fused.kernel[0] == name for name, s in SYSTEMS.items())


@pytest.mark.parametrize("name", FIELDS)
def test_kernel_equals_its_python_evaluator(name):
    rng = np.random.default_rng(list(FIELDS).index(name))
    x, t, lam = magnitudes(rng, (N, 2)), rng.uniform(-50.0, 50.0, N), rng.uniform(-1.5, 1.5, N)
    fused = SYSTEMS[name].fused
    expected = np.array([fused(xi, ti, li) for xi, ti, li in zip(x, t.tolist(), lam.tolist())])
    assert compiled((fused, "lam", 0.0), t, x, lam).tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", FIELDS)
def test_layer_rhs_equals_its_python_statement(name):
    # z = (lam, x2), lam also past the layer, where it is clipped
    rng = np.random.default_rng(100 + list(FIELDS).index(name))
    z = np.column_stack((rng.uniform(-1.5, 1.5, N), magnitudes(rng, N)))
    t, eps_layer, fused = rng.uniform(-50.0, 50.0, N), 1e-5, SYSTEMS[name].fused
    expected = []
    for (lam, x2), ti in zip(z.tolist(), t.tolist()):
        f1, f2 = fused(np.array([0.0, x2]), ti, min(max(lam, -1.0), 1.0))
        expected.append((f1 / eps_layer, f2))
    assert compiled((fused, "layer", eps_layer), t, z).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_sigmoid_equals_its_python_evaluator(kind):
    rng = np.random.default_rng(200 + KINDS.index(kind))
    eps = 10.0 ** rng.uniform(-4.0, 0.0)
    v = magnitudes(rng, N) * eps
    phi = SigmoidSpec(kind, eps).scalar_fn()
    expected = np.array([phi(vi) for vi in v.tolist()])
    got = np.array([lib.sl_sigmoid(KINDS.index(kind), eps, vi) for vi in v.tolist()])
    assert got.tobytes() == expected.tobytes()
    # and the regularized rhs built on it
    x, t, fused = np.column_stack((v, magnitudes(rng, N))), rng.uniform(-50.0, 50.0, N), \
        SYSTEMS["duffing_cubic"].fused
    expected = np.array([fused(xi, ti, li) for xi, ti, li in zip(x, t.tolist(), expected)])
    assert compiled((fused, kind, eps), t, x).tobytes() == expected.tobytes()


def run_child(code, *args, **env):
    src = str(Path(integrate.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src, **env}, timeout=300)


LOAD = ("import sys\nfrom switchlayer import _build\nm = _build.load([sys.argv[1]])\n"
        "print(m.__file__, m.lib.sl_sigmoid(2, 1.0, 0.5), 'setuptools' in sys.modules)")


def test_cold_build_in_a_child_process(tmp_path):
    proc = run_child(LOAD, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    path, value, setuptools = proc.stdout.split()
    built = Path(path)
    assert built.parent == tmp_path and built.name.startswith("_loop_")
    assert list(tmp_path.iterdir()) == [built]  # the build's own files are gone
    assert float(value) == math.tanh(0.5) and setuptools == "False"


def test_missing_compiler_is_an_import_error(tmp_path):
    proc = run_child(LOAD, str(tmp_path), CC="/nonexistent/cc")
    assert proc.returncode == 1
    assert "ImportError" in proc.stderr and "needs a C compiler" in proc.stderr
    assert not list(tmp_path.iterdir())
