"""The compiled module: its build, its kernels against their Python
evaluators, its ports of scipy's root finder and minimiser, its
eigenvalue routine against LAPACK's, and its CSV formatter against
Python's ``format(v, ".17g")``.

A built-in field is declared once and evaluated twice: by its Python
``fused`` and by its C kernel, which the loop runs.  Both must give the
same floats, bit for bit, as must the loop's sigmoids and layer rhs and
their Python statements.  The loop's Brent root finder and bounded
minimiser must make scipy's calls and return scipy's floats, and fail
where scipy's raise or report no success.  The formatter must print
every float64 as Python does, byte for byte, and its table of powers of
ten must be exact and decide the rounding of every double.
"""

import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from switchlayer import (
    CircuitParams,
    DuffingParams,
    SigmoidSpec,
    SwitchedField,
    find_sliding_modes,
    integrate,
    make_circuit,
    make_duffing,
    make_example1,
    make_example2,
)
from switchlayer import _build
from switchlayer.core import NonFiniteFieldError
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


STALE = "_loop_0000000000000000" + EXTENSION_SUFFIXES[0]


def test_build_prunes_stale_modules_in_its_first_directory_only(tmp_path):
    # the first directory stands for the package's __pycache__, the shared
    # one for ~/.cache/switchlayer, which a build reaches when the first
    # cannot be made (here: under a file)
    own, shared = tmp_path / "own", tmp_path / "shared"
    other_abi = "_loop_0000000000000000.cpython-399-x86_64-linux-gnu.so"
    for d in (own, shared):
        d.mkdir()
        for name in (STALE, other_abi, "notes.txt"):
            (d / name).write_text("")
    (tmp_path / "file").write_text("")
    code = ("import sys\nfrom switchlayer import _build\n"
            "print(_build.load([sys.argv[1]]).__file__)\n"
            "print(_build.load([sys.argv[2], sys.argv[3]]).__file__)")
    proc = run_child(code, str(own), str(tmp_path / "file" / "sub"), str(shared))
    assert proc.returncode == 0, proc.stderr
    first, second = map(Path, proc.stdout.split())
    assert first.parent == own and second.parent == shared and first.name == second.name
    assert sorted(p.name for p in own.iterdir()) == sorted([first.name, other_abi, "notes.txt"])
    assert sorted(p.name for p in shared.iterdir()) == sorted(
        [first.name, STALE, other_abi, "notes.txt"])


# -- Brent's root finder and the bounded minimiser, against scipy's ----------

def f1_field(f1):
    """A loop field whose f1 is ``f1(lam)``, and the lam values it is called at."""
    calls = []

    def fused(x, t, lam):
        calls.append(lam)
        return (f1(lam), 0.0)
    field, _, keep = integrate._field((fused, "lam", 0.0), 2)
    return field, calls, keep


def c_root(f1, a, b, xtol=1e-12):
    field, calls, _ = f1_field(f1)
    out = ffi.new("double *")
    return lib.sl_root(field, 0.0, a, b, xtol, out), out[0], calls


def c_min(f1, sgn, a, b):
    field, calls, _ = f1_field(f1)
    out = ffi.new("double *")
    return lib.sl_minimize(field, 0.0, sgn, a, b, out), out[0], calls


def scipy_root(f1, a, b, xtol=1e-12):
    calls = []
    root = brentq(lambda v: calls.append(v) or f1(v), a, b, xtol=xtol,
                  rtol=4 * np.finfo(float).eps)
    return root, calls


def scipy_min(f1, sgn, a, b):
    calls = []
    res = minimize_scalar(lambda v: calls.append(v) or sgn * f1(v), bounds=(a, b),
                          method="bounded", options={"xatol": 1e-10})
    return res, calls


def polynomial(rng):
    """A seeded f1: a random cubic times (lam - r), r a dyadic root, so that
    f1(r) is exactly 0."""
    c, r = rng.normal(size=4), rng.choice([-0.75, -0.25, 0.25, 0.5])
    return (lambda lam: (lam - r) * (((c[3] * lam + c[2]) * lam + c[1]) * lam + c[0])), r


def assert_root_case(f1, a, b):
    code, got, calls = c_root(f1, a, b)
    want, want_calls = scipy_root(f1, a, b)
    assert code == 0 and got.hex() == float(want).hex()
    assert calls == want_calls


@pytest.mark.parametrize("seed", range(24))
def test_brent_is_brentq(seed):
    rng = np.random.default_rng(300 + seed)
    f1, r = polynomial(rng)
    # a bracket around the dyadic root, and one that ends on it
    a, b = r - rng.uniform(0.01, 0.2), r + rng.uniform(0.01, 0.2)
    if f1(a) * f1(b) < 0:
        assert_root_case(f1, a, b)
    assert_root_case(f1, r, r + 0.3) if seed % 2 else assert_root_case(f1, r - 0.3, r)
    # a root no grid point hits
    g = lambda lam: f1(lam) + 1e-3 * (lam - r + 0.1)  # noqa: E731
    lo, hi = r - 0.05, r + 0.05
    if g(lo) * g(hi) < 0:
        assert_root_case(g, lo, hi)
    # a steep sigmoid, on which Brent turns interpolation steps down
    k = rng.uniform(2.0, 30.0)
    assert_root_case(lambda lam: math.tanh(k * (lam - r - 0.01)) + 0.1 * lam, -1.0, 1.0)


@pytest.mark.parametrize("seed", range(24))
def test_minimiser_is_minimize_scalar_bounded(seed):
    rng = np.random.default_rng(400 + seed)
    m, k, c = rng.uniform(-1.0, 1.0), rng.uniform(0.1, 10.0), rng.normal(size=2)
    cases = [
        # an interior minimum: a quartic well around m, tilted
        (lambda lam: k * (lam - m) ** 2 * (1.0 + (lam - m) ** 2) + c[0] * (lam - m) * 1e-2,
         1.0, m - rng.uniform(0.05, 1.0), m + rng.uniform(0.05, 1.0)),
        # monotonic on the bracket: the minimum at an end, either sign
        (lambda lam: c[1] + k * lam + lam ** 3, 1.0 if seed % 2 else -1.0,
         m - 0.5, m + rng.uniform(0.001, 0.5)),
        # a dip through zero, as the sliding fallback meets one
        (lambda lam: (lam - m) ** 2 - 1e-4 * k, -1.0, m - 0.3, m + 0.2),
    ]
    for f1, sgn, a, b in cases:
        code, got, calls = c_min(f1, sgn, a, b)
        res, want_calls = scipy_min(f1, sgn, a, b)
        assert res.success and code == 0
        assert got.hex() == float(res.x).hex() and calls == want_calls


def test_root_search_failures_are_errors():
    # where brentq raises, the C Brent returns an error code, never a root:
    # no convergence in 100 iterations (a jump at 0 and xtol 1e-300) ...
    jump = lambda lam: math.copysign(1.0, lam)  # noqa: E731
    assert c_root(jump, -1.0, 1.0, xtol=1e-300)[0] == -8
    with pytest.raises(RuntimeError, match="converge"):
        scipy_root(jump, -1.0, 1.0, xtol=1e-300)
    # ... a NaN value, here at the upper end ...
    nan_above = lambda lam: lam - 0.3 if lam < 0.5 else math.nan  # noqa: E731
    assert c_root(nan_above, -1.0, 1.0)[0] == -7
    with pytest.raises(ValueError, match="NaN"):
        scipy_root(nan_above, -1.0, 1.0)
    # ... and one sign at both ends
    assert c_root(lambda lam: lam * lam + 1.0, -1.0, 1.0)[0] == -9
    with pytest.raises(ValueError, match="different signs"):
        scipy_root(lambda lam: lam * lam + 1.0, -1.0, 1.0)
    # where minimize_scalar reports no success, so does the C minimiser
    code, _, _ = c_min(lambda lam: math.nan, 1.0, -1.0, 1.0)
    assert code == -7 and not scipy_min(lambda lam: math.nan, 1.0, -1.0, 1.0)[0].success


def test_lam_root_raises_typed_errors():
    # find_sliding_modes polishes the root of f1 = lam - 0.3 by the loop's
    # Brent on the grid cell [0.296875, 0.30078125]; ``value(lam, f1)``
    # replaces f1 where the search should fail
    def modes(value):
        sys = SwitchedField(dim=2, fused=lambda x, t, lam: (value(lam, lam - 0.3), 1.0))
        return find_sliding_modes(sys, np.array([0.0]))

    (root,) = modes(lambda lam, f1: f1)
    assert root.lam_s == brentq(lambda v: v - 0.3, 0.296875, 0.30078125, xtol=1e-12,
                                rtol=4 * np.finfo(float).eps)
    # a NaN off the grid points near the root, which Brent's first iterate meets
    with pytest.raises(NonFiniteFieldError, match=r"lam root search on "
                                                  r"\[0\.296875, 0\.30078125\] at x="):
        modes(lambda lam, f1: math.nan if 0.29 < lam < 0.31 and lam * 256 % 1 else f1)
    # f1 at the cell's left end changes sign between the scan and the search
    seen = []

    def flips(lam, f1):
        seen.append(lam)
        return 1.0 if lam == 0.296875 and seen.count(lam) > 1 else f1
    with pytest.raises(RuntimeError, match="one sign at both ends"):
        modes(flips)


@pytest.mark.parametrize("name", ["circuit", "example2_nonlinear"])
def test_brent_on_a_kernel_is_brentq_on_its_python_evaluator(name):
    fused, x = SYSTEMS[name].fused, np.array([0.0, 2.5])
    f1 = lambda lam: fused(x, 0.0, lam)[0]  # noqa: E731
    a, b = (-1.0, 1.0) if f1(-1.0) * f1(1.0) < 0 else (0.0, 1.0)
    field, buf, _ = integrate._field((fused, "lam", 0.0), 2)
    buf[:] = x
    out = ffi.new("double *")
    assert field.kernel >= 0 and lib.sl_root(field, 0.0, a, b, 1e-12, out) == 0
    assert out[0].hex() == scipy_root(f1, a, b)[0].hex()


# -- the eigenvalues of sl_modes' colleague matrices ---------------------


def c_eig(a):
    """sl_eig's eigenvalues of the upper Hessenberg matrix a."""
    n = a.shape[0]
    wr, wi = ffi.new("double[]", n), ffi.new("double[]", n)
    assert lib.sl_eig(ffi.from_buffer("double[]", np.array(a, dtype=float)), n, wr, wi) == 0
    return np.array(ffi.unpack(wr, n)) + 1j * np.array(ffi.unpack(wi, n))


@pytest.mark.parametrize("wide", [False, True], ids=["normal", "1e-12..1e12"])
@pytest.mark.parametrize("seed", range(12))
def test_eigenvalues_are_lapacks(seed, wide):
    # colleague matrices of degree 2 to 64; coefficients of magnitudes
    # 1e-12 to 1e12 give rows and columns that only balancing evens out
    rng = np.random.default_rng(500 + seed)
    for d in (2, 3, 4, 5, 8, 13, 21, 34, 64):
        c = rng.standard_normal(d + 1)
        if wide:
            c *= 10.0 ** rng.uniform(-12.0, 12.0, d + 1)
        a = np.polynomial.chebyshev.chebcompanion(c)
        got, want = np.sort_complex(c_eig(a)), np.sort_complex(np.linalg.eigvals(a))
        assert np.abs(got - want).max() <= 1e-10 * np.linalg.norm(a)


def test_eigenvalue_failures_are_errors():
    n = 3
    wr, wi = ffi.new("double[]", n), ffi.new("double[]", n)
    a = np.polynomial.chebyshev.chebcompanion([1.0, 2.0, 0.5, 1.0])
    a[0, 2] = math.inf
    assert lib.sl_eig(ffi.from_buffer("double[]", a), n, wr, wi) == -11
    a[0, 2] = math.nan
    assert lib.sl_eig(ffi.from_buffer("double[]", a), n, wr, wi) == -11


# -- the CSV formatter --------------------------------------------------


def c_csv(values, texts=()):
    """The loop's CSV text of a column of values, one a row, after the text
    columns ``texts`` (one run for every row)."""
    cap = values.size * (25 + sum(len(t) + 1 for t in texts))
    buf = ffi.new("char[]", cap)
    chars = [t.encode() for t in texts]
    offsets = [0]
    for c in chars:
        offsets.append(offsets[-1] + len(c))
    n = lib.sl_csv(buf, cap, ffi.from_buffer("double[]", values), values.size, 1,
                   [values.size], list(range(len(texts))), len(texts), b"".join(chars),
                   offsets)
    assert n >= 0
    return ffi.buffer(buf, n)[:].decode()


def python_csv(values, texts=()):
    """The same text by the rule the CLI printed numbers with before."""
    head = "".join(t + "," for t in texts)
    return "".join(head + format(v, ".17g") + "\n" for v in values.tolist())


def test_csv_numbers_are_python_format_on_random_bit_patterns():
    rng = np.random.default_rng(20261020)
    exponents = set()
    for _ in range(10):  # 10^6 values, a tenth at a time
        bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64)
        exponents |= set(np.unique(bits >> np.uint64(52) & np.uint64(0x7FF)).tolist())
        values = bits.view(np.float64)
        assert c_csv(values) == python_csv(values)
    assert exponents == set(range(2048))  # every exponent, subnormal to inf and nan


def exact_ties(rng, count):
    """Doubles whose exact decimal value has 18 significant digits, the last
    a 5: each is a tie at 17 digits.  k binary fractional digits give k
    decimal ones ending in 5, after an integer part of 18 - k digits."""
    out = []
    for k in range(2, 12):
        for _ in range(count):
            whole = int(rng.integers(10 ** (17 - k), min(10 ** (18 - k), 2 ** (53 - k))))
            x = whole + (2 * int(rng.integers(0, 2 ** (k - 1))) + 1) / 2**k
            digits = format(Decimal(x), "f").replace(".", "").lstrip("0")
            assert len(digits) == 18 and digits[-1] == "5"
            out.append(x)
    return out


def test_csv_numbers_are_python_format_on_ties_and_edges():
    values = np.array(
        [2251799813685248.25, 2251799813685248.75, 4503599627370495.5, 0.0, -0.0,
         math.inf, -math.inf, math.nan, math.copysign(math.nan, -1.0), 5e-324,
         sys.float_info.min, 1e22, 1e23, sys.float_info.max, -sys.float_info.max,
         *exact_ties(np.random.default_rng(7), 50)])
    values = np.concatenate([values, -values])
    assert math.copysign(1.0, values[8]) == -1.0  # glibc would print this one -nan
    assert c_csv(values) == python_csv(values)
    assert c_csv(values, ("free_plus", "", "a,b")) == python_csv(values, ("free_plus", "", "a,b"))


def test_csv_text_that_does_not_fit_is_an_error():
    values = np.array([1.0 / 3.0, 2.0])
    buf = ffi.new("char[]", 64)
    for cap in (0, 5, 20, 21, 22, 23):  # "0.33333333333333331\n2\n" is 22 bytes
        code = lib.sl_csv(buf, cap, ffi.from_buffer("double[]", values), 2, 1, [2], [], 0,
                          b"", [0])
        assert code == (22 if cap >= 22 else -1)


# -- sl_g17, the digit generator, and its table of powers of ten ---------


def g17(x):
    """sl_g17's text of x."""
    out = ffi.new("char[25]")
    return ffi.buffer(out, lib.sl_g17(x, out))[:].decode()


def powers_of_ten():
    """Every power of ten from 1e-323 to 1e308, with both neighbours."""
    p = np.array([float(f"1e{n}") for n in range(-323, 309)])
    return np.concatenate([np.nextafter(p, 0), p, np.nextafter(p, np.inf)])


def switch_points():
    """Where %g turns from exponent to fixed notation and back, 2 ulps round."""
    out = []
    for p in (1e-5, 1e-4, 1e16, 1e17):
        below, above = math.nextafter(p, 0), math.nextafter(p, math.inf)
        out += [math.nextafter(below, 0), below, p, above, math.nextafter(above, math.inf)]
    return np.array(out)


def carries():
    """The doubles below a power of ten whose 17 digits round up to it."""
    out = []
    for n in range(-323, 309):
        p = float(f"1e{n}")
        below = p if Decimal(p) < Decimal(f"1e{n}") else math.nextafter(p, 0)
        if Decimal(format(below, ".17g")) == Decimal(f"1e{n}"):
            out.append(below)
    assert len(out) == 14  # 1e-305, 1e-243, ..., 1e-14 among them
    return np.array(out)


def subnormals():
    rng = np.random.default_rng(3)
    bits = rng.integers(1, 2**52, size=20_000, dtype=np.uint64)
    return np.concatenate([bits.view(np.float64), np.arange(1, 2001) * 5e-324,
                           [sys.float_info.min - 5e-324], np.ldexp(1.0, np.arange(-1074, -1022))])


def trajectory_like():
    """Times k 0.05, states uniform in +-20 and integers over 1000."""
    rng = np.random.default_rng(5)
    return np.concatenate([np.arange(20_001) * 0.05, rng.uniform(-20, 20, 100_000),
                           np.arange(-100_000, 100_000) / 1000])


@pytest.mark.parametrize("values", [powers_of_ten, switch_points, carries, subnormals,
                                    trajectory_like])
def test_g17_is_python_format_on_boundaries(values):
    values = values()
    values = np.concatenate([values, -values])
    assert c_csv(values) == python_csv(values)
    assert [g17(v) for v in values.tolist()] == [format(v, ".17g") for v in values.tolist()]


def first_in(a, m, lo, hi):
    """The least x >= 0 with lo <= a x mod m <= hi, for 0 <= lo <= hi < m, or
    None: Euclid's recursion on the modulus."""
    a %= m
    if lo == 0:
        return 0
    if a == 0:
        return None
    x = -(-lo // a)
    if a * x <= hi:
        return x
    y = first_in(m % a, a, -hi % a, -lo % a)
    return None if y is None else -(-(lo + m * y) // a)


def below_halves(band):
    """Every positive finite double x whose product P = m T in sl_g17, taken
    at q = 16 - k0 or 15 - k0 outside the exact range 0..55, lies less than
    2^band below P's half, with each such q.  sl_g17's truncated table leaves
    x's rounding undecided exactly when that holds for band = 64 and its
    final q.  By binade: the significands m2 of bit length L and exponent e2
    (x = m2 2^e2) shift to m = m2 2^z, z = 64 - L, so
    P mod 2^S = (m2 T mod 2^(S - z)) 2^z."""
    table = dict(zip(_build.Q_RANGE, _build.pow10_table()))
    found = []
    for bits, e2 in [(53, e2) for e2 in range(-1074, 972)] + [(b, -1074) for b in range(1, 53)]:
        z = 64 - bits
        k0 = ((e2 - z + 63) * 78913) >> 18
        for q in (16 - k0, 15 - k0):
            if 0 <= q <= 55:
                continue
            t, e = table[q]
            s = -(e2 - z + e)
            mod, start, stop = 1 << (s - z), 1 << (bits - 1), 1 << bits
            lo = -(-((1 << (s - 1)) - (1 << band) + 1) >> z)
            hi = ((1 << (s - 1)) - 1) >> z
            while start < stop:
                b = t * start % mod
                window = ([((lo - b) % mod, (hi - b) % mod)] if (lo - b) % mod <= (hi - b) % mod
                          else [((lo - b) % mod, mod - 1), (0, (hi - b) % mod)])
                steps = [j for w in window if (j := first_in(t, mod, *w)) is not None]
                if not steps or start + min(steps) >= stop:
                    break
                start += min(steps)
                found.append((math.ldexp(start, e2), q))
                start += 1
    return found


def test_no_double_is_undecided():
    # the 3,824 (binade, q) cases outside the exact range, each searched
    # whole: sl_g17 decides every double's rounding, so it needs no fallback
    assert below_halves(64) == []


def test_g17_on_doubles_next_below_a_half():
    # a band 2^20 wider than sl_g17's finds doubles just below a 17-digit
    # half (S >= 131, so within 2^(84 - 131) of it): the hardest to round
    found = below_halves(84)
    assert len(found) > 100
    for x, q in found:
        fraction = Fraction(x) * Fraction(10) ** q % 1
        assert 0 < Fraction(1, 2) - fraction < Fraction(1, 2**46)
    values = np.array([x for x, _ in found])
    assert c_csv(values) == python_csv(values)
    assert [g17(x) for x, _ in found] == [format(x, ".17g") for x, _ in found]


def test_pow10_table_is_exact():
    for q, (t, e) in zip(_build.Q_RANGE, _build.pow10_table(), strict=True):
        assert 2**127 <= t < 2**128
        assert t == math.floor(Fraction(10) ** q / Fraction(2) ** e)
        assert (t * Fraction(2) ** e == Fraction(10) ** q) == (0 <= q <= 55)


def test_module_name_covers_the_table(monkeypatch):
    name = _build.module_name(_build.source())
    assert Path(integrate._loop.__file__).name.startswith(name + ".")
    table = _build.pow10_table()
    t, e = table[300]
    monkeypatch.setattr(_build, "pow10_table", lambda: [*table[:300], (t ^ 1, e), *table[301:]])
    assert _build.module_name(_build.source()) != name
