"""Build and load the compiled module: ``_loop.c``, which holds the step loop,
the search for sliding modes (the roots of f1 in lam, with its eigenvalue
routine ``sl_eig``) and the formatter of the CLI's CSV tables, the kernels
of ``scenarios.FIELDS``,
and the 128-bit truncated powers of ten from which the formatter's exact
digit generator, ``sl_g17``, takes a number's 17 digits.  The kernels and
the table are generated here, the table from exact Python integers, and
appended to ``_loop.c``'s text.

cffi compiles it in API mode on the first import, in a child process the
import waits for, so setuptools never loads into the importing process.
The module is named by a hash of that source (the table with it), CDEF
and the Python ABI, and cached in the package's ``__pycache__``, or in
``~/.cache/switchlayer`` where that is read-only.  A build into the
package's own directory removes the modules earlier sources left there;
the shared cache, which other checkouts may use, is never pruned.
Building needs gcc or clang on a 64-bit target (``sl_g17`` multiplies in
``unsigned __int128``).
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import sysconfig
from importlib.machinery import EXTENSION_SUFFIXES

import _cffi_backend

from .scenarios import FIELDS, components_read

HERE = os.path.dirname(os.path.abspath(__file__))
KERNELS = {name: k for k, name in enumerate(sorted(FIELDS))}  # index in sl_kernel
# the q of sl_g17's 10^q: q = 16 - k for the decimal exponents k of doubles,
# floor(log10 2^-1074) = -324 to floor(log10 DBL_MAX) = 308
Q_RANGE = range(16 - 308, 16 + 324 + 1)

CDEF = """
typedef struct { double t, lam, rate, slope, srate; double *rest; double branch;
                 double lt, llam, lf1, fold; int found, folded; } sl_slide;
typedef struct { int kind, sigmoid, kernel, n; double value; const double *par;
                 void *py; double *x, *f; sl_slide *slide; } sl_field;
typedef struct { double c0, c1, c2; void *py; double *g; } sl_event;
typedef struct { double *t, *y, *lam; long len, cap, accepted, rejected, evals; } sl_record;
extern "Python" int sl_py(void *, double, double);
int sl_run(sl_field *, const sl_event *, int, double, double, double *, double, double,
           double, long, sl_record *);
int sl_rhs(sl_field *, double, const double *, double *);
int sl_root(sl_field *, double, double, double, double, double *);
int sl_minimize(sl_field *, double, double, double, double, double *);
static const double SL_ROOT_TOL;
#define SL_GRID ...
static const double SL_CHEB_TOL;
static const double SL_CLUSTER_MAX;
static const double SL_POLISH_TOL;
static const double SL_REAL_TOL;
static const double SL_DERIV_TOL;
int sl_modes(sl_field *, double, double *);
int sl_eig(double *, int, double *, double *);
double sl_sigmoid(int, double, double);
void sl_take(sl_record *, int); void sl_release(sl_record *); void sl_free(void *);
long sl_csv(char *, long, const double *, long, int, const long *, const int *, int,
            const char *, const long *);
int sl_g17(double, char *);
"""

# run in a child process: compile the source from stdin outside the limited API
# (the loop calls PyMem_RawMalloc), then move the module into place in one step
CHILD = """
import json, os, sys, tempfile, cffi
job = json.load(sys.stdin)
ffi = cffi.FFI()
ffi.cdef(job["cdef"])
ffi.set_source(job["name"], job["source"], py_limited_api=False,
               define_macros=[("_CFFI_NO_LIMITED_API", None)],
               extra_compile_args=["-ffp-contract=off"], libraries=["m"])
with tempfile.TemporaryDirectory(dir=job["dir"]) as tmp:
    built = ffi.compile(tmpdir=tmp)
    os.replace(built, os.path.join(job["dir"], job["file"]))
"""


def kernel_source() -> str:
    """The C kernels of the declared fields, in one switch on their index."""
    out = ["static void sl_kernel(int k, const double *x_, double t, double lam,",
           "                      const double *p_, double *f_)", "{", "    switch (k) {"]
    for name, k in KERNELS.items():
        names, lets, comps = FIELDS[name]
        out.append(f"    case {k}: {{  /* {name} */")
        out += [f"        const double x{i + 1} = x_[{i}];" for i in components_read(name)]
        out += [f"        const double {p} = p_[{i}];" for i, p in enumerate(names)]
        out += [f"        const double {v} = {e};" for v, e in lets]
        out += [f"        f_[{i}] = {e};" for i, e in enumerate(comps)]
        out.append("        return;\n    }")
    return "\n".join(out + ["    }", "}", ""])


def pow10_table() -> list[tuple[int, int]]:
    """(T, E) for each q in Q_RANGE: T = floor(10^q 2^-E) in [2^127, 2^128),
    so 10^q = (T + d) 2^E with 0 <= d < 1, and d = 0 for 0 <= q <= 55."""
    powers = [1]  # 10^0 to 10^340, each from the last
    while len(powers) <= max(-Q_RANGE[0], Q_RANGE[-1]):
        powers.append(10 * powers[-1])
    table = []
    for q in Q_RANGE:
        p = powers[abs(q)]
        if q >= 0:
            e = p.bit_length() - 128
            table.append((p >> e if e >= 0 else p << -e, e))
        else:  # 2^127 < 2^(127 + bits) / 10^-q < 2^128, as 10^-q is no power of 2
            e = -p.bit_length() - 127
            table.append(((1 << -e) // p, e))
    return table


def pow10_source() -> str:
    """``pow10_at(q)``, the entry of ``pow10_table`` for 10^q, in C."""
    rows = ",\n".join(["        {%#x, %#x, %d}" % (t >> 64, t & (2**64 - 1), e)
                       for t, e in pow10_table()])
    return (f"static const sl_pow10 *pow10_at(int q)\n{{\n"
            f"    static const sl_pow10 table[] = {{\n{rows}}};\n"
            f"    return &table[q - ({Q_RANGE[0]})];\n}}\n")


def source() -> str:
    """The module's C source: ``_loop.c``, the kernels and the powers of ten."""
    with open(os.path.join(HERE, "_loop.c")) as fh:
        return "\n".join((fh.read(), kernel_source(), pow10_source()))


def module_name(source: str) -> str:
    """The module's name, a hash of its source, CDEF and the Python ABI."""
    key = "\0".join((source, CDEF, EXTENSION_SUFFIXES[0], _cffi_backend.__version__))
    return "_loop_" + hashlib.sha256(key.encode()).hexdigest()[:16]


def load(dirs: list[str] | None = None):
    """The compiled module: loaded from the first of ``dirs`` that holds
    it, else built into the first writable one.  A build into ``dirs[0]``
    removes the other ``_loop_*`` modules of this ABI there."""
    text = source()
    name = module_name(text)
    file = name + EXTENSION_SUFFIXES[0]
    if dirs is None:
        dirs = [os.path.join(HERE, "__pycache__"),
                os.path.join(os.path.expanduser("~"), ".cache", "switchlayer")]
    found = next((d for d in dirs if os.path.isfile(os.path.join(d, file))), None)
    if found is None:
        found = _build(name, file, text, dirs)
    spec = importlib.util.spec_from_file_location(name, os.path.join(found, file))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _build(name, file, source, dirs) -> str:
    cc = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:  # the compiler setuptools would call
        raise ImportError(f"switchlayer compiles its step loop on first import and needs "
                          f"a C compiler; {cc!r} was not found")
    for d in dirs:
        try:
            os.makedirs(d, exist_ok=True)
        except OSError:
            continue
        if os.access(d, os.W_OK):
            job = {"cdef": CDEF, "name": name, "source": source, "dir": d, "file": file}
            proc = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(job),
                                  text=True, capture_output=True)
            if proc.returncode != 0:
                raise ImportError(f"building switchlayer's step loop failed:\n"
                                  f"{proc.stderr[-2000:]}")
            if d == dirs[0]:  # the package's own directory, unless a caller chose
                pattern = os.path.join(glob.escape(d), "_loop_*" + EXTENSION_SUFFIXES[0])
                for stale in glob.glob(pattern):
                    if os.path.basename(stale) != file:
                        with contextlib.suppress(OSError):
                            os.remove(stale)
            return d
    raise ImportError(f"no writable directory to build switchlayer's step loop in: {dirs}")
