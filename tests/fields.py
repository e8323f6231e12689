"""Test fields written out as the smoothing tautology.

    f(x; lam) = (f_+ + f_-)/2 + (f_+ - f_-)/2 lam + (lam^2 - 1) g(x, lam)
"""

import dataclasses

import numpy as np

from switchlayer import SwitchedField


def _constant(v):
    v = np.asarray(v, dtype=float)
    return lambda x, t: v


def tautology(fp, fm, g=None, *, dim=2, **options):
    """The SwitchedField whose fused evaluator is the tautology of fp, fm, g.

    fp and fm are callables (x, t) or constant vectors, g a callable
    (x, t, lam) or None for the linear (Filippov) combination.  At
    lam = +-1 fused returns fp / fm themselves, without calling g; a
    constant is returned as the very array it was given, if float64.
    options are the remaining SwitchedField fields.
    """
    fp, fm = (f if callable(f) else _constant(f) for f in (fp, fm))

    def fused(x, t, lam):
        if lam == 1.0:
            return np.asarray(fp(x, t), dtype=float)
        if lam == -1.0:
            return np.asarray(fm(x, t), dtype=float)
        fpv = np.asarray(fp(x, t), dtype=float)
        fmv = np.asarray(fm(x, t), dtype=float)
        out = 0.5 * (fpv + fmv) + (0.5 * lam) * (fpv - fmv)
        if g is not None:
            out = out + (lam * lam - 1.0) * np.asarray(g(x, t, lam), dtype=float)
        return out

    return SwitchedField(dim=dim, fused=fused, **options)


def lam_tracker(sys):
    """sys with one more state that tracks the multiplier: x' = lam.

    The new state is the running integral of lam, so it adds a dimension
    without adding stiffness.  For the forced relay this is a
    time-dependent 3-D field whose fused returns a tuple of floats.
    """
    inner = sys.fused

    def fused(x, t, lam):
        return (*inner(x, t, lam), lam)

    return dataclasses.replace(sys, dim=sys.dim + 1, fused=fused)
