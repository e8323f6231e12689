/* The one step loop of switchlayer, Dormand-Prince DOPRI5 and DOP853, the
 * search for sliding modes (sl_modes) and the formatter of the command
 * line's CSV tables (sl_csv).
 *
 * The two explicit Runge-Kutta pairs and their step-size control follow
 * Hairer's Fortran codes dopri5.f and dop853.f (Hairer, Norsett & Wanner,
 * *Solving ODEs I*, sec. II.4-II.5 and II.10), with the control constants
 * scipy's `ode` gave them: safety 0.9, step ratio limits 0.2..10 and Lund
 * stabilization beta = 0.04 for DOPRI5, limits 0.3..6 and beta = 0 for
 * DOP853.  A rejected DOPRI5 step is retried at h / min(5, err^0.17 / 0.9);
 * a rejected DOP853 step at 0.3 h, which is what scipy's compiled dop853
 * does (measured), where dop853.f's rule would give h / min(1/0.3,
 * err^(1/8) / 0.9).  Stage 2 is y + (h a21) k1, in the Fortran codes'
 * order, so runs match scipy's bit for bit.  A run's event g falls through
 * zero when g1 <= 0 <= g0 and g0 != g1 over an accepted step; the
 * crossing is localized with Brent's method (xtol = rtol = 4 eps) on the
 * cubic Hermite interpolant of the step, built from its end values and
 * slopes (ibid., sec. II.6), and the run stops there.
 *
 * A run evaluates one of five right-hand sides.  SL_PLAIN calls the
 * Python field(y, t).  The four others evaluate f(x; lam): SL_FIXED at a
 * constant lam, SL_SIGMOID at lam = phi_eps(x1), SL_LAYER, the layer
 * system z = (lam, x2..xn) -> (f1/eps_layer, f2..fn) at x = (0, x2..xn) and
 * lam clipped to [-1, 1], and SL_SLIDE, the sliding system x_rest ->
 * f_rest(x; lam_s) at x = (0, x_rest), lam_s the root of f1 = 0 followed
 * from an anchor (see slide_solve), with its own edge event.  f is a
 * compiled kernel (sl_kernel, generated from the built-in fields'
 * declarations and appended to this file) or the Python fused(x, t, lam).
 * Every Python call goes through sl_py: C writes the state into the
 * field's buffer x, Python writes its slopes into f (or an event value
 * into g) and returns 0, or -1 after raising.
 *
 * One Brent root finder, a port of scipy's brentq (Brent 1973, *Algorithms
 * for Minimization without Derivatives*, ch. 4), serves both the event
 * localization and the roots of f1 in lam; the sliding fallback also
 * minimises |f1| with a port of scipy's bounded Brent minimiser (ibid.,
 * ch. 5).  Both return an error code where scipy's would raise or report
 * no success, never a silent result.
 *
 * sl_modes finds every root of f1(x; lam) in [-1, 1], the sliding modes,
 * as Boyd's proxy rootfinder does (Boyd 2013, "Finding the zeros of a
 * univariate equation", SIAM Review 55): f1 sampled at Chebyshev-Lobatto
 * points until its Chebyshev coefficients (by FFT) are resolved, the
 * roots of the series as the eigenvalues of its colleague matrix, found by
 * EISPACK's balanc and hqr (sl_eig; Wilkinson & Reinsch 1971), clusters
 * merged, and each root polished by the Brent solver on its cell of a
 * uniform grid, whose sign-change scan also serves an f1 with a kink.  It
 * makes the calls, at the same lam values and in the same order, that the
 * numpy search it replaced made (tests/sliding_reference.py), and returns
 * its polished roots bit for bit.
 *
 * Samples are recorded as they are accepted, into buffers from
 * PyMem_RawMalloc (so tracemalloc sees them) that grow as array("d")
 * grows; sl_take trims them to their length.
 *
 * sl_csv prints a table's numbers as Python's format(v, ".17g") does, byte
 * for byte.  Their digits come from sl_g17, an exact generator in the
 * manner of Ryu (Adams 2018) and Eisel-Lemire: the value's 64-bit
 * significand times a 128-bit truncated power of ten (pow10_at, a table
 * _build generates from exact integers and appends to this file) gives the
 * 17 digits and the fraction below them, rounded half to even.  The
 * truncation never leaves a rounding undecided: a search of every binade
 * (tests/test_loop.py) finds no double whose product comes within its
 * error of a half.  The 64x64 -> 128-bit products use unsigned __int128,
 * which gcc and clang give on 64-bit targets.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { SL_PLAIN, SL_FIXED, SL_SIGMOID, SL_LAYER, SL_SLIDE };
enum { SL_DONE = 0, SL_STOPPED = 1, SL_EPY = -1, SL_EBUDGET = -2, SL_ESMALL = -3,
       SL_ENONFINITE = -4, SL_ENOMEM = -5, SL_ESTUCK = -6, SL_EFIELD = -7, SL_ECONV = -8,
       SL_ESIGN = -9, SL_EDEGEN = -10, SL_EEIG = -11 };

/* the lam solves' constants: the root tolerance of every Brent solve in lam
   (layer.py's ROOT_TOL), and the sliding solve's (see slide_solve) */
static const double SL_ROOT_TOL = 1e-12;
#define SECANT_STEPS 8      /* secant steps per solve before the bracketed fallback */
#define SECANT_REACH 0.05   /* how far a secant iterate may go, so it keeps to its branch */
#define LAM_REACH 1.5       /* how far past +-1 a sliding root is followed */
#define SLOPE_STEP 1e-7     /* difference step of d f1/d lam at a slide's samples */

/* A slide's state.  The anchor is the last accepted sample: its time, root
   lam and d f1/d lam (slope) with their rates, and its x_rest.  The last
   solve is its time, root, f1 there, whether a root was found, and the fold
   value once slide_at has made it: branch-signed d f1/d lam, or -|f1| past
   a fold.  The solve's state (0, x_rest) stays in the field's buffer x.  A
   run starts from lam alone (see slide_start). */
typedef struct {
    double t, lam, rate, slope, srate;
    double *rest;
    double branch;       /* the sign of d f1/d lam along the branch */
    double lt, llam, lf1, fold;
    int found, folded;
} sl_slide;

typedef struct {
    int kind, sigmoid, kernel, n;  /* n: the dimension of f */
    double value;        /* lam (SL_FIXED), eps (SL_SIGMOID), eps_layer (SL_LAYER) */
    const double *par;   /* the kernel's parameters */
    void *py;            /* the Python callback's handle when kernel < 0 */
    double *x, *f;       /* the state and slopes a Python call reads and writes */
    sl_slide *slide;     /* SL_SLIDE's state */
} sl_field;

typedef struct {
    double c0, c1, c2;   /* compiled: g = c0 + c1 y1 + c2 |y1| when py is NULL */
    void *py;
    double *g;           /* where the Python event writes its value */
} sl_event;

typedef struct {
    double *t, *y, *lam;
    long len, cap, accepted, rejected, evals;
} sl_record;

static int sl_py(void *handle, double t, double lam);
static double clip1(double v) { return v < -1.0 ? -1.0 : (v > 1.0 ? 1.0 : v); }
static void sl_kernel(int k, const double *x_, double t, double lam, const double *p_,
                      double *f_);
typedef struct { uint64_t hi, lo; int e; } sl_pow10;  /* 10^q ~ (hi 2^64 + lo) 2^e */
static const sl_pow10 *pow10_at(int q);

double sl_sigmoid(int kind, double eps, double v)
{
    v = v / eps;
    switch (kind) {
    case 0: return clip1(v);
    case 1: return (2.0 / 3.141592653589793) * atan(v);
    case 2: return tanh(v);
    default: return erf(v);
    }
}

/* f(x; lam) at the field's buffer x, into F */
static int field_at(sl_field *f, double t, double lam, double *F)
{
    if (f->kernel >= 0)
        sl_kernel(f->kernel, f->x, t, lam, f->par, F);
    else {
        if (sl_py(f->py, t, lam))
            return SL_EPY;
        memcpy(F, f->f, f->n * sizeof *F);
    }
    return 0;
}

static int f1_at(sl_field *f, double t, double lam, double *f1)
{
    double F[f->n];
    int rc = field_at(f, t, lam, F);
    *f1 = F[0];
    return rc;
}

static int slide_solve(sl_field *f, double t, const double *y, double *dy);

int sl_rhs(sl_field *f, double t, const double *y, double *dy)
{
    const int n = f->n;
    const double *x = y;
    double lam = NAN;
    if (f->kind == SL_SLIDE)
        return slide_solve(f, t, y, dy);
    if (f->kind == SL_FIXED)
        lam = f->value;
    else if (f->kind == SL_SIGMOID)
        lam = sl_sigmoid(f->sigmoid, f->value, y[0]);
    else if (f->kind == SL_LAYER) {
        lam = clip1(y[0]);
        f->x[0] = 0.0;
        memcpy(f->x + 1, y + 1, (n - 1) * sizeof *y);
        x = f->x;
    }
    if (f->kernel >= 0)
        sl_kernel(f->kernel, x, t, lam, f->par, dy);
    else {
        if (x != f->x)
            memcpy(f->x, y, n * sizeof *y);
        if (sl_py(f->py, t, lam))
            return SL_EPY;
        memcpy(dy, f->f, n * sizeof *dy);
    }
    if (f->kind == SL_LAYER)
        dy[0] = dy[0] / f->value;
    return 0;
}

/* ---- Brent's root finder and minimiser -------------------------------- */

typedef int (*sl_fn)(void *ctx, double x, double *g);

/* scipy's brentq (at most 100 iterations) on g over [xa, xb], where g is
   fpre at xa and fcur at xb, both nonzero and of opposite signs */
static int brent(sl_fn g, void *ctx, double xa, double xb, double fpre, double fcur,
                 double xtol, double rtol, double *root)
{
    double xpre = xa, xcur = xb, xblk = 0, fblk = 0, spre = 0, scur = 0;
    for (int i = 0; i < 100; i++) {
        if (fpre != 0 && fcur != 0 && (signbit(fpre) != signbit(fcur))) {
            xblk = xpre;
            fblk = fpre;
            spre = scur = xcur - xpre;
        }
        if (fabs(fblk) < fabs(fcur)) {
            xpre = xcur; xcur = xblk; xblk = xpre;
            fpre = fcur; fcur = fblk; fblk = fpre;
        }
        const double delta = (xtol + rtol * fabs(xcur)) / 2, sbis = (xblk - xcur) / 2;
        if (fcur == 0 || fabs(sbis) < delta) {
            *root = xcur;
            return 0;
        }
        if (fabs(spre) > delta && fabs(fcur) < fabs(fpre)) {
            double stry;
            if (xpre == xblk)
                stry = -fcur * (xcur - xpre) / (fcur - fpre);
            else {
                const double dpre = (fpre - fcur) / (xpre - xcur);
                const double dblk = (fblk - fcur) / (xblk - xcur);
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre));
            }
            if (2 * fabs(stry) < fmin(fabs(spre), 3 * fabs(sbis) - delta)) {
                spre = scur;
                scur = stry;
            } else
                spre = scur = sbis;
        } else
            spre = scur = sbis;
        xpre = xcur;
        fpre = fcur;
        xcur += fabs(scur) > delta ? scur : (sbis > 0 ? delta : -delta);
        const int rc = g(ctx, xcur, &fcur);
        if (rc)
            return rc;
    }
    return SL_ECONV;
}

typedef struct {
    sl_field *f;
    double t, sgn;
} sl_lam;

/* sgn f1(x; lam), which a Brent root search must find finite, as scipy's
   brentq does */
static int f1_finite(void *ctx, double lam, double *g)
{
    sl_lam *c = ctx;
    int rc = f1_at(c->f, c->t, lam, g);
    return rc ? rc : (isnan(*g) ? SL_EFIELD : 0);
}

/* scipy's brentq(f1, a, b, xtol, 4 eps): the root of f1 in lam on [a, b] */
static int lam_root(sl_field *f, double t, double a, double b, double xtol, double *root)
{
    sl_lam c = {f, t, 1.0};
    double fa, fb;
    int rc;
    if ((rc = f1_finite(&c, a, &fa)) || (rc = f1_finite(&c, b, &fb)))
        return rc;
    if (fa == 0 || fb == 0) {
        *root = fa == 0 ? a : b;
        return 0;
    }
    if (signbit(fa) == signbit(fb))
        return SL_ESIGN;
    return brent(f1_finite, &c, a, b, fa, fb, xtol, 4 * DBL_EPSILON, root);
}

/* np.sign(v) + (v == 0) */
static double sign1(double v) { return v > 0 ? 1.0 : (v < 0 ? -1.0 : (v == 0 ? 1.0 : v)); }

/* scipy's _minimize_scalar_bounded(sgn f1, (a, b), xatol=1e-10, maxiter=500):
   its x, or an error where it reports no success */
static int lam_min(sl_field *f, double t, double sgn, double a, double b, double *xmin)
{
    const double sqrt_eps = sqrt(2.2e-16), golden_mean = 0.5 * (3.0 - sqrt(5.0)),
                 xatol = 1e-10;
    double fulc = a + golden_mean * (b - a), nfc = fulc, xf = fulc, rat = 0.0, e = 0.0,
           x = xf, fx, fu = INFINITY;
    int num = 1, rc;
    if ((rc = f1_at(f, t, x, &fx)))
        return rc;
    fx = sgn * fx;
    double ffulc = fx, fnfc = fx, xm = 0.5 * (a + b);
    double tol1 = sqrt_eps * fabs(xf) + xatol / 3.0, tol2 = 2.0 * tol1;
    while (fabs(xf - xm) > (tol2 - 0.5 * (b - a))) {
        int golden = 1;
        if (fabs(e) > tol1) {  /* a parabolic fit */
            golden = 0;
            double r = (xf - nfc) * (fx - ffulc), q = (xf - fulc) * (fx - fnfc);
            double p = (xf - fulc) * q - (xf - nfc) * r;
            q = 2.0 * (q - r);
            if (q > 0.0)
                p = -p;
            q = fabs(q);
            r = e;
            e = rat;
            if (fabs(p) < fabs(0.5 * q * r) && p > q * (a - xf) && p < q * (b - xf)) {
                rat = (p + 0.0) / q;
                x = xf + rat;
                if ((x - a) < tol2 || (b - x) < tol2)
                    rat = tol1 * sign1(xm - xf);
            } else
                golden = 1;
        }
        if (golden) {  /* a golden-section step */
            e = xf >= xm ? a - xf : b - xf;
            rat = golden_mean * e;
        }
        const double step = fabs(rat);
        x = xf + sign1(rat) * (isnan(step) || isnan(tol1) ? step + tol1 : fmax(step, tol1));
        if ((rc = f1_at(f, t, x, &fu)))
            return rc;
        fu = sgn * fu;
        num++;
        if (fu <= fx) {
            if (x >= xf)
                a = xf;
            else
                b = xf;
            fulc = nfc; ffulc = fnfc;
            nfc = xf; fnfc = fx;
            xf = x; fx = fu;
        } else {
            if (x < xf)
                a = x;
            else
                b = x;
            if (fu <= fnfc || nfc == xf) {
                fulc = nfc; ffulc = fnfc;
                nfc = x; fnfc = fu;
            } else if (fu <= ffulc || fulc == xf || fulc == nfc) {
                fulc = x; ffulc = fu;
            }
        }
        xm = 0.5 * (a + b);
        tol1 = sqrt_eps * fabs(xf) + xatol / 3.0;
        tol2 = 2.0 * tol1;
        if (num >= 500)
            return SL_ECONV;
    }
    if (isnan(xf) || isnan(fx) || isnan(fu))
        return SL_EFIELD;
    *xmin = xf;
    return 0;
}

/* Python callbacks run under the GIL, taken once for the call */
#define WITH_GIL(python, call)                                                \
    do {                                                                      \
        const int py_ = (python);                                             \
        PyGILState_STATE gil_ = py_ ? PyGILState_Ensure() : PyGILState_UNLOCKED; \
        call;                                                                 \
        if (py_)                                                              \
            PyGILState_Release(gil_);                                         \
    } while (0)

int sl_root(sl_field *f, double t, double a, double b, double xtol, double *root)
{
    int rc;
    WITH_GIL(f->kernel < 0, rc = lam_root(f, t, a, b, xtol, root));
    return rc;
}

int sl_minimize(sl_field *f, double t, double sgn, double a, double b, double *xmin)
{
    int rc;
    WITH_GIL(f->kernel < 0, rc = lam_min(f, t, sgn, a, b, xmin));
    return rc;
}

/* ---- the sliding solve ------------------------------------------------ */

static double lo_of(double p, double q) { return q < p ? q : p; }  /* sorted((p, q)) */
static double hi_of(double p, double q) { return q < p ? p : q; }

/* Where the secant lost the branch: the first root from lam (f1 = fv there)
   the way the branch runs, in steps doubling from 1e-3 (found = 1), or, if
   |f1| turns up first or at the reach, where f1 is nearest zero (found = 0). */
static int fallback(sl_field *f, double t, double lam, double fv, double branch,
                    double *root, int *found)
{
    const double sgn = copysign(1.0, fv), direction = -sgn * branch;
    double lo = lam, mid = lam, g_mid = fabs(fv), step = 1e-3, g, m;
    int rc;
    *found = 1;
    for (;;) {
        double a = mid + direction * step;
        if (-LAM_REACH > a)
            a = -LAM_REACH;
        if (LAM_REACH < a)
            a = LAM_REACH;
        if ((rc = f1_at(f, t, a, &g)))
            return rc;
        g = sgn * g;
        if (g <= 0.0)
            return lam_root(f, t, lo_of(mid, a), hi_of(mid, a), SL_ROOT_TOL, root);
        if (g > g_mid) {  /* the least |f1| lies in (lo, a): a root if it dips through 0 */
            if ((rc = lam_min(f, t, sgn, lo_of(lo, a), hi_of(lo, a), &m))
                || (rc = f1_at(f, t, m, &g)))
                return rc;
            if (sgn * g > 0.0) {
                *root = m;
                *found = 0;
                return 0;
            }
            return lam_root(f, t, lo_of(lo, m), hi_of(lo, m), SL_ROOT_TOL, root);
        }
        if (fabs(a) == LAM_REACH) {
            *root = a;
            *found = 0;
            return 0;
        }
        lo = mid;
        mid = a;
        g_mid = g;
        step = 2.0 * step;
    }
}

/* The sliding rhs: dy = f_rest at lam_s(t, y), solved by secant from the
   anchor carried forward at its rates (so within a step lam_s is a function
   of (t, x_rest)), or by the fallback past a fold or the reach. */
static int slide_solve(sl_field *f, double t, const double *y, double *dy)
{
    sl_slide *s = f->slide;
    const int n = f->n;
    const double tol = 10 * SL_ROOT_TOL, dt = t - s->t;
    double F[n], lam = s->lam + s->rate * dt, slope = s->slope + s->srate * dt, start;
    int rc, found = 1;
    f->x[0] = 0.0;
    memcpy(f->x + 1, y, (n - 1) * sizeof *y);
    if (!(-LAM_REACH <= lam && lam <= LAM_REACH))
        lam = copysign(LAM_REACH, lam);
    start = lam;
    if ((rc = field_at(f, t, lam, F)))
        return rc;
    for (int i = 0; i < SECANT_STEPS; i++) {
        const double f1 = F[0];
        if (!(slope * s->branch > 0.0))  /* not the branch's sign: past a fold */
            break;
        const double nxt = lam - f1 / slope;
        /* converged, or a step below one ulp of lam: f1 is at its rounding
           floor, which far from the origin can lie above tol */
        if (fabs(f1) < tol || nxt == lam)
            goto solved;
        if (!(fabs(nxt - start) <= SECANT_REACH && fabs(nxt) <= LAM_REACH))
            break;
        if ((rc = field_at(f, t, nxt, F)))
            return rc;
        slope = (F[0] - f1) / (nxt - lam);
        lam = nxt;
    }
    double fv;
    if ((rc = f1_at(f, t, s->lam, &fv)))
        return rc;
    if (!isfinite(fv))
        return SL_EFIELD;
    if ((rc = fallback(f, t, s->lam, fv, s->branch, &lam, &found))
        || (rc = field_at(f, t, lam, F)))
        return rc;
solved:
    s->lt = t;
    s->llam = lam;
    s->lf1 = F[0];
    s->found = found;
    s->folded = 0;
    memcpy(dy, F + 1, (n - 1) * sizeof *dy);
    return 0;
}

/* The anchor at the start (t, y) of a slide on the root s->lam: d f1/d lam
   there by a one-sided difference, which also gives the branch's sign. */
static int slide_start(sl_field *f, double t, const double *y)
{
    sl_slide *s = f->slide;
    const int n = f->n;
    const double h = s->lam > 0 ? -SLOPE_STEP : SLOPE_STEP;
    double ahead, here;
    int rc;
    f->x[0] = 0.0;
    memcpy(f->x + 1, y, (n - 1) * sizeof *y);
    if ((rc = f1_at(f, t, s->lam + h, &ahead)) || (rc = f1_at(f, t, s->lam, &here)))
        return rc;
    s->t = t;
    s->rate = s->srate = 0.0;
    s->slope = (ahead - here) / h;
    s->branch = s->slope < 0 ? -1.0 : 1.0;
    s->lt = NAN;  /* no solve yet */
    memcpy(s->rest, y, (n - 1) * sizeof *y);
    return 0;
}

/* The solve at (t, y), reusing the last one if it was made there (as the
   FSAL stage's is at an accepted sample), with its fold value; a solve
   past the anchor's time is an accepted sample and moves the anchor. */
static int slide_at(sl_field *f, double t, const double *y)
{
    sl_slide *s = f->slide;
    const int n = f->n;
    int same = s->lt == t, rc;
    for (int i = 1; same && i < n; i++)
        same = f->x[i] == y[i - 1];
    if (!same) {
        double dy[n];
        if ((rc = slide_solve(f, t, y, dy)))
            return rc;
    }
    if (s->folded)
        return 0;
    double slope = s->slope, g;
    if (s->found) {
        const double hs = s->llam > 0 ? -SLOPE_STEP : SLOPE_STEP;
        if ((rc = f1_at(f, t, s->llam + hs, &g)))
            return rc;
        slope = (g - s->lf1) / hs;
    }
    s->fold = s->found ? s->branch * slope : -fabs(s->lf1);
    s->folded = 1;
    if (t > s->t) {
        const double dt = t - s->t;
        s->rate = (s->llam - s->lam) / dt;
        s->srate = (slope - s->slope) / dt;
        s->t = t;
        s->lam = s->llam;
        s->slope = slope;
        memcpy(s->rest, y, (n - 1) * sizeof *y);
    }
    return 0;
}

/* ---- sliding modes: the roots of f1 in lam ----------------------------- */

/* find_sliding_modes' constants (layer.py reads them).  f1 is resolved once
   the upper half of its Chebyshev coefficients is below SL_CHEB_TOL
   max|f1|; no gap inside a cluster of colleague-matrix roots is wider than
   SL_CLUSTER_MAX; a root is polished to a root of the uniform SL_GRID-cell
   grid within SL_POLISH_TOL of it; SL_REAL_TOL is the slack on a root's
   imaginary part and on [-1, 1]; a root whose central difference of f1 is
   at most SL_DERIV_TOL is marginal. */
#define SL_GRID 512
static const double SL_CHEB_TOL = 1e-13, SL_CLUSTER_MAX = 1e-2, SL_POLISH_TOL = 5e-5,
                    SL_REAL_TOL = 1e-6, SL_DERIV_TOL = 1e-8;
enum { SL_ATTRACTING, SL_REPELLING, SL_MARGINAL };

/* the uniform grid's point i, as np.linspace(-1, 1, SL_GRID + 1) has it */
static double grid_at(int i) { return -1.0 + i * (2.0 / SL_GRID); }

/* f at lam into F, every component finite; where[0] = lam if one is not */
static int sample(sl_field *f, double t, double lam, double *F, double *where)
{
    const int rc = field_at(f, t, lam, F);
    for (int i = 0; !rc && i < f->n; i++)
        if (!isfinite(F[i])) {
            where[0] = lam;
            return SL_ENONFINITE;
        }
    return rc;
}

/* The DFT of (re, im), 2n points, in place, by radix 2: its twiddles
   exp(-i pi m / n) are cs[m] - i cs[|n/2 - m|], from cs[m] = cos(pi m / n). */
static void fft(double *re, double *im, int n, const double *cs)
{
    const int N = 2 * n;
    for (int i = 1, j = 0; i < N; i++) {  /* the bit-reversed order */
        int bit = N >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        if (i < j) {
            double s = re[i]; re[i] = re[j]; re[j] = s;
            s = im[i]; im[i] = im[j]; im[j] = s;
        }
    }
    for (int len = 2; len <= N; len <<= 1) {
        const int half = len / 2, stride = N / len;
        for (int i = 0; i < N; i += len)
            for (int j = 0; j < half; j++) {
                const int m = j * stride;
                const double wr = cs[m], wi = -cs[abs(n / 2 - m)];
                double *ur = re + i + j, *ui = im + i + j;
                const double vr = ur[half] * wr - ui[half] * wi,
                             vi = ur[half] * wi + ui[half] * wr;
                ur[half] = *ur - vr;
                ui[half] = *ui - vi;
                *ur += vr;
                *ui += vi;
            }
    }
}

/* max(m, |v|), NaN once either is, as numpy's max of |values| is */
static double absmax(double m, double v) { return isnan(m) || fabs(v) <= m ? m : fabs(v); }

/* f1's Chebyshev coefficients on [-1, 1], into c: f1 is sampled at the
   Chebyshev-Lobatto points cos(pi k / n), n = 16, 32, ... SL_GRID (libm's
   cos, which gives numpy's values), reusing the old samples, until the
   upper half of the coefficients, the DCT of the samples, is below
   SL_CHEB_TOL max|f1|; they are cut after the last one above it.  Returns
   their count, or 0 if f1 is not resolved at SL_GRID cells. */
static int chebyshev(sl_field *f, double t, double *c, double *where)
{
    double v[SL_GRID + 1], cs[SL_GRID + 1], re[2 * SL_GRID], im[2 * SL_GRID], F[f->n];
    int n = 16, rc;
    for (int k = 0; k <= n; k++) {  /* cs: the points, which are the DFT's twiddles too */
        cs[k] = cos(k * (M_PI / n));
        if ((rc = sample(f, t, cs[k], F, where)))
            return rc;
        v[k] = F[0];
    }
    for (;;) {
        double scale = 0.0, upper = 0.0;
        for (int k = 0; k <= n; k++)
            scale = absmax(scale, v[k]);
        if (scale < 1e-14)
            return SL_EDEGEN;
        for (int k = 0; k < 2 * n; k++) {  /* the samples' even extension */
            re[k] = v[k <= n ? k : 2 * n - k];
            im[k] = 0.0;
        }
        fft(re, im, n, cs);
        for (int k = 0; k <= n; k++)
            c[k] = re[k] / n;
        c[0] /= 2;
        c[n] /= 2;
        for (int k = n / 2 + 1; k <= n; k++)
            upper = absmax(upper, c[k]);
        const double tol = SL_CHEB_TOL * scale;
        if (upper <= tol) {
            int m = n;
            while (m > 0 && !(fabs(c[m]) > tol))
                m--;
            return m + 1;
        }
        if (n == SL_GRID)
            return 0;
        for (int k = n; k > 0; k--) {  /* the old points are the even ones */
            v[2 * k] = v[k];
            cs[2 * k] = cs[k];
        }
        n *= 2;
        for (int k = 1; k < n; k += 2) {
            cs[k] = cos(k * (M_PI / n));
            if ((rc = sample(f, t, cs[k], F, where)))
                return rc;
            v[k] = F[0];
        }
    }
}

/* The eigenvalues of the upper Hessenberg matrix a (n x n, row-major, which
   it overwrites) into (wr, wi).  The matrix is balanced by powers of 2,
   without permutations, which keeps it Hessenberg (EISPACK's balanc), and
   its eigenvalues found by the Francis double-shift QR iteration (EISPACK's
   hqr): Wilkinson & Reinsch 1971, *Handbook for Automatic Computation*
   vol. II, contributions II/11 and II/14, in the 0-based form of Press et
   al., *Numerical Recipes in C*, 2nd ed., sec. 11.5-11.6.  A complex pair
   is wr -+ i wi.  Returns 0, or SL_EEIG if a value is not finite or the
   iteration takes more than 30 n steps. */
int sl_eig(double *a, int n, double *wr, double *wi)
{
#define A(i, j) a[(i) * n + (j)]
    for (int i = 0; i < n * n; i++)
        if (!isfinite(a[i]))
            return SL_EEIG;
    for (int done = 0; !done;) {  /* balanc */
        done = 1;
        for (int i = 0; i < n; i++) {
            double c = 0.0, r = 0.0;
            for (int j = 0; j < n; j++)
                if (j != i) {
                    c += fabs(A(j, i));
                    r += fabs(A(i, j));
                }
            if (c == 0.0 || r == 0.0)
                continue;
            const double s = c + r;
            double g = r / 2.0, f = 1.0;
            while (c < g) {
                f *= 2.0;
                c *= 4.0;
            }
            g = r * 2.0;
            while (c > g) {
                f /= 2.0;
                c /= 4.0;
            }
            if ((c + r) / f < 0.95 * s) {
                done = 0;
                for (int j = 0; j < n; j++)
                    A(i, j) /= f;
                for (int j = 0; j < n; j++)
                    A(j, i) *= f;
            }
        }
    }
    double anorm = 0.0, t = 0.0;  /* hqr */
    for (int i = 0; i < n; i++)
        for (int j = i > 0 ? i - 1 : 0; j < n; j++)
            anorm += fabs(A(i, j));
    int nn = n - 1, budget = 30 * n;
    while (nn >= 0) {
        int its = 0, l;
        do {
            for (l = nn; l >= 1; l--) {  /* a negligible subdiagonal element */
                double s = fabs(A(l - 1, l - 1)) + fabs(A(l, l));
                if (s == 0.0)
                    s = anorm;
                if (fabs(A(l, l - 1)) + s == s) {
                    A(l, l - 1) = 0.0;
                    break;
                }
            }
            double x = A(nn, nn);
            if (l == nn) {  /* one root */
                wr[nn] = x + t;
                wi[nn--] = 0.0;
                continue;
            }
            double y = A(nn - 1, nn - 1), w = A(nn, nn - 1) * A(nn - 1, nn);
            if (l == nn - 1) {  /* two roots */
                const double p = 0.5 * (y - x), q = p * p + w;
                double z = sqrt(fabs(q));
                x += t;
                if (q >= 0.0) {
                    z = p + copysign(z, p);
                    wr[nn - 1] = wr[nn] = x + z;
                    if (z != 0.0)
                        wr[nn] = x - w / z;
                    wi[nn - 1] = wi[nn] = 0.0;
                } else {
                    wr[nn - 1] = wr[nn] = x + p;
                    wi[nn - 1] = -(wi[nn] = z);
                }
                nn -= 2;
                continue;
            }
            if (budget-- == 0)
                return SL_EEIG;
            if (its == 10 || its == 20) {  /* an exceptional shift */
                t += x;
                for (int i = 0; i <= nn; i++)
                    A(i, i) -= x;
                const double s = fabs(A(nn, nn - 1)) + fabs(A(nn - 1, nn - 2));
                y = x = 0.75 * s;
                w = -0.4375 * s * s;
            }
            ++its;
            int m;
            double p = 0.0, q = 0.0, r = 0.0, z;
            for (m = nn - 2; m >= l; m--) {  /* two small subdiagonal elements */
                z = A(m, m);
                r = x - z;
                double s = y - z;
                p = (r * s - w) / A(m + 1, m) + A(m, m + 1);
                q = A(m + 1, m + 1) - z - r - s;
                r = A(m + 2, m + 1);
                s = fabs(p) + fabs(q) + fabs(r);
                p /= s;
                q /= s;
                r /= s;
                if (m == l)
                    break;
                const double u = fabs(A(m, m - 1)) * (fabs(q) + fabs(r));
                const double v = fabs(p) * (fabs(A(m - 1, m - 1)) + fabs(z)
                                            + fabs(A(m + 1, m + 1)));
                if (u + v == v)
                    break;
            }
            for (int i = m + 2; i <= nn; i++) {
                A(i, i - 2) = 0.0;
                if (i != m + 2)
                    A(i, i - 3) = 0.0;
            }
            for (int k = m; k <= nn - 1; k++) {  /* the double QR step on rows l..nn */
                if (k != m) {
                    p = A(k, k - 1);
                    q = A(k + 1, k - 1);
                    r = k != nn - 1 ? A(k + 2, k - 1) : 0.0;
                    if ((x = fabs(p) + fabs(q) + fabs(r)) != 0.0) {
                        p /= x;
                        q /= x;
                        r /= x;
                    }
                }
                const double s = copysign(sqrt(p * p + q * q + r * r), p);
                if (s == 0.0)
                    continue;
                if (k == m) {
                    if (l != m)
                        A(k, k - 1) = -A(k, k - 1);
                } else
                    A(k, k - 1) = -s * x;
                p += s;
                x = p / s;
                y = q / s;
                z = r / s;
                q /= p;
                r /= p;
                for (int j = k; j <= nn; j++) {
                    p = A(k, j) + q * A(k + 1, j);
                    if (k != nn - 1) {
                        p += r * A(k + 2, j);
                        A(k + 2, j) -= p * z;
                    }
                    A(k + 1, j) -= p * y;
                    A(k, j) -= p * x;
                }
                const int mmin = nn < k + 3 ? nn : k + 3;
                for (int i = l; i <= mmin; i++) {
                    p = x * A(i, k) + y * A(i, k + 1);
                    if (k != nn - 1) {
                        p += z * A(i, k + 2);
                        A(i, k + 2) -= p * r;
                    }
                    A(i, k + 1) -= p * q;
                    A(i, k) -= p;
                }
            }
        } while (l < nn - 1);
    }
    return 0;
#undef A
}

/* The roots of the Chebyshev series c[0..m-1], as numpy's chebroots finds
   them: none for m < 2, -c0/c1 for m = 2, else the eigenvalues of its
   colleague matrix (chebcompanion).  Returns their count. */
static int cheb_roots(const double *c, int m, double *wr, double *wi)
{
    if (m < 2)
        return 0;
    if (m == 2) {
        wr[0] = -c[0] / c[1];
        wi[0] = 0.0;
        return 1;
    }
    const int d = m - 1;
    const double h = sqrt(0.5);
    double *a = calloc((size_t)d * d, sizeof *a);
    if (!a)
        return SL_ENOMEM;
    for (int i = 0; i + 1 < d; i++)
        a[i * d + i + 1] = a[(i + 1) * d + i] = i ? 0.5 : h;
    for (int i = 0; i < d; i++)
        a[i * d + d - 1] -= (c[i] / c[d]) * ((i ? h : 1.0) / h) * 0.5;
    const int rc = sl_eig(a, d, wr, wi);
    free(a);
    return rc ? rc : d;
}

/* |p^(k)(x)| for the series p = c[0..m-1] at the complex x = (xr, xi), by
   numpy's chebder and chebval, complex products written out as numpy's */
static double chebder_abs(const double *c, int m, int k, double xr, double xi)
{
    double b0[SL_GRID + 1], b1[SL_GRID + 1], *d = b0, *der = b1;
    if (k >= m)
        return 0.0;
    memcpy(d, c, m * sizeof *d);
    for (int i = 0; i < k; i++, m--) {
        double *s = d;
        for (int j = m - 1; j > 2; j--) {
            der[j - 1] = (2 * j) * d[j];
            d[j - 2] += (j * d[j]) / (j - 2);
        }
        if (m - 1 > 1)
            der[1] = 4 * d[2];
        der[0] = d[1];
        d = der;
        der = s;
    }
    if (m == 1)
        return fabs(d[0]);
    double c0r = d[m - 2], c0i = 0.0, c1r = d[m - 1], c1i = 0.0;  /* Clenshaw */
    for (int i = 3; i <= m; i++) {
        const double tr = c0r, ti = c0i;
        c0r = d[m - i] - c1r;
        c0i = -c1i;
        const double pr = c1r * (2 * xr) - c1i * (2 * xi), pi = c1r * (2 * xi) + c1i * (2 * xr);
        c1r = tr + pr;
        c1i = ti + pi;
    }
    return hypot(c0r + (c1r * xr - c1i * xi), c0i + (c1r * xi + c1i * xr));
}

/* The real roots in [-1, 1] of the series c[0..m-1] from its roots z (by
   real, then imaginary part), each cluster merged, into out; returns their
   count.  A k-fold root splits by about (eta / |p^(k)(r) / k!|)^(1/k), eta =
   SL_CHEB_TOL sum|c|: a run of k roots that close to their mean, with no gap
   wider than SL_CLUSTER_MAX, is one root.  A run that is not is split at
   its widest gap, and its right part is taken first. */
static int merged_roots(const double *c, int m, const double *zr, const double *zi,
                        int nz, double *out)
{
    int lo[SL_GRID], hi[SL_GRID], runs = nz > 0, count = 0;
    double eta = 0.0;
    for (int i = 0; i < m; i++)
        eta += fabs(c[i]);
    eta *= SL_CHEB_TOL;
    lo[0] = 0;
    hi[0] = nz;
    while (runs) {
        runs--;
        const int s = lo[runs], e = hi[runs], k = e - s;
        double mr = 0.0, mi = 0.0;
        for (int i = s; i < e; i++) {
            mr += zr[i];
            mi += zi[i];
        }
        mr /= k;
        mi /= k;
        if (k > 1) {
            double gap = -1.0, dev = 0.0, fact = 1.0;
            int at = s + 1;
            for (int i = s; i + 1 < e; i++) {
                const double g = hypot(zr[i + 1] - zr[i], zi[i + 1] - zi[i]);
                if (g > gap) {
                    gap = g;
                    at = i + 1;
                }
            }
            int split = gap > SL_CLUSTER_MAX;
            if (!split) {
                for (int i = s; i < e; i++)
                    dev = fmax(dev, hypot(zr[i] - mr, zi[i] - mi));
                for (int i = 2; i <= k; i++)
                    fact *= i;
                split = pow(dev, k) * chebder_abs(c, m, k, mr, mi) > eta * fact;
            }
            if (split) {
                lo[runs] = s;
                hi[runs++] = at;
                lo[runs] = at;
                hi[runs++] = e;
                continue;
            }
        }
        if (fabs(mi) <= SL_REAL_TOL && fabs(mr) <= 1.0 + SL_REAL_TOL)
            out[count++] = mr;
    }
    return count;
}

/* The grid scan's roots in cells lo..hi, given f1 at their ends (vals[0] at
   point lo): an end where f1 is 0, else Brent's root where f1 changes
   sign, appended to out[*count]; where holds a failed search's bracket. */
static int cell_roots(sl_field *f, double t, int lo, int hi, const double *vals,
                      double *out, int *count, double *where)
{
    for (int i = lo; i <= hi; i++) {
        const double a = grid_at(i), b = grid_at(i + 1), fa = vals[i - lo],
                     fb = vals[i + 1 - lo];
        if (fa == 0.0 || fb == 0.0)
            out[(*count)++] = fa == 0.0 ? a : b;
        else if (fa * fb < 0) {
            const int rc = lam_root(f, t, a, b, SL_ROOT_TOL, &out[*count]);
            if (rc) {
                where[0] = a;
                where[1] = b;
                return rc;
            }
            ++*count;
        }
    }
    return 0;
}

/* The roots of f1 on the grid near each merged root r: the nearest within
   SL_POLISH_TOL of r, else r itself if it lies in [-1, 1]. */
static int polish(sl_field *f, double t, const double *merged, int nm, double *found,
                  int *nf, double *where)
{
    double F[f->n];
    for (int j = 0; j < nm; j++) {
        const double r = merged[j];
        int cell[2];
        for (int e = 0; e < 2; e++) {
            const int i = (int)((r + (e ? SL_POLISH_TOL : -SL_POLISH_TOL) + 1) * SL_GRID / 2);
            cell[e] = i < 0 ? 0 : (i > SL_GRID - 1 ? SL_GRID - 1 : i);
        }
        double vals[3], near[2];  /* r +- SL_POLISH_TOL spans at most two cells */
        int nc = 0, rc;
        for (int i = cell[0]; i <= cell[1] + 1; i++) {
            if ((rc = field_at(f, t, grid_at(i), F)))
                return rc;
            vals[i - cell[0]] = F[0];
        }
        if ((rc = cell_roots(f, t, cell[0], cell[1], vals, near, &nc, where)))
            return rc;
        double best = r, gap = INFINITY;
        for (int i = 0; i < nc; i++)
            if (fabs(near[i] - r) <= SL_POLISH_TOL && fabs(near[i] - r) < gap) {
                best = near[i];
                gap = fabs(near[i] - r);
            }
        if (gap < INFINITY || (-1.0 <= r && r <= 1.0))
            found[(*nf)++] = best;
    }
    return 0;
}

/* The roots of f1 in [-1, 1] (see layer.find_sliding_modes) at the field's
   state x and time t, as rows (lam, stability, f2..fn at lam) of out, which
   holds SL_GRID + 1 of them.  Returns their count, or an error, with where
   (out's first two values) holding the lam of a non-finite sample
   (SL_ENONFINITE) or the bracket of a failed root search: SL_EDEGEN for f1
   = 0 on a subinterval, SL_EEIG, SL_ENOMEM or a Brent search's code. */
static int modes(sl_field *f, double t, double *out)
{
    const int n = f->n;
    double c[SL_GRID + 1], found[SL_GRID + 1], F[n], *where = out;
    int nf = 0, m = chebyshev(f, t, c, where), rc;
    if (m < 0)
        return m;
    if (m == 0) {  /* a kink: the roots of every grid cell */
        double vals[SL_GRID + 1];
        for (int i = 0; i <= SL_GRID; i++) {
            if ((rc = sample(f, t, grid_at(i), F, where)))
                return rc;
            vals[i] = F[0];
        }
        for (int i = 2; i <= SL_GRID; i++)
            if (fabs(vals[i - 2]) < 1e-14 && fabs(vals[i - 1]) < 1e-14 && fabs(vals[i]) < 1e-14)
                return SL_EDEGEN;
        if ((rc = cell_roots(f, t, 0, SL_GRID - 1, vals, found, &nf, where)))
            return rc;
    } else {
        double zr[SL_GRID], zi[SL_GRID], merged[SL_GRID];
        int nz = cheb_roots(c, m, zr, zi), kept = 0;
        if (nz < 0)
            return nz;
        for (int i = 0; i < nz; i++) {  /* sorted by (real, imaginary) part */
            const double r = zr[i], s = zi[i];
            if (!(fabs(s) <= SL_CLUSTER_MAX))
                continue;
            int j = kept++;
            for (; j > 0 && (zr[j - 1] > r || (zr[j - 1] == r && zi[j - 1] > s)); j--) {
                zr[j] = zr[j - 1];
                zi[j] = zi[j - 1];
            }
            zr[j] = r;
            zi[j] = s;
        }
        const int nm = merged_roots(c, m, zr, zi, kept, merged);
        if ((rc = polish(f, t, merged, nm, found, &nf, where)))
            return rc;
    }
    for (int i = 1; i < nf; i++) {  /* a stable sort */
        const double r = found[i];
        int j = i;
        for (; j > 0 && found[j - 1] > r; j--)
            found[j] = found[j - 1];
        found[j] = r;
    }
    int count = 0;
    for (int i = 0; i < nf; i++) {
        const double r = found[i];
        double *row = out + count * (n + 1);
        if (count && r - row[-(n + 1)] <= 1e-9)
            continue;
        const double lo = r - 1e-6 > -1.0 ? r - 1e-6 : -1.0, hi = r + 1e-6 < 1.0 ? r + 1e-6 : 1.0;
        double fhi, flo;
        if ((rc = f1_at(f, t, hi, &fhi)) || (rc = f1_at(f, t, lo, &flo))
            || (rc = field_at(f, t, r, F)))
            return rc;
        const double d = (fhi - flo) / (hi - lo);
        row[0] = r;
        row[1] = fabs(d) <= SL_DERIV_TOL ? SL_MARGINAL : (d < 0 ? SL_ATTRACTING : SL_REPELLING);
        memcpy(row + 2, F + 1, (n - 1) * sizeof *F);
        count++;
    }
    return count;
}

int sl_modes(sl_field *f, double t, double *out)
{
    int rc;
    WITH_GIL(f->kernel < 0, rc = modes(f, t, out));
    return rc;
}

/* ---- the two methods ------------------------------------------------ */

typedef struct {
    int stages, order, fsal_in_step;  /* DOPRI5 evaluates its last stage at
                                         the new point inside the step */
    const double *c, *a, *b;           /* a: stages x stages, row-major */
    double safe, fac1, fac2, beta, expo1;
} sl_method;

static const double D5_C[7] = {0.0, 0.2, 0.3, 0.8, 8.0 / 9.0, 1.0, 1.0};
static const double D5_A[7 * 7] = {
    0, 0, 0, 0, 0, 0, 0,
    0.2, 0, 0, 0, 0, 0, 0,
    3.0 / 40.0, 9.0 / 40.0, 0, 0, 0, 0, 0,
    44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0, 0, 0, 0, 0,
    19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0, 0, 0, 0,
    9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0, 0, 0,
    35.0 / 384.0, 0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0, 0};
static const double D5_E[7] = {71.0 / 57600.0, 0, -71.0 / 16695.0, 71.0 / 1920.0,
                               -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0};

static const double D8_C[12] = {
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0};
static const double D8_A[12 * 12] = {
    [1 * 12 + 0] = 5.26001519587677318785587544488e-2,
    [2 * 12 + 0] = 1.97250569845378994544595329183e-2,
    [2 * 12 + 1] = 5.91751709536136983633785987549e-2,
    [3 * 12 + 0] = 2.95875854768068491816892993775e-2,
    [3 * 12 + 2] = 8.87627564304205475450678981324e-2,
    [4 * 12 + 0] = 2.41365134159266685502369798665e-1,
    [4 * 12 + 2] = -8.84549479328286085344864962717e-1,
    [4 * 12 + 3] = 9.24834003261792003115737966543e-1,
    [5 * 12 + 0] = 3.7037037037037037037037037037e-2,
    [5 * 12 + 3] = 1.70828608729473871279604482173e-1,
    [5 * 12 + 4] = 1.25467687566822425016691814123e-1,
    [6 * 12 + 0] = 3.7109375e-2,
    [6 * 12 + 3] = 1.70252211019544039314978060272e-1,
    [6 * 12 + 4] = 6.02165389804559606850219397283e-2,
    [6 * 12 + 5] = -1.7578125e-2,
    [7 * 12 + 0] = 3.70920001185047927108779319836e-2,
    [7 * 12 + 3] = 1.70383925712239993810214054705e-1,
    [7 * 12 + 4] = 1.07262030446373284651809199168e-1,
    [7 * 12 + 5] = -1.53194377486244017527936158236e-2,
    [7 * 12 + 6] = 8.27378916381402288758473766002e-3,
    [8 * 12 + 0] = 6.24110958716075717114429577812e-1,
    [8 * 12 + 3] = -3.36089262944694129406857109825,
    [8 * 12 + 4] = -8.68219346841726006818189891453e-1,
    [8 * 12 + 5] = 2.75920996994467083049415600797e1,
    [8 * 12 + 6] = 2.01540675504778934086186788979e1,
    [8 * 12 + 7] = -4.34898841810699588477366255144e1,
    [9 * 12 + 0] = 4.77662536438264365890433908527e-1,
    [9 * 12 + 3] = -2.48811461997166764192642586468,
    [9 * 12 + 4] = -5.90290826836842996371446475743e-1,
    [9 * 12 + 5] = 2.12300514481811942347288949897e1,
    [9 * 12 + 6] = 1.52792336328824235832596922938e1,
    [9 * 12 + 7] = -3.32882109689848629194453265587e1,
    [9 * 12 + 8] = -2.03312017085086261358222928593e-2,
    [10 * 12 + 0] = -9.3714243008598732571704021658e-1,
    [10 * 12 + 3] = 5.18637242884406370830023853209,
    [10 * 12 + 4] = 1.09143734899672957818500254654,
    [10 * 12 + 5] = -8.14978701074692612513997267357,
    [10 * 12 + 6] = -1.85200656599969598641566180701e1,
    [10 * 12 + 7] = 2.27394870993505042818970056734e1,
    [10 * 12 + 8] = 2.49360555267965238987089396762,
    [10 * 12 + 9] = -3.0467644718982195003823669022,
    [11 * 12 + 0] = 2.27331014751653820792359768449,
    [11 * 12 + 3] = -1.05344954667372501984066689879e1,
    [11 * 12 + 4] = -2.00087205822486249909675718444,
    [11 * 12 + 5] = -1.79589318631187989172765950534e1,
    [11 * 12 + 6] = 2.79488845294199600508499808837e1,
    [11 * 12 + 7] = -2.85899827713502369474065508674,
    [11 * 12 + 8] = -8.87285693353062954433549289258,
    [11 * 12 + 9] = 1.23605671757943030647266201528e1,
    [11 * 12 + 10] = 6.43392746015763530355970484046e-1};
static const double D8_B[12] = {
    5.42937341165687622380535766363e-2, 0, 0, 0, 0, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2};
/* the 3rd-order estimate's weights, at stages 1, 9 and 12, and the 5th's */
static const double D8_BHH[3] = {0.244094488188976377952755905512,
                                 0.733846688281611857341361741547,
                                 0.220588235294117647058823529412e-1};
static const double D8_ER[12] = {
    0.1312004499419488073250102996e-01, 0, 0, 0, 0, -0.1225156446376204440720569753e+01,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+01,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-01, -0.2235530786388629525884427845e-01};

static const sl_method DOPRI5 = {7, 5, 1, D5_C, D5_A, NULL, 0.9, 0.2, 10.0, 0.04,
                                  0.2 - 0.04 * 0.75};
static const sl_method DOP853 = {12, 8, 0, D8_C, D8_A, D8_B, 0.9, 0.3, 6.0, 0.0,
                                  1.0 / 8.0};

/* ---- recording ------------------------------------------------------ */

static int grow(double **p, long cap, long width)
{
    double *q = PyMem_RawRealloc(*p, (size_t)cap * width * sizeof **p);
    if (!q)
        return -1;
    *p = q;
    return 0;
}

static int push(sl_record *r, const sl_field *f, double t, const double *y)
{
    const int n = f->n, lam = f->kind >= SL_SIGMOID, slide = f->kind == SL_SLIDE;
    if (r->len == r->cap) {  /* array("d")'s growth */
        long cap = r->len + 1 + ((r->len + 1) >> 4) + (r->len < 8 ? 3 : 7);
        if (grow(&r->t, cap, 1) || grow(&r->y, cap, n) || (lam && grow(&r->lam, cap, 1)))
            return -1;
        r->cap = cap;
    }
    double *row = r->y + r->len * n;
    r->t[r->len] = t;
    row[0] = 0.0;  /* a slide's state is x_rest */
    memcpy(row + slide, y, (n - slide) * sizeof *y);
    if (f->kind == SL_SIGMOID)
        r->lam[r->len] = sl_sigmoid(f->sigmoid, f->value, y[0]);
    else if (f->kind == SL_LAYER) {
        r->lam[r->len] = y[0];
        row[0] = 0.0;
    } else if (slide)
        r->lam[r->len] = clip1(f->slide->llam);
    r->len++;
    return 0;
}

void sl_take(sl_record *r, int n)
{
    /* a shrinking realloc keeps the data; on failure the block stays as is */
    grow(&r->t, r->len, 1);
    grow(&r->y, r->len, n);
    if (r->lam)
        grow(&r->lam, r->len, 1);
    r->cap = r->len;
}

void sl_free(void *p) { PyMem_RawFree(p); }

void sl_release(sl_record *r)
{
    PyMem_RawFree(r->t);
    PyMem_RawFree(r->y);
    PyMem_RawFree(r->lam);
    r->t = r->y = r->lam = NULL;
}

/* ---- CSV rows ---------------------------------------------------------- */

/* copy len bytes of s to *p, or fail with -1 if fewer are left before end */
static int put(char **p, const char *end, const char *s, long len)
{
    if (len > end - *p)
        return -1;
    memcpy(*p, s, len);
    *p += len;
    return 0;
}

#define E17 100000000000000000ULL  /* 10^17 */

/* x to 17 significant digits, as %.17g prints it, into out, which holds 25
   bytes: -d.dddde-XX at most.  A NaN is nan whatever its sign, as Python
   prints it (glibc prints -nan).  Returns the length.
   x = m 2^e with m in [2^63, 2^64), and k = floor(log10 x) is k0 =
   floor(log10 2^(e + 63)) or k0 + 1.  The 192-bit product P of m and the
   table's 10^q, q = 16 - k, holds x 10^q = D + f, 10^16 <= D < 10^17,
   with its units at bit S; an integer part of 10^17 or more says k =
   k0 + 1.  The table is exact for 0 <= q <= 55, so an exact half rounds
   to even; any other q truncates 10^q, and x 10^q lies in (P, P + 2^64)
   2^-S, which decides the rounding unless P is within 2^64 below the
   half; no double's P is (tests/test_loop.py searches every binade).
   Outside that range of q no double is a 17-digit tie. */
int sl_g17(double x, char *out)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    if (isnan(x)) {
        memcpy(out, "nan", 3);
        return 3;
    }
    char *p = out;
    if (bits >> 63)
        *p++ = '-';
    if (isinf(x)) {
        memcpy(p, "inf", 3);
        return p + 3 - out;
    }
    if (x == 0) {
        *p++ = '0';
        return p - out;
    }
    const int be = (int)(bits >> 52 & 0x7FF);
    uint64_t m = bits & ((1ULL << 52) - 1);
    int e = be ? be - 1075 : -1074;
    if (be)
        m |= 1ULL << 52;
    m <<= 11;
    e -= 11;
    while (!(m >> 63)) {  /* a subnormal */
        m <<= 1;
        e--;
    }
    int k = ((e + 63) * 78913) >> 18;  /* floor((e + 63) log10 2) for |e + 63| < 1100 */
    uint64_t d;
    for (;;) {
        const int q = 16 - k;
        const sl_pow10 *t = pow10_at(q);
        const unsigned __int128 a = (unsigned __int128)m * t->lo;
        const unsigned __int128 top = (unsigned __int128)m * t->hi + (uint64_t)(a >> 64);
        const uint64_t low = (uint64_t)a;       /* P = top 2^64 + low */
        const int s = -(e + t->e) - 64;         /* S - 64, in 67..74 */
        d = (uint64_t)(top >> s);
        if (d >= E17) {
            k++;
            continue;
        }
        const unsigned __int128 half = (unsigned __int128)1 << (s - 1);
        const unsigned __int128 f = top & ((half << 1) - 1);  /* f 2^64 + low */
        const int exact = q >= 0 && q <= 55;
        if (f > half || (f == half && (low || !exact || d & 1)))
            d++;
        break;
    }
    if (d == E17) {
        d /= 10;
        k++;
    }
    char g[17];
    uint32_t hi = (uint32_t)(d / 100000000), lo = (uint32_t)(d % 100000000);
    for (int i = 16; i > 8; i--, lo /= 10)
        g[i] = (char)('0' + lo % 10);
    for (int i = 8; i >= 0; i--, hi /= 10)
        g[i] = (char)('0' + hi % 10);
    int n = 17;
    while (g[n - 1] == '0')
        n--;
    if (k < -4 || k >= 17) {  /* d.ddde+XX */
        *p++ = g[0];
        if (n > 1) {
            *p++ = '.';
            memcpy(p, g + 1, n - 1);
            p += n - 1;
        }
        *p++ = 'e';
        *p++ = k < 0 ? '-' : '+';
        const int a = k < 0 ? -k : k;
        if (a >= 100)
            *p++ = (char)('0' + a / 100);
        *p++ = (char)('0' + a / 10 % 10);
        *p++ = (char)('0' + a % 10);
    } else if (k < 0) {  /* 0.000ddd */
        *p++ = '0';
        *p++ = '.';
        memset(p, '0', -k - 1);
        p += -k - 1;
        memcpy(p, g, n);
        p += n;
    } else if (n <= k + 1) {  /* ddd000 */
        memcpy(p, g, n);
        memset(p + n, '0', k + 1 - n);
        p += k + 1;
    } else {  /* ddd.ddd */
        memcpy(p, g, k + 1);
        p += k + 1;
        *p++ = '.';
        memcpy(p, g + k + 1, n - k - 1);
        p += n - k - 1;
    }
    return p - out;
}

/* Write rows of CSV text into out, which holds cap bytes.  Row r holds the
   w values v[r][0..w-1] of the C-contiguous block v, printed by sl_g17, and
   ns text columns at the ascending places slot[0..ns-1], comma-joined in
   place order and ended by a newline.  Run k of rows, ends[k - 1] to
   ends[k] - 1 (ends[-1] = 0; the last end is rows), shares its texts: text
   column s is text[off[i] .. off[i + 1]), i = k ns + s.  Returns the bytes
   written, or -1 if they do not fit in cap. */
long sl_csv(char *out, long cap, const double *v, long rows, int w, const long *ends,
            const int *slot, int ns, const char *text, const long *off)
{
    char *p = out;
    const char *const end = out + cap;
    for (long r = 0; r < rows; r++) {
        while (r == *ends) {  /* the next run; an empty one holds no row */
            ends++;
            off += ns;
        }
        for (int j = 0, s = 0; j < w + ns; j++) {
            if (j && put(&p, end, ",", 1))
                return -1;
            if (s < ns && slot[s] == j) {
                if (put(&p, end, text + off[s], off[s + 1] - off[s]))
                    return -1;
                s++;
                continue;
            }
            char g[25];
            if (put(&p, end, g, sl_g17(*v++, g)))
                return -1;
        }
        if (put(&p, end, "\n", 1))
            return -1;
    }
    return p - out;
}

/* ---- one run of the step loop ---------------------------------------- */

typedef struct {
    const sl_method *m;
    sl_field *f;
    sl_record *r;
    int n;               /* the state's dimension: f's, or f's - 1 for a slide */
    double rtol, atol;
    long budget, steps;  /* accepted steps allowed and taken, over all parts */
} sl_loop;

static int eval(sl_loop *L, double t, const double *y, double *dy)
{
    L->r->evals++;
    return sl_rhs(L->f, t, y, dy);
}

static int event(sl_loop *L, const sl_event *ev, double t, const double *y, double *g)
{
    if (L->f->kind == SL_SLIDE) {  /* the nearer end of the slide: |lam_s| = 1 or a fold */
        const sl_slide *s = L->f->slide;
        const int rc = slide_at(L->f, t, y);
        if (!rc)
            *g = s->fold < 1.0 - fabs(s->llam) ? s->fold : 1.0 - fabs(s->llam);
        return rc;
    }
    if (!ev->py) {
        *g = ev->c0 + ev->c1 * y[0] + ev->c2 * fabs(y[0]);
        return 0;
    }
    memcpy(L->f->x, y, L->n * sizeof *y);
    if (sl_py(ev->py, t, NAN))
        return SL_EPY;
    *g = *ev->g;
    return 0;
}

static void hermite(int n, double t0, const double *y0, const double *f0, double t1,
                    const double *y1, const double *f1, double t, double *out)
{
    const double h = t1 - t0, s = (t - t0) / h, s2 = s * s, s3 = s * s * s;
    const double a = 2 * s3 - 3 * s2 + 1, b = (s3 - 2 * s2 + s) * h,
                 c = 3 * s2 - 2 * s3, d = (s3 - s2) * h;
    for (int i = 0; i < n; i++)
        out[i] = a * y0[i] + b * f0[i] + c * y1[i] + d * f1[i];
}

/* the event along a step's interpolant */
typedef struct {
    sl_loop *L;
    const sl_event *ev;
    double ta, tb;
    const double *ya, *fa, *yb, *fb;
    double *ys;
} sl_step;

static int on_step(void *ctx, double t, double *g)
{
    sl_step *c = ctx;
    hermite(c->L->n, c->ta, c->ya, c->fa, c->tb, c->yb, c->fb, t, c->ys);
    return event(c->L, c->ev, t, c->ys, g);
}

static double hinit(sl_loop *L, double t, const double *y, const double *f0, double *y1,
                    double *f1, double hmax, int *rc)
{
    const int n = L->n;
    double dnf = 0, dny = 0, der2 = 0, h, h1;
    for (int i = 0; i < n; i++) {
        const double sk = L->atol + L->rtol * fabs(y[i]);
        dnf += (f0[i] / sk) * (f0[i] / sk);
        dny += (y[i] / sk) * (y[i] / sk);
    }
    h = (dnf <= 1e-10 || dny <= 1e-10) ? 1.0e-6 : sqrt(dny / dnf) * 0.01;
    h = fmin(h, hmax);
    for (int i = 0; i < n; i++)
        y1[i] = y[i] + h * f0[i];
    if ((*rc = eval(L, t + h, y1, f1)))
        return 0;
    for (int i = 0; i < n; i++) {
        const double sk = L->atol + L->rtol * fabs(y[i]);
        der2 += ((f1[i] - f0[i]) / sk) * ((f1[i] - f0[i]) / sk);
    }
    der2 = sqrt(der2) / h;
    const double der12 = fmax(fabs(der2), sqrt(dnf));
    h1 = der12 <= 1e-15 ? fmax(1.0e-6, fabs(h) * 1.0e-3) : pow(0.01 / der12, 1.0 / L->m->order);
    return fmin(fmin(100 * fabs(h), h1), hmax);
}

/* One integration from (t, y) to t1 or to the event's crossing, recording
   every accepted step; y ends as the last sample's state. */
static int part(sl_loop *L, const sl_event *ev, double t, double t1, double *y, double hmax)
{
    const sl_method *m = L->m;
    const int n = L->n, S = m->stages;
    double *w = malloc((size_t)(S + 4) * n * sizeof *w);
    if (!w)
        return SL_ENOMEM;
    double *k[13], *ynew = w + (S + 1) * n, *ytmp = ynew + n, *yold = ytmp + n;
    for (int s = 0; s <= S; s++)
        k[s] = w + s * n;  /* k[S] is the slope at the new point */
    const double facc1 = 1.0 / m->fac1, facc2 = 1.0 / m->fac2;
    double g0 = 0, g1 = 0, h, facold = 1.0e-4;
    int rc, reject = 0, last = 0;

    if ((rc = eval(L, t, y, k[0])) || (ev && (rc = event(L, ev, t, y, &g0))))
        goto out;
    if (L->r->len == 0 && push(L->r, L->f, t, y)) {
        rc = SL_ENOMEM;
        goto out;
    }
    h = hinit(L, t, y, k[0], ytmp, k[1], hmax, &rc);
    if (rc)
        goto out;
    for (;;) {
        if (0.1 * fabs(h) <= fabs(t) * 2.3e-16) {
            rc = SL_ESMALL;
            goto out;
        }
        if (t + 1.01 * h - t1 > 0.0) {
            h = t1 - t;
            last = 1;
        }
        const double xph = last ? t1 : t + h;
        for (int s = 1; s < S; s++) {
            const double *a = m->a + s * S;
            double *dst = (m->fsal_in_step && s == S - 1) ? ynew : ytmp;
            for (int i = 0; i < n; i++) {
                double acc = a[0] * k[0][i];
                for (int j = 1; j < s; j++)
                    if (a[j] != 0.0)
                        acc += a[j] * k[j][i];
                dst[i] = s == 1 ? y[i] + h * a[0] * k[0][i] : y[i] + h * acc;
            }
            if ((rc = eval(L, m->c[s] == 1.0 ? xph : t + m->c[s] * h, dst, k[s])))
                goto out;
        }
        double err = 0, err2 = 0;
        if (m->fsal_in_step) {  /* DOPRI5: stage 7 is the slope at ynew */
            for (int i = 0; i < n; i++) {
                const double *e = D5_E;
                const double sk = L->atol + L->rtol * fmax(fabs(y[i]), fabs(ynew[i]));
                const double d = (e[0] * k[0][i] + e[2] * k[2][i] + e[3] * k[3][i]
                                  + e[4] * k[4][i] + e[5] * k[5][i] + e[6] * k[6][i]) * h;
                err += (d / sk) * (d / sk);
            }
            err = sqrt(err / n);
        } else {
            for (int i = 0; i < n; i++) {
                double bk = m->b[0] * k[0][i];
                for (int j = 5; j < S; j++)
                    bk += m->b[j] * k[j][i];
                ynew[i] = y[i] + h * bk;
                const double sk = L->atol + L->rtol * fmax(fabs(y[i]), fabs(ynew[i]));
                const double d3 = bk - D8_BHH[0] * k[0][i] - D8_BHH[1] * k[8][i]
                                  - D8_BHH[2] * k[11][i];
                double d5 = D8_ER[0] * k[0][i];
                for (int j = 5; j < S; j++)
                    d5 += D8_ER[j] * k[j][i];
                err2 += (d3 / sk) * (d3 / sk);
                err += (d5 / sk) * (d5 / sk);
            }
            double deno = err + 0.01 * err2;
            if (deno <= 0.0)
                deno = 1.0;
            err = fabs(h) * err * sqrt(1.0 / (n * deno));
        }
        const double fac11 = pow(err, m->expo1);
        const double fac = fmax(facc2, fmin(facc1, fac11 / pow(facold, m->beta) / m->safe));
        double hnew = h / fac;
        if (!(err <= 1.0)) {
            hnew = h / (m->fsal_in_step ? fmin(facc1, fac11 / m->safe) : facc1);
            reject = 1;
            last = 0;
            L->r->rejected++;
            h = hnew;
            continue;
        }
        facold = fmax(err, 1.0e-4);
        if (!m->fsal_in_step && (rc = eval(L, xph, ynew, k[S])))
            goto out;
        L->r->accepted++;
        if (++L->steps > L->budget) {
            rc = SL_EBUDGET;
            goto out;
        }
        for (int i = 0; i < n; i++)
            if (!isfinite(ynew[i])) {
                rc = SL_ENONFINITE;
                goto out;
            }
        double *fnew = m->fsal_in_step ? k[S - 1] : k[S];
        if (ev) {
            if ((rc = event(L, ev, xph, ynew, &g1)))
                goto out;
            if (g1 <= 0.0 && 0.0 <= g0 && g0 != g1) {  /* a fall through zero */
                double tr = g0 == 0.0 ? t : xph;
                memcpy(yold, y, n * sizeof *y);
                sl_step c = {L, ev, t, xph, yold, k[0], ynew, fnew, ytmp};
                if (g0 != 0.0 && g1 != 0.0
                    && (rc = brent(on_step, &c, t, xph, g0, g1, 4 * DBL_EPSILON,
                                   4 * DBL_EPSILON, &tr)))
                    goto out;
                if (tr > t) {
                    hermite(n, t, yold, k[0], xph, ynew, fnew, tr, y);
                    if (push(L->r, L->f, tr, y)) {
                        rc = SL_ENOMEM;
                        goto out;
                    }
                }
                rc = SL_STOPPED;
                goto out;
            }
            g0 = g1;
        }
        if (push(L->r, L->f, xph, ynew)) {
            rc = SL_ENOMEM;
            goto out;
        }
        memcpy(y, ynew, n * sizeof *y);
        memcpy(k[0], fnew, n * sizeof *y);
        t = xph;
        if (last) {
            rc = SL_DONE;
            goto out;
        }
        if (fabs(hnew) > hmax)
            hnew = hmax;
        if (reject)
            hnew = fmin(fabs(hnew), fabs(h));
        reject = 0;
        h = hnew;
    }
out:
    free(w);
    return rc;
}

/* A regularized run alternates parts inside the transition band |x1| < eps,
   with the step capped at eps/4, and outside it.  A part inside ends where
   |x1| reaches eps; one outside where x1 passes the edge on its starting
   side, since one step may leap the whole band. */
static int band(sl_loop *L, double t, double t1, double *y, double hmax)
{
    const double eps = L->f->value;
    int inside, rc;
    if (fabs(y[0]) < eps * (1.0 - 1e-12))
        inside = 1;
    else if (fabs(y[0]) > eps * (1.0 + 1e-12))
        inside = 0;
    else {  /* on the band edge: the side of the next instant, by dx1/dt */
        double dy[L->n];
        if ((rc = eval(L, t, y, dy)))
            return rc;
        inside = y[0] * dy[0] < 0;
    }
    for (;;) {
        const double side = y[0] > 0.0 ? 1.0 : -1.0;
        const sl_event ev = {inside ? eps : -eps, inside ? 0.0 : side, inside ? -1.0 : 0.0,
                             NULL, NULL};
        const long len0 = L->r->len ? L->r->len : 1;
        rc = part(L, &ev, t, t1, y, inside ? fmin(hmax, eps / 4.0) : hmax);
        if (rc != SL_STOPPED)
            return rc;
        t = L->r->t[L->r->len - 1];
        if (t >= t1)
            return rc;
        if (L->r->len == len0)
            return SL_ESTUCK;
        /* x1 may lie a few ulp past the edge, so the event tells the side */
        inside = !inside;
    }
}

static const sl_event EDGE;  /* a slide's, which event() evaluates */

static int run(sl_loop *L, const sl_event *ev, double t0, double t1, double *y, double hmax)
{
    sl_field *f = L->f;
    sl_record *r = L->r;
    int rc;
    if (f->kind == SL_SIGMOID)
        return band(L, t0, t1, y, hmax);
    if (f->kind != SL_SLIDE)
        return part(L, ev, t0, t1, y, hmax);
    /* a slide solves at its start before the loop does, and again at the
       sample it stops on, which then records that solve's root */
    if ((rc = slide_start(f, t0, y)) || (rc = slide_at(f, t0, y))
        || (rc = part(L, &EDGE, t0, t1, y, hmax)) != SL_STOPPED)
        return rc;
    const long k = r->len - 1;
    if ((rc = slide_at(f, r->t[k], r->y + k * f->n + 1)))
        return rc;
    r->lam[k] = clip1(f->slide->llam);
    return SL_STOPPED;
}

int sl_run(sl_field *f, const sl_event *ev, int dop853, double t0, double t1, double *y,
           double rtol, double atol, double hmax, long budget, sl_record *r)
{
    const int slide = f->kind == SL_SLIDE;
    sl_loop L = {dop853 ? &DOP853 : &DOPRI5, f, r, f->n - slide, rtol, atol, budget, 0};
    int rc;
    WITH_GIL(f->kernel < 0 || (ev && ev->py), rc = run(&L, ev, t0, t1, y, hmax));
    return rc;
}
