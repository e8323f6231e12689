/* The one step loop of switchlayer: Dormand-Prince DOPRI5 and DOP853.
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
 * crossing is localized with Brent's method (scipy's brentq, xtol = rtol =
 * 4 eps) on the cubic Hermite interpolant of the step, built from its end
 * values and slopes (ibid., sec. II.6), and the run stops there.
 *
 * A run evaluates one of four right-hand sides.  SL_PLAIN calls the
 * Python field(y, t).  The three others evaluate f(x; lam): SL_FIXED at a
 * constant lam, SL_SIGMOID at lam = phi_eps(x1), and SL_LAYER, the layer
 * system z = (lam, x2..xn) -> (f1/eps_layer, f2..fn) at x = (0, x2..xn) and
 * lam clipped to [-1, 1].  f is a compiled kernel (sl_kernel, generated
 * from the built-in fields' declarations and appended to this file) or the
 * Python fused(x, t, lam).  Every Python call goes through sl_py: C writes
 * the state into the run's buffer x, Python writes its slopes into f (or
 * an event value into g) and returns 0, or -1 after raising.
 *
 * Samples are recorded as they are accepted, into buffers from
 * PyMem_RawMalloc (so tracemalloc sees them) that grow as array("d")
 * grows; sl_take trims them to their length.
 */
#include <math.h>
#include <stdlib.h>
#include <string.h>

enum { SL_PLAIN, SL_FIXED, SL_SIGMOID, SL_LAYER };
enum { SL_DONE = 0, SL_STOPPED = 1, SL_EPY = -1, SL_EBUDGET = -2, SL_ESMALL = -3,
       SL_ENONFINITE = -4, SL_ENOMEM = -5, SL_ESTUCK = -6 };

typedef struct {
    int kind, sigmoid, kernel, n;
    double value;        /* lam (SL_FIXED), eps (SL_SIGMOID), eps_layer (SL_LAYER) */
    const double *par;   /* the kernel's parameters */
    void *py;            /* the Python callback's handle when kernel < 0 */
    double *x, *f;       /* the state and slopes a Python call reads and writes */
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
static void sl_kernel(int k, const double *x_, double t, double lam, const double *p_,
                      double *f_);

double sl_sigmoid(int kind, double eps, double v)
{
    v = v / eps;
    switch (kind) {
    case 0: return v < -1.0 ? -1.0 : (v > 1.0 ? 1.0 : v);
    case 1: return (2.0 / 3.141592653589793) * atan(v);
    case 2: return tanh(v);
    default: return erf(v);
    }
}

int sl_rhs(sl_field *f, double t, const double *y, double *dy)
{
    const int n = f->n;
    const double *x = y;
    double lam = NAN;
    if (f->kind == SL_FIXED)
        lam = f->value;
    else if (f->kind == SL_SIGMOID)
        lam = sl_sigmoid(f->sigmoid, f->value, y[0]);
    else if (f->kind == SL_LAYER) {
        lam = y[0] < -1.0 ? -1.0 : (y[0] > 1.0 ? 1.0 : y[0]);
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
            return -1;
        memcpy(dy, f->f, n * sizeof *dy);
    }
    if (f->kind == SL_LAYER)
        dy[0] = dy[0] / f->value;
    return 0;
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
    const int n = f->n, lam = f->kind >= SL_SIGMOID;
    if (r->len == r->cap) {  /* array("d")'s growth */
        long cap = r->len + 1 + ((r->len + 1) >> 4) + (r->len < 8 ? 3 : 7);
        if (grow(&r->t, cap, 1) || grow(&r->y, cap, n) || (lam && grow(&r->lam, cap, 1)))
            return -1;
        r->cap = cap;
    }
    double *row = r->y + r->len * n;
    r->t[r->len] = t;
    memcpy(row, y, n * sizeof *y);
    if (f->kind == SL_SIGMOID)
        r->lam[r->len] = sl_sigmoid(f->sigmoid, f->value, y[0]);
    else if (f->kind == SL_LAYER) {
        r->lam[r->len] = y[0];
        row[0] = 0.0;
    }
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

/* ---- one run of the step loop ---------------------------------------- */

typedef struct {
    const sl_method *m;
    sl_field *f;
    sl_record *r;
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
    if (!ev->py) {
        *g = ev->c0 + ev->c1 * y[0] + ev->c2 * fabs(y[0]);
        return 0;
    }
    memcpy(L->f->x, y, L->f->n * sizeof *y);
    if (sl_py(ev->py, t, NAN))
        return -1;
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

/* scipy's brentq on g(s) = event(s, hermite(s)) over [xa, xb], where g is
   fa and fb, of strictly opposite signs */
static int localize(sl_loop *L, const sl_event *ev, double xa, const double *ya,
                    const double *fa_, double xb, const double *yb, const double *fb_,
                    double fpre, double fcur, double *root, double *ys)
{
    const double tol = 4 * 2.220446049250313e-16;
    const int n = L->f->n;
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
        const double delta = (tol + tol * fabs(xcur)) / 2, sbis = (xblk - xcur) / 2;
        if (fcur == 0 || fabs(sbis) < delta)
            break;
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
        hermite(n, xa, ya, fa_, xb, yb, fb_, xcur, ys);
        if (event(L, ev, xcur, ys, &fcur))
            return -1;
    }
    *root = xcur;
    return 0;
}

static double hinit(sl_loop *L, double t, const double *y, const double *f0, double *y1,
                    double *f1, double hmax, int *rc)
{
    const int n = L->f->n;
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
    const int n = L->f->n, S = m->stages;
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
                if (g0 != 0.0 && g1 != 0.0
                    && localize(L, ev, t, yold, k[0], xph, ynew, fnew, g0, g1, &tr, ytmp)) {
                    rc = SL_EPY;
                    goto out;
                }
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
        double *dy = malloc(L->f->n * sizeof *dy);
        if (!dy)
            return SL_ENOMEM;
        rc = eval(L, t, y, dy);
        inside = y[0] * dy[0] < 0;
        free(dy);
        if (rc)
            return SL_EPY;
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

int sl_run(sl_field *f, const sl_event *ev, int dop853, double t0, double t1, double *y,
           double rtol, double atol, double hmax, long budget, sl_record *r)
{
    sl_loop L = {dop853 ? &DOP853 : &DOPRI5, f, r, rtol, atol, budget, 0};
    /* Python callbacks run under the GIL, taken once for the run */
    const int python = f->kernel < 0 || (ev && ev->py);
    PyGILState_STATE gil = python ? PyGILState_Ensure() : PyGILState_UNLOCKED;
    int rc = f->kind == SL_SIGMOID ? band(&L, t0, t1, y, hmax) : part(&L, ev, t0, t1, y, hmax);
    if (python)
        PyGILState_Release(gil);
    return rc;
}
