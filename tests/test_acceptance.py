"""Acceptance suite: one test per shipped criterion, each printing a
single PASS/FAIL line with the measured values.

Criterion 3 checks the relay circuit's layer saddle against the closed
form I = Vb / (R p(V0/Vb)) and against the stated currents 1.92 (sigma =
0) and 576/275 (sigma = 1/2), then the two hybrid runs.  Criterion 4
checks the forced relay's hidden oscillator: the layer amplitudes, with
the fast in-layer ripple averaged out, against their quasi-static bands,
and the sigmoid-regularized run against the layer run at the same eps.
"""

import time

import numpy as np
import pytest

from switchlayer import (
    SURFACE_TOL,
    IntegratorConfig,
    SeriesExpansion,
    SigmoidSpec,
    DUFFING_RIPPLE_WINDOW,
    CircuitParams,
    DuffingParams,
    circuit_iv_to_state,
    eval_field,
    find_layer_equilibria,
    find_sliding_modes,
    hidden_term,
    integrate_hybrid,
    integrate_layer_only,
    integrate_regularized,
    layer_amplitude,
    make_circuit,
    make_duffing,
    make_example1,
    make_example2,
    mu_of_lambda,
    to_hidden_form,
)

from fields import tautology


class Criterion:
    def __init__(self, number, title):
        self.number = number
        self.title = title
        self.failures = []
        self.t0 = time.perf_counter()

    def check(self, ok, detail):
        if not ok:
            self.failures.append(detail)

    def finish(self, budget):
        elapsed = time.perf_counter() - self.t0
        self.check(elapsed < budget,
                   f"runtime {elapsed:.1f}s exceeds the {budget}s budget")
        status = "PASS" if not self.failures else "FAIL"
        print(f"criterion {self.number} [{self.title}]: {status} "
              f"({elapsed:.1f}s)")
        for f in self.failures:
            print(f"  - {f}")
        assert not self.failures, "; ".join(self.failures)


def test_criterion_1_planar_relay_dichotomy():
    c = Criterion(1, "planar relay dichotomy")
    for variant, want_slide in (("filippov", -1.0), ("nonlinear", 1.0)):
        sys = make_example1(variant)
        roots = find_sliding_modes(sys, np.array([0.0]))
        c.check(len(roots) == 1 and abs(roots[0].lam_s) < 1e-10,
                f"{variant}: expected a single root at 0, got "
                f"{[r.lam_s for r in roots]}")
        if roots:
            got = roots[0].sliding_field[0]
            c.check(abs(got - want_slide) < 1e-12,
                    f"{variant}: sliding speed {got}, expected {want_slide}")
        sig = SigmoidSpec("piecewise_linear", eps=1e-3)
        seg = integrate_regularized(sys, sig, np.array([0.0, 0.0]), (0.0, 1.0))
        slope = (seg.x[-1, 1] - seg.x[0, 1]) / (seg.t[-1] - seg.t[0])
        c.check(abs(slope - want_slide) < 1e-2,
                f"{variant}: regularized dx2/dt = {slope:.6f}, "
                f"expected {want_slide} +- 1e-2")
    c.finish(budget=1.0)


def test_criterion_2_apparent_continuity_dichotomy():
    c = Criterion(2, "apparently-continuous dichotomy")
    roots = find_sliding_modes(make_example2("nonlinear"), np.array([0.0]))
    want = 1 / np.sqrt(2)
    c.check(len(roots) == 2, f"expected 2 roots, got {len(roots)}")
    if len(roots) == 2:
        c.check(abs(roots[0].lam_s + want) < 1e-10,
                f"lower root {roots[0].lam_s}, expected {-want}")
        c.check(abs(roots[1].lam_s - want) < 1e-10,
                f"upper root {roots[1].lam_s}, expected {want}")
        for r in roots:
            c.check(abs(r.sliding_field[0] - 1.0) < 1e-9,
                    f"sliding speed {r.sliding_field[0]}, expected 1")
    cont = find_sliding_modes(make_example2("continuous"), np.array([0.0]))
    c.check(cont == [], f"continuous variant returned roots {cont}")
    c.finish(budget=1.0)


def test_criterion_3_circuit_saddle_shift():
    c = Criterion(3, "relay circuit saddle shift")
    cfg = IntegratorConfig(max_step=0.05)
    # At rest mu = V0/Vb = 5/6 and I R p(mu) = Vb.  With R = 15/4, Vb = 6:
    # sigma = 0 gives p = 5/6 and I = 1.92; sigma = 1/2 gives
    # p = 5/6 - (1/2)(1/6)(5/6) = 55/72 and I = 1.92 * 12/11 = 576/275.
    for sigma, i_target in ((0.0, 1.92), (0.5, 576 / 275)):
        p = CircuitParams(sigma=sigma)
        eqs = find_layer_equilibria(make_circuit(p), [(-1, 1), (0, 30)])
        c.check(len(eqs) == 1, f"sigma={sigma}: {len(eqs)} equilibria found")
        if eqs:
            mu = mu_of_lambda(eqs[0].lam_e)
            i_found = eqs[0].x_rest[0]
            c.check(abs(mu - 5 / 6) < 1e-6,
                    f"sigma={sigma}: mu = {mu}, expected 5/6")
            # consistency with the closed-form rest point
            mu_cf, i_cf = p.saddle()
            c.check(abs(i_found - i_cf) < 1e-6,
                    f"sigma={sigma}: I = {i_found} vs closed form {i_cf}")
            c.check(abs(i_found - i_target) < 1e-6,
                    f"sigma={sigma}: I = {i_found:.10f}, stated target "
                    f"{i_target} (closed form gives {i_cf:.10f})")
            c.check(eqs[0].classification == "saddle",
                    f"sigma={sigma}: classified {eqs[0].classification}")

    p0 = CircuitParams()
    h0 = integrate_hybrid(make_circuit(p0), circuit_iv_to_state(0, 0, p0),
                          (0.0, 20.0), cfg)
    slides = [s for s in h0.segments if s.regime == "sliding"]
    c.check(len(slides) == 1, f"sigma=0: {len(slides)} sliding segments")
    if slides:
        i_vals = slides[0].x[:, 1]
        c.check(bool(np.all(np.diff(i_vals) > 0)),
                "sigma=0: current not monotone increasing on the slide")
        c.check(i_vals[-1] > 5.0 > i_vals[0],
                f"sigma=0: slide current spans [{i_vals[0]:.3f}, "
                f"{i_vals[-1]:.3f}], expected to pass through 5")
        c.check(float(np.max(np.abs(slides[0].x[:, 0]))) < 1e-6,
                "sigma=0: voltage left the switching threshold on the slide")

    p5 = CircuitParams(sigma=0.5)
    h5 = integrate_hybrid(make_circuit(p5), circuit_iv_to_state(0, 0, p5),
                          (0.0, 200.0), cfg)
    kinds = [k for _, k in h5.transitions]
    c.check("exit_slide" in kinds, f"sigma=1/2: transitions {kinds}")
    slides5 = [s for s in h5.segments if s.regime == "sliding"]
    if slides5:
        i_exit = slides5[0].x[-1, 1]
        c.check(abs(i_exit - 1.6) < 1e-3,
                f"sigma=1/2: slide exits at I = {i_exit:.6f}, expected 1.6")
    i_fin, v_fin = h5.x_final[1], p5.Vb - h5.x_final[0]
    c.check(abs(i_fin - 4 / 3) < 1e-3 and abs(v_fin - 5.0) < 1e-3,
            f"sigma=1/2: final (I, V) = ({i_fin:.6f}, {v_fin:.6f}), "
            "expected (4/3, 5) +- 1e-3")
    c.finish(budget=10.0)


def test_criterion_4_forced_oscillator_amplitudes():
    c = Criterion(4, "hidden oscillator amplitudes")
    cfg = IntegratorConfig(rel_tol=1e-5, abs_tol=1e-8, max_step=0.05)
    t_span, window = (0.0, 500.0), (250.0, 500.0)

    # the bands are quasi-static (eps -> 0) amplitudes: a^(1/3) for the
    # cubic, a for the linear layer; the raw amplitude also carries the
    # fast in-layer ripple, so the bands apply to the ripple average
    layer_amp = {}
    for variant in ("nonlinear_cubic", "linear"):
        sys = make_duffing(DuffingParams(variant=variant))
        seg = integrate_layer_only(sys, 0.0, np.array([0.0]), t_span, cfg,
                                   eps_layer=1e-5)
        raw = layer_amplitude(seg.t, seg.lam, window)
        avg = layer_amplitude(seg.t, seg.lam, window,
                              average=DUFFING_RIPPLE_WINDOW)
        layer_amp[variant] = (avg, raw)
    (nl, nl_raw), (lin, lin_raw) = layer_amp["nonlinear_cubic"], layer_amp["linear"]
    c.check(0.45 <= nl <= 0.61,
            f"layer amplitude {nl:.4f} (raw {nl_raw:.4f}) outside [0.45, 0.61] "
            "(cube-root-of-forcing target)")
    c.check(0.135 <= lin <= 0.165,
            f"linear layer amplitude {lin:.4f} (raw {lin_raw:.4f}) outside "
            "[0.135, 0.165]")
    c.check(2.5 <= nl / lin <= 4.5,
            f"layer amplitude ratio {nl / lin:.3f} outside [2.5, 4.5]")

    # With x1 = eps lam the piecewise-linear regularization is the layer
    # system at eps_layer = eps plus a -c x1 term that damps the ripple
    # (measured gap 2.4%); swapping the variants would miss by a factor 5.
    reg_tol = 0.05
    reg_amp, ref_amp = {}, {}
    sig = SigmoidSpec("piecewise_linear", eps=1e-2)
    for variant in ("nonlinear_cubic", "linear"):
        sys = make_duffing(DuffingParams(variant=variant))
        seg = integrate_regularized(sys, sig, np.array([0.0, 0.0]), t_span, cfg)
        reg_amp[variant] = layer_amplitude(seg.t, seg.lam, window)
        ref = integrate_layer_only(sys, 0.0, np.array([0.0]), t_span, cfg,
                                   eps_layer=sig.eps)
        ref_amp[variant] = layer_amplitude(ref.t, ref.lam, window)
        gap = abs(reg_amp[variant] / ref_amp[variant] - 1.0)
        c.check(gap <= reg_tol,
                f"{variant}: regularized amplitude {reg_amp[variant]:.4f} vs "
                f"layer {ref_amp[variant]:.4f} at eps = {sig.eps}, "
                f"relative gap {gap:.3f} > {reg_tol}")
    ratio = reg_amp["nonlinear_cubic"] / reg_amp["linear"]
    ref_ratio = ref_amp["nonlinear_cubic"] / ref_amp["linear"]
    c.check(abs(ratio / ref_ratio - 1.0) <= reg_tol,
            f"regularized amplitude ratio {ratio:.3f} vs layer ratio "
            f"{ref_ratio:.3f} at eps = {sig.eps}")
    c.finish(budget=60.0)


def test_criterion_5_property_suites():
    c = Criterion(5, "structural property suites")
    rng = np.random.default_rng(2024)

    factories = [
        lambda: make_example1("filippov"),
        lambda: make_example1("nonlinear"),
        lambda: make_example2("continuous"),
        lambda: make_example2("nonlinear"),
        lambda: make_circuit(CircuitParams(sigma=0.5)),
        lambda: make_duffing(),
    ]
    for factory in factories:
        sys = factory()
        bad = 0
        for _ in range(1000):
            x = rng.normal(size=sys.dim)
            t = float(rng.uniform(0, 10))
            for lam in (1.0, -1.0):
                if np.any(hidden_term(sys, x, lam, t=t) != 0.0):
                    bad += 1
        c.check(bad == 0, f"hidden term non-zero at lam = +-1 in {bad} samples")

    # series round trip through the factored hidden form
    for _ in range(20):
        order = int(rng.integers(2, 7))
        vecs = [rng.normal(size=2) for _ in range(order + 1)]
        e = SeriesExpansion(tuple((lambda v: (lambda x: v))(v) for v in vecs))
        sys = to_hidden_form(e, dim=2)
        x = rng.normal(size=2)
        for lam in np.linspace(-1, 1, 9):
            power_sum = sum(float(lam) ** n * v for n, v in enumerate(vecs))
            err = np.max(np.abs(eval_field(sys, x, float(lam)) - power_sum))
            c.check(err < 1e-12, f"series round-trip error {err:.2e}")

    # sliding solver against a companion-matrix polynomial root oracle
    mismatches = 0
    for _ in range(100):
        deg = int(rng.integers(1, 6))
        coeffs = rng.normal(size=deg + 1)
        e = SeriesExpansion(tuple(
            (lambda cc: (lambda x: np.array([cc, 0.0])))(cc) for cc in coeffs))
        sys = to_hidden_form(e, dim=2)
        got = sorted(r.lam_s for r in find_sliding_modes(sys, np.array([0.0])))
        roots = np.roots(coeffs[::-1])
        real = np.sort(roots[np.abs(roots.imag) < 1e-9].real)
        expected = [r for r in real if abs(r) <= 1.0]
        if len(got) != len(expected) or any(
                abs(a - b) > 1e-8 for a, b in zip(got, expected)):
            mismatches += 1
    c.check(mismatches == 0,
            f"sliding solver disagreed with the root oracle on "
            f"{mismatches}/100 polynomial fields")

    # sign-test reduction for plain convex combinations
    sign_bad = 0
    for _ in range(100):
        fp, fm = rng.normal(size=2), rng.normal(size=2)
        sys = tautology(fp, fm)
        roots = find_sliding_modes(sys, np.array([0.0]))
        if fp[0] * fm[0] < 0:
            ok = (len(roots) == 1 and roots[0].stability
                  == ("attracting" if fp[0] < 0 else "repelling"))
        else:
            ok = all(abs(r.lam_s) <= 1.0 for r in roots)
        sign_bad += 0 if ok else 1
    c.check(sign_bad == 0,
            f"sign test disagreed on {sign_bad}/100 linear fields")

    # hybrid transition continuity
    runs = [
        (make_example2("nonlinear"), np.array([-0.3, 0.0]), (0.0, 1.0)),
        (make_circuit(CircuitParams(sigma=0.5)),
         circuit_iv_to_state(0, 0, CircuitParams(sigma=0.5)), (0.0, 20.0)),
    ]
    for sys, x0, span in runs:
        traj = integrate_hybrid(sys, x0, span,
                                IntegratorConfig(max_step=0.05))
        tol = SURFACE_TOL
        for prev, nxt in zip(traj.segments, traj.segments[1:]):
            gap = float(np.linalg.norm(nxt.x[0] - prev.x_final))
            c.check(gap <= 10 * tol,
                    f"transition jump {gap:.2e} exceeds 10 x tolerance")
    c.finish(budget=30.0)


def test_criterion_6_regularization_convergence():
    c = Criterion(6, "regularization preserves each model")
    eps_values = (1e-1, 1e-2, 1e-3)
    noise_floor = 1e-9
    for variant, layer_x2 in (("nonlinear", 1.0), ("filippov", -1.0)):
        sys = make_example1(variant)
        errs = []
        for eps in eps_values:
            sig = SigmoidSpec("piecewise_linear", eps=eps)
            seg = integrate_regularized(sys, sig, np.array([0.0, 0.0]),
                                        (0.0, 1.0))
            errs.append(abs(seg.x[-1, 1] - layer_x2))
        for a, b in zip(errs, errs[1:]):
            c.check(b <= a + noise_floor,
                    f"{variant}: errors {errs} not decreasing in eps")
        c.check(errs[-1] < 1e-6,
                f"{variant}: finest-eps error {errs[-1]:.2e} has not "
                f"converged to the surface prediction x2(1) = {layer_x2}")
    c.finish(budget=5.0)
