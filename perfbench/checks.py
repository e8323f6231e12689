"""Correctness checks computed apart from the program.

Every reference here comes from a closed form of the published systems,
from a property the method must have, or from scipy's own ``solve_ivp``
on a one-dimensional reduced equation; none of it calls switchlayer.
Each check returns a list of problems (empty when the answer is right).
``self_test`` feeds the checks known-wrong answers and reports every
check that fails to reject one.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

# published relay-circuit constants (R = 15/4, RC = 5/2)
R, L, V0, VB = 3.75, 5.0, 5.0, 6.0
I_EXIT = VB / R  # a slide leaves the layer at lam = +1, where p(mu) = 1
STATED_SADDLE_CURRENT = {0.0: 1.92, 0.5: 576 / 275}

# forced relay: quasi-static bands around a^(1/3) = 0.531 and a = 0.15
DUFFING_A, DUFFING_B, DUFFING_C = 0.15, 0.05, 0.1
CUBIC_BAND = (0.45, 0.61)
LINEAR_BAND = (0.135, 0.165)
RATIO_BAND = (2.5, 4.5)
REG_GAP = 0.05
RIPPLE_SPAN = 0.3


# -- relay circuit ------------------------------------------------------


def circuit_mu(current, sigma):
    """Root mu in [0, 1] of sigma mu^2 + (1 - sigma) mu = Vb / (I R).

    Written in the rationalised form 2c / ((1 - sigma) + sqrt(D)), which
    is the root that p(mu) = mu - sigma (1 - mu) mu maps onto [0, 1] for
    every |sigma| < 1 and reduces to c at sigma = 0.
    """
    c = VB / (np.asarray(current, dtype=float) * R)
    disc = (1.0 - sigma) ** 2 + 4.0 * sigma * c
    return 2.0 * c / ((1.0 - sigma) + np.sqrt(disc))


def circuit_lambda(current, sigma):
    return 2.0 * circuit_mu(current, sigma) - 1.0


def circuit_saddle_current(sigma):
    """Layer saddle current Vb / (R p(V0/Vb)): 1.92 at 0, 576/275 at 1/2."""
    mu = V0 / VB
    return VB / (R * (mu - sigma * (1.0 - mu) * mu))


def circuit_slide_rate(current, sigma):
    """dI/dt on the surface (V = Vb) with the switch at its sliding value."""
    return (V0 - circuit_mu(current, sigma) * VB) / L


def circuit_slide_current(i0, t_end, sigma):
    """I(t_end) of the reduced sliding equation, by scipy's RK45."""
    sol = solve_ivp(lambda t, y: [circuit_slide_rate(y[0], sigma)],
                    (0.0, t_end), [i0], rtol=1e-12, atol=1e-12)
    return float(sol.y[0, -1])


def check_circuit_slides(segments, sigma, tol=1e-8):
    """lam_s on every sliding sample equals the closed-form root."""
    out = []
    for seg in segments:
        if seg.regime != "sliding":
            continue
        current = seg.x[:, 1]
        if np.any(current <= 0):
            out.append(f"sigma={sigma}: sliding with I <= 0")
            continue
        want = circuit_lambda(current, sigma)
        err = float(np.max(np.abs(seg.lam - want)))
        if err > tol:
            out.append(f"sigma={sigma}: sliding lambda off the closed form by {err:.2e}")
        off = float(np.max(np.abs(seg.x[:, 0])))
        if off > 1e-9:
            out.append(f"sigma={sigma}: sliding state off the surface by {off:.2e}")
    return out


def check_continuity(segments, tol=1e-8):
    """Each segment starts where the previous one ended."""
    out = []
    for prev, nxt in zip(segments, segments[1:]):
        gap = float(np.linalg.norm(nxt.x[0] - prev.x[-1]))
        if gap > tol:
            out.append(f"transition jump {gap:.2e} at t={prev.t[-1]:.6g}")
        if nxt.t[0] != prev.t[-1]:
            out.append(f"time gap between segments at t={prev.t[-1]:.6g}")
    return out


def check_slide_exits(traj):
    """A slide that leaves through lam = +1 does so at I = Vb / R."""
    out = []
    for seg in traj.segments:
        if seg.regime == "sliding" and seg.t[-1] < traj.t_final and seg.lam[-1] > 0:
            if abs(seg.x[-1, 1] - I_EXIT) > 1e-3:
                out.append(f"slide exits at I = {seg.x[-1, 1]:.6f}, expected {I_EXIT}")
    return out


def check_saddle(eqs, sigma):
    """One saddle at mu = V0/Vb and the closed-form current."""
    if len(eqs) != 1:
        return [f"sigma={sigma}: {len(eqs)} layer equilibria, expected 1"]
    eq = eqs[0]
    want = circuit_saddle_current(sigma)
    out = []
    if abs(eq.x_rest[0] - want) > 1e-6:
        out.append(f"sigma={sigma}: saddle I = {eq.x_rest[0]:.10f}, closed form {want:.10f}")
    stated = STATED_SADDLE_CURRENT.get(sigma)
    if stated is not None and abs(eq.x_rest[0] - stated) > 1e-6:
        out.append(f"sigma={sigma}: saddle I = {eq.x_rest[0]:.10f}, stated {stated}")
    if abs(eq.lam_e - (2.0 * V0 / VB - 1.0)) > 1e-6:
        out.append(f"sigma={sigma}: saddle lambda {eq.lam_e}, expected 2/3")
    if eq.classification != "saddle":
        out.append(f"sigma={sigma}: classified {eq.classification}")
    return out


def check_sliding_rows(rows, sigma, currents):
    """CLI ``sliding`` rows on the circuit against the closed form.

    rows are (I, lambda_s, stability, slide_dI); a grid point has exactly
    one attracting root when Vb / (I R) lies in (0, 1) and none otherwise.
    """
    out = []
    want_points = [float(i) for i in currents if i > 0 and VB / (i * R) < 1.0]
    got_points = [r[0] for r in rows]
    if len(got_points) != len(want_points) or any(
            abs(a - b) > 1e-12 for a, b in zip(got_points, want_points)):
        return [f"sigma={sigma}: roots at {len(got_points)} grid points, "
                f"expected {len(want_points)}"]
    for cur, lam, stab, rate in rows:
        want = float(circuit_lambda(cur, sigma))
        if abs(lam - want) > 1e-9:
            out.append(f"sigma={sigma}, I={cur}: lambda_s {lam} vs closed form {want}")
        if stab != "attracting":
            out.append(f"sigma={sigma}, I={cur}: stability {stab}")
        want_rate = float(circuit_slide_rate(cur, sigma))
        if abs(rate - want_rate) > 1e-9:
            out.append(f"sigma={sigma}, I={cur}: slide dI/dt {rate} vs {want_rate}")
    return out


def check_eps_convergence(errors):
    """x2(1) errors fall with eps; a decade of eps buys at least 5x."""
    if any(b > a / 5.0 for a, b in zip(errors, errors[1:])):
        return [f"x2(1) errors {['%.2e' % e for e in errors]} do not decrease with eps"]
    return []


# -- planar examples ----------------------------------------------------


def check_constant_slide(traj, lam_want, rate_want):
    """Every sliding sample sits at lam_want and x2 moves at rate_want."""
    slides = [s for s in traj.segments if s.regime == "sliding"]
    if not slides:
        return ["no sliding segment"]
    out = []
    for seg in slides:
        err = float(np.max(np.abs(seg.lam - lam_want)))
        if err > 1e-9:
            out.append(f"sliding lambda off {lam_want:.6f} by {err:.2e}")
        rate = (seg.x[-1, 1] - seg.x[0, 1]) / (seg.t[-1] - seg.t[0])
        if abs(rate - rate_want) > 1e-9:
            out.append(f"sliding dx2/dt = {rate}, expected {rate_want}")
    return out


# -- forced relay -------------------------------------------------------


def ripple_average_amplitude(t, lam, window, span=RIPPLE_SPAN):
    """Half peak-to-peak of the lam running mean over spans of ``span``.

    The mean over [c - span/2, c + span/2] is the difference of the
    trapezoid integral of lam at the two ends, for centres c every
    span/10 inside the window.
    """
    t = np.asarray(t, dtype=float)
    lam = np.asarray(lam, dtype=float)
    integral = np.zeros_like(t)
    np.cumsum(0.5 * (lam[1:] + lam[:-1]) * np.diff(t), out=integral[1:])
    centres = np.arange(window[0] + 0.5 * span, window[1] - 0.5 * span, 0.1 * span)
    means = (np.interp(centres + 0.5 * span, t, integral)
             - np.interp(centres - 0.5 * span, t, integral)) / span
    return 0.5 * float(means.max() - means.min())


def raw_amplitude(t, lam, window):
    sel = lam[(t >= window[0]) & (t <= window[1])]
    return 0.5 * float(sel.max() - sel.min())


def linear_response(eps, regularized):
    """Complex amplitude A of the linear variant's forced orbit Re(A e^(it)).

    Layer system (eps lam' = x2): eps lam'' + b eps lam' + lam = a cos t.
    Piecewise-linear regularization (x1 = eps lam) adds -c x1:
    eps lam'' + eps (b + c) lam' + (1 + eps b c) lam = a cos t.
    """
    a, b, c = DUFFING_A, DUFFING_B, DUFFING_C
    if regularized:
        return a / (1.0 + eps * b * c - eps + 1j * eps * (b + c))
    return a / (1.0 - eps + 1j * eps * b)


def linear_steady_state(eps, t0, regularized):
    """(lam, x2) on the forced orbit of the linear variant at time t0."""
    z = linear_response(eps, regularized) * complex(math.cos(t0), math.sin(t0))
    lam, dlam = z.real, (1j * z).real
    return lam, eps * (dlam + (DUFFING_C * lam if regularized else 0.0))


def check_layer_amplitudes(cubic, linear):
    """Ripple-averaged layer amplitudes inside their quasi-static bands."""
    out = []
    if not CUBIC_BAND[0] <= cubic <= CUBIC_BAND[1]:
        out.append(f"cubic layer amplitude {cubic:.4f} outside {CUBIC_BAND}")
    if not LINEAR_BAND[0] <= linear <= LINEAR_BAND[1]:
        out.append(f"linear layer amplitude {linear:.4f} outside {LINEAR_BAND}")
    if not RATIO_BAND[0] <= cubic / linear <= RATIO_BAND[1]:
        out.append(f"layer amplitude ratio {cubic / linear:.3f} outside {RATIO_BAND}")
    return out


def check_matched(name, reg, ref, tol=REG_GAP):
    """A regularized amplitude within tol of the layer run at matched eps."""
    gap = abs(reg / ref - 1.0)
    if gap > tol:
        return [f"{name}: regularized amplitude {reg:.4f} vs layer {ref:.4f}, gap {gap:.3f}"]
    return []


def check_near(name, got, want, rel):
    if abs(got / want - 1.0) > rel:
        return [f"{name}: {got:.5f} vs closed form {want:.5f}"]
    return []


# -- lambda roots -------------------------------------------------------


def check_roots(found, expected, tol):
    """Found root set equals the roots a field was built from."""
    found = sorted(found)
    expected = sorted(expected)
    if len(found) != len(expected) or any(
            abs(a - b) > tol for a, b in zip(found, expected)):
        return [f"roots {['%.9f' % r for r in found]}, built from "
                f"{['%.9f' % r for r in expected]}"]
    return []


# -- self-test ----------------------------------------------------------


def self_test(cases):
    """Names of the checks that accepted a known-wrong answer.

    ``cases`` maps a name to the problem list a check returned on a
    deliberately wrong input; an empty list means the check let it pass.
    """
    return [name for name, problems in cases.items() if not problems]
