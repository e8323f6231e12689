"""A forced relay whose switching layer hides a nonlinear oscillator.

Off the surface the cubic and linear relay models are identical: both
switch between -1 and +1.  Inside the layer the cubic model obeys a
forced stiff oscillator whose multiplier amplitude follows the cube root
of the forcing, roughly a^(1/3), while the linear model responds with
amplitude a.  The attractor lives entirely inside the layer -- invisible
in the off-surface state space, but exposed by the layer simulation,
whose segments record the multiplier.

The raw amplitude includes a fast ripple of the stiff layer; averaging
the multiplier over DUFFING_RIPPLE_WINDOW time units removes it, as
acceptance criterion 4 does.  Run time is kept modest here by a shorter
window than a converged amplitude estimate would use.
"""

import numpy as np

from switchlayer import (
    DUFFING_RIPPLE_WINDOW,
    DuffingParams,
    IntegratorConfig,
    integrate_layer_only,
    layer_amplitude,
    make_duffing,
)


def main():
    cfg = IntegratorConfig(rel_tol=1e-5, abs_tol=1e-8, max_step=0.05)
    span, window = (0.0, 120.0), (60.0, 120.0)
    a = DuffingParams().a
    print(f"forcing a = {a}: quasi-static targets  "
          f"a^(1/3) = {a ** (1 / 3):.3f} (cubic),  a = {a:.3f} (linear)\n")

    raw, avg = {}, {}
    for variant in ("nonlinear_cubic", "linear"):
        sys = make_duffing(DuffingParams(variant=variant))
        seg = integrate_layer_only(sys, 0.0, np.array([0.0]), span, cfg,
                                   eps_layer=1e-4)
        raw[variant] = layer_amplitude(seg.t, seg.lam, window)
        avg[variant] = layer_amplitude(seg.t, seg.lam, window,
                                       average=DUFFING_RIPPLE_WINDOW)
        print(f"{variant:>15}: multiplier amplitude {raw[variant]:.3f} raw, "
              f"{avg[variant]:.3f} ripple-averaged")
    print(f"\namplitude ratio: {raw['nonlinear_cubic'] / raw['linear']:.2f} raw, "
          f"{avg['nonlinear_cubic'] / avg['linear']:.2f} ripple-averaged")
    print("the layer stiffness adds a slowly decaying ripple on top of the")
    print("quasi-static value, so raw amplitudes sit above their targets at")
    print("moderate eps and shrink toward them as eps decreases; averaging")
    print(f"over {DUFFING_RIPPLE_WINDOW} time units strips the ripple")


if __name__ == "__main__":
    main()
