"""How a smoothed switch approaches its outer states, and what that reveals.

Away from the switching threshold every sigmoid saturates, but the decay
law differs by family: tanh and erf approach sign(v) exponentially with
their own (kappa, p, c_n) signatures, while arctan saturates only
algebraically.  Measuring the departure of a trajectory from its outer
state therefore identifies the hidden series coefficients alpha_2 and
alpha_3 of the underlying switched field -- demonstrated here by
generating departure data from known coefficients and recovering them.
"""

import numpy as np

from switchlayer import AsymptoticData, SigmoidSpec, match_alpha23


def main():
    print("tail accuracy at v = 6 eps:")
    for kind in ("tanh", "erf", "arctan_unit"):
        s = SigmoidSpec(kind, eps=0.1)
        v = 6 * s.eps
        exact = s(v)
        order = 1 if kind != "tanh" else 0
        approx = s.tail_expansion(v, order=order)
        print(f"  {kind:>12}: phi = {exact:.10f}, "
              f"tail(order {order}) = {approx:.10f}, "
              f"err = {abs(exact - approx):.2e}")

    for kind in ("tanh", "erf"):
        kappa, p, c = SigmoidSpec(kind, eps=0.1).tail_coefficients()
        print(f"  {kind:>12}: exp(-{kappa:g}|v/eps|^{p:g}), c = "
              + ", ".join(f"{x:+.4f}" for x in c))

    # round trip: known hidden coefficients -> departure data -> recovery
    rng = np.random.default_rng(5)
    fp, fm = rng.normal(size=2), rng.normal(size=2)
    a2, a3 = rng.normal(size=2), rng.normal(size=2)
    c0 = -2.0  # leading tail coefficient of tanh
    gp = 2 * c0 * (a2 + a3) + 0.5 * c0 * (fp - fm)
    gm = 2 * c0 * (a2 - a3) - 0.5 * c0 * (fp - fm)
    data = AsymptoticData(g_plus=gp, g_minus=gm, b0_plus=1.0, b0_minus=1.0, c0=c0)
    got2, got3 = match_alpha23(fp, fm, data)
    print("\nhidden-coefficient recovery from departure asymptotics:")
    print(f"  alpha_2: true {a2}, recovered {got2}")
    print(f"  alpha_3: true {a3}, recovered {got3}")


if __name__ == "__main__":
    main()
