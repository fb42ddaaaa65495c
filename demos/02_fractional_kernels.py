"""Fractional difference kernels and their basic identities.

The Grunwald-Letnikov coefficients define a discrete fractional
difference. Two properties are worth seeing with numbers in hand:
the coefficients sum toward zero slowly (like J**-alpha, which is
why long memory is expensive to truncate), and differencing by
alpha then by -alpha recovers the original series.
"""

import numpy as np

from fracsig import fracdyn


def main():
    alphas = (0.1, 0.3, 0.5, 0.9)
    psi = fracdyn.gl_coefficients(alphas, horizon=10_000)  # one row per order
    for alpha, partial in zip(alphas, np.abs(psi.sum(axis=1))):
        print(f"alpha={alpha:.1f}  |sum of first 1e4 coeffs| = {partial:.4f}")
    print("the slow tail is the reason simulation uses a short horizon\n")

    rng = np.random.default_rng(0)
    x = rng.standard_normal(512)
    d = fracdyn.frac_difference(x, 0.4)
    back = fracdyn.frac_difference(d, -0.4)
    print(f"round trip error after frac diff +0.4 then -0.4: "
          f"{np.abs(back - x).max():.2e}")

    model = fracdyn.FractionalModel(
        alpha=np.array([0.3, 0.5]),
        A=np.array([[-0.3, 0.1], [0.0, -0.25]]),
        noise_scale=1.0,
    )
    X = fracdyn.simulate(model, T=2000, seed=1)  # (channels, samples) array
    stds = X.std(axis=1)
    print(f"simulated 2-channel fractional system, channel stds: "
          f"{stds[0]:.3f}, {stds[1]:.3f}")


if __name__ == "__main__":
    main()
