"""Multifractal spectrum of a binomial cascade.

A deterministic binomial cascade has a known generalized Hurst
exponent for every moment order q, so it makes a good end-to-end
check of the MF-DFA pipeline: profile, scaling function, per-q
slopes, and the focus point where all regression lines should meet.
"""

import pathlib

import numpy as np

from fracsig import mfdfa, synth

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)


def main():
    measure = synth.synth_cascade(p=0.75, depth=14)  # a plain 1-D array
    y = mfdfa.profile(measure)

    cfg = mfdfa.MfdfaConfig(scale_grid=mfdfa.dyadic_scale_grid(len(y)))
    sf = mfdfa.scaling_function(y, cfg)
    spectrum = mfdfa.hurst_spectrum(sf)
    focus = mfdfa.focus_point(sf, spectrum)

    analytic = synth.cascade_hurst_exponent(0.75, spectrum.q_grid)
    print("q      H(q) est  H(q) exact")
    for q, est, ref in zip(spectrum.q_grid, spectrum.h, analytic):
        print(f"{q:5.1f}  {est:8.4f}  {ref:10.4f}")
    print(f"max |error| = {np.abs(spectrum.h - analytic).max():.4f}")
    print(f"focus spread (max/min of extrapolated values) = {focus.spread:.4f}")

    diag = mfdfa.scaling_diagnostics(sf)
    rows = ["log2_s,std_across_q"]
    for s, v in zip(diag.scale_grid, diag.std_across_q):
        rows.append(f"{np.log2(s):.4f},{v:.6f}")
    (OUT / "cascade_diagnostics.csv").write_text("\n".join(rows) + "\n")
    print(f"wrote {OUT / 'cascade_diagnostics.csv'}")


if __name__ == "__main__":
    main()
