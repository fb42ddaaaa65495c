"""Fractional-dynamics signal analysis.

Multifractal detrended fluctuation analysis, discrete fractional-order
system identification, synthetic ground-truth generators, a
from-scratch stage classifier on coupling-matrix features, and a
sliding-window early-detection pipeline, plus a command-line front end.

Each submodule is imported by name (``from fracsig import mfdfa``);
``import fracsig`` alone loads nothing.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
