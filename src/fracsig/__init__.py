"""Fractional-dynamics signal analysis.

Multifractal detrended fluctuation analysis, discrete fractional-order
system identification, synthetic ground-truth generators, a
from-scratch stage classifier on coupling-matrix features, and a
sliding-window early-detection pipeline, plus a command-line front end.
"""

from . import classify, fracdyn, mfdfa, records, synth, viral
from .records import (
    ManifestEntry,
    MultichannelRecord,
    RecordFormatError,
    load_manifest,
    load_record,
    write_manifest,
    write_record,
)

__version__ = "0.1.0"

__all__ = [
    "classify",
    "fracdyn",
    "mfdfa",
    "records",
    "synth",
    "viral",
    "MultichannelRecord",
    "ManifestEntry",
    "RecordFormatError",
    "load_record",
    "write_record",
    "load_manifest",
    "write_manifest",
    "__version__",
]
