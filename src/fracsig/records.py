"""Time-series containers and CSV/manifest ingestion.

A record is a stack of equally sampled channels.  CSV layout: one header
row with channel labels, one column per channel, one row per sample.
Sampling rate is supplied out of band (device exports do not carry it).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "TimeSeries",
    "MultichannelRecord",
    "ManifestEntry",
    "load_record",
    "write_record",
    "load_manifest",
    "write_manifest",
    "RecordFormatError",
]


class RecordFormatError(ValueError):
    """Raised when an input file violates the record format contract."""


@dataclass(frozen=True)
class TimeSeries:
    """A single uniformly sampled channel."""

    samples: np.ndarray
    rate_hz: float
    label: str = ""

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if not (self.rate_hz > 0):
            raise ValueError("rate_hz must be positive")

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class MultichannelRecord:
    """Equal-length, equal-rate channels from one subject.

    ``stage_label`` is the disease stage in 0..4, or None for unlabeled
    records.
    """

    channels: tuple[TimeSeries, ...]
    subject_id: str = ""
    institution: str = ""
    stage_label: int | None = None

    def __post_init__(self):
        channels = tuple(self.channels)
        object.__setattr__(self, "channels", channels)
        if len(channels) < 1:
            raise ValueError("record needs at least one channel")
        n0 = len(channels[0])
        rate = channels[0].rate_hz
        for ch in channels[1:]:
            if len(ch) != n0:
                raise ValueError("all channels must have equal length")
            if ch.rate_hz != rate:
                raise ValueError("all channels must share one sampling rate")
        labels = [ch.label for ch in channels]
        if len(set(labels)) != len(labels):
            raise ValueError("channel labels must be unique")
        if self.stage_label is not None and self.stage_label not in range(5):
            raise ValueError("stage_label must be in 0..4")

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def n_samples(self) -> int:
        return len(self.channels[0])

    @property
    def rate_hz(self) -> float:
        return self.channels[0].rate_hz

    def as_matrix(self) -> np.ndarray:
        """Channel-major (n_channels, n_samples) float matrix."""
        return np.stack([ch.samples for ch in self.channels])

    def labels(self) -> list[str]:
        return [ch.label for ch in self.channels]


def load_record(
    path,
    rate_hz: float,
    *,
    subject_id: str = "",
    institution: str = "",
    stage_label: int | None = None,
) -> MultichannelRecord:
    """Read a record from CSV.

    Header row gives channel labels; every following row holds one sample
    per channel.  Ragged rows, non-numeric cells and non-finite values
    (``nan``, ``inf``) raise :class:`RecordFormatError` naming the first
    offending row/column (1-based, header is row 1).
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise RecordFormatError(f"{path}: empty file") from None
        if not header or any(h.strip() == "" for h in header):
            raise RecordFormatError(f"{path}: row 1: blank channel label in header")
        ncol = len(header)
        columns: list[list[float]] = [[] for _ in header]
        for rownum, row in enumerate(reader, start=2):
            if len(row) != ncol:
                raise RecordFormatError(
                    f"{path}: row {rownum}: expected {ncol} columns, got {len(row)}"
                )
            for colnum, cell in enumerate(row, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise RecordFormatError(
                        f"{path}: row {rownum}, column {colnum}: "
                        f"non-numeric value {cell!r}"
                    ) from None
                columns[colnum - 1].append(value)
        if not columns[0]:
            raise RecordFormatError(f"{path}: no data rows after header")
    matrix = np.array(columns)
    bad = ~np.isfinite(matrix)
    if bad.any():
        row = int(np.argmax(bad.any(axis=0)))
        col = int(np.argmax(bad[:, row]))
        raise RecordFormatError(
            f"{path}: row {row + 2}, column {col + 1}: "
            f"non-finite value {float(matrix[col, row])!r}"
        )
    channels = tuple(
        TimeSeries(samples, rate_hz, label=label.strip())
        for label, samples in zip(header, matrix)
    )
    return MultichannelRecord(channels, subject_id, institution, stage_label)


def write_record(record: MultichannelRecord, path) -> None:
    """Write a record as CSV (inverse of :func:`load_record`)."""
    path = Path(path)
    matrix = record.as_matrix().T
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(record.labels())
        for row in matrix:
            writer.writerow([repr(float(v)) for v in row])


@dataclass(frozen=True)
class ManifestEntry:
    """One line of a record manifest: where a record lives and its labels."""

    path: str
    subject_id: str
    institution: str = ""
    stage: int | None = None
    extra: dict = field(default_factory=dict)


_MANIFEST_REQUIRED = ("path", "subject_id")


def load_manifest(path) -> list[ManifestEntry]:
    """Read a JSON manifest: array of {path, subject_id, institution, stage}.

    Paths are resolved relative to the manifest's directory.
    """
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise RecordFormatError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, list):
        raise RecordFormatError(f"{path}: manifest must be a JSON array")
    entries = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise RecordFormatError(f"{path}: entry {i} is not an object")
        for key in _MANIFEST_REQUIRED:
            if key not in item:
                raise RecordFormatError(f"{path}: entry {i} missing field {key!r}")
        rec_path = str((path.parent / item["path"]).resolve())
        known = {"path", "subject_id", "institution", "stage"}
        entries.append(
            ManifestEntry(
                path=rec_path,
                subject_id=str(item["subject_id"]),
                institution=str(item.get("institution", "")),
                stage=None if item.get("stage") is None else int(item["stage"]),
                extra={k: v for k, v in item.items() if k not in known},
            )
        )
    return entries


def write_manifest(entries, path) -> None:
    path = Path(path)
    payload = []
    for e in entries:
        item = {"path": e.path, "subject_id": e.subject_id}
        if e.institution:
            item["institution"] = e.institution
        if e.stage is not None:
            item["stage"] = e.stage
        item.update(e.extra)
        payload.append(item)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
