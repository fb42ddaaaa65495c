"""The record container and CSV/manifest ingestion.

A record is one read-only (n_channels, n_samples) float64 matrix with a
label per row, plus the subject's labels.  Records exist where files are
written or read and where labels are attached; the numeric layers take
and return plain arrays.  CSV layout: one header row with channel
labels, one column per channel, one row per sample, CRLF line ends.
The reader converts blocks of such lines in one pass and walks any
other input cell by cell, to the same matrix or error.  A record carries
no sampling rate (device exports do not either); the one command that
needs it, ``convergence``, takes ``--rate``.  The subject labels come
from the manifest.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

__all__ = [
    "MultichannelRecord",
    "ManifestEntry",
    "load_record",
    "write_record",
    "load_manifest",
    "write_manifest",
    "RecordFormatError",
    "N_STAGES",
]

N_STAGES = 5  # disease stages are labelled 0..N_STAGES - 1


class RecordFormatError(ValueError):
    """Raised when an input file violates the record format contract."""


@dataclass(frozen=True, eq=False)
class MultichannelRecord:
    """One subject's channels as a read-only (n_channels, n_samples) matrix.

    A C-contiguous float64 ``channels`` is viewed, not copied.  ``labels``
    name the rows (default ``ch00, ch01, ...``); ``stage_label`` is the
    disease stage in 0..4, or None for unlabeled records.
    """

    channels: np.ndarray
    labels: tuple[str, ...] | None = None
    subject_id: str = ""
    institution: str = ""
    stage_label: int | None = None

    def __post_init__(self):
        try:
            matrix = np.ascontiguousarray(self.channels, dtype=float).view()
        except (TypeError, ValueError) as exc:
            raise ValueError(f"channels must be equal length numeric rows: {exc}") from None
        if matrix.ndim != 2 or matrix.size == 0:
            raise ValueError(f"channels must be a nonempty 2-D matrix, got shape {matrix.shape}")
        n = matrix.shape[0]
        default = (f"ch{i:02d}" for i in range(n))
        labels = tuple(default if self.labels is None else self.labels)
        if len(labels) != n or len(set(labels)) != n:
            raise ValueError(f"need {n} unique channel labels, got {labels}")
        if not np.isfinite(matrix).all():
            raise ValueError("channel values must be finite")
        if self.stage_label is not None and self.stage_label not in range(N_STAGES):
            raise ValueError(f"stage_label must be in 0..{N_STAGES - 1}")
        matrix.flags.writeable = False
        object.__setattr__(self, "channels", matrix)
        object.__setattr__(self, "labels", labels)

    @property
    def n_channels(self) -> int:
        return self.channels.shape[0]

    @property
    def n_samples(self) -> int:
        return self.channels.shape[1]


# characters of body lines read per block: bounds the text held at once
_READ_BLOCK = 1 << 16


def _parse_block(lines: list[str], ncol: int) -> np.ndarray | None:
    """Row-major values of a block of plain CSV lines, or None.

    A block is plain when every line ends in CRLF, holds no quote and has
    exactly ``ncol - 1`` commas, and every cell converts with ``float()``;
    its cells are then the cells a CSV reader gives.
    """
    # a line's last cell keeps its line end, which float() strips as whitespace
    joined = ",".join(lines)
    if '"' in joined:
        return None
    cells = joined.split(",")
    # a line holds at most one CRLF, at its end, so len(lines) CRLFs in the
    # cells at ncol - 1, 2 ncol - 1, ... end every line after ncol cells
    last = "".join(cells[ncol - 1 :: ncol])
    if len(cells) != ncol * len(lines) or last.count("\r\n") != len(lines):
        return None
    try:
        return np.array(list(map(float, cells)))
    except ValueError:
        return None


def load_record(path) -> MultichannelRecord:
    """Read a record from CSV, without subject labels.

    Header row gives channel labels; every following row holds one sample
    per channel.  Blank or repeated labels, ragged rows, non-numeric cells
    and non-finite values (``nan``, ``inf``) raise
    :class:`RecordFormatError` naming the first offending row/column
    (1-based, header is row 1).

    The body is read in blocks of lines.  A block of plain lines (CRLF
    endings, no quotes, one cell per channel, numbers: what
    :func:`write_record` writes) converts in one pass; from the first
    other block on, a CSV reader walks the cells one by one, and that
    walk alone reports errors.  Both convert each cell with ``float()``.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise RecordFormatError(f"{path}: empty file") from None
        labels = tuple(h.strip() for h in header)
        if not labels or "" in labels:
            raise RecordFormatError(f"{path}: row 1: blank channel label in header")
        for col, label in enumerate(labels):
            first = labels.index(label)
            if first != col:
                raise RecordFormatError(
                    f"{path}: row 1: channel label {label!r} repeated in "
                    f"columns {first + 1} and {col + 1}"
                )
        ncol = len(labels)
        blocks: list[np.ndarray] = []
        rows, walk = 0, ()
        while lines := fh.readlines(_READ_BLOCK):
            block = _parse_block(lines, ncol)
            if block is None:
                walk = csv.reader(chain(lines, fh))
                break
            blocks.append(block)
            rows += len(lines)
        values: list[float] = []
        for rownum, row in enumerate(walk, start=rows + 2):
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
                values.append(value)
        blocks.append(np.array(values))
    matrix = np.concatenate(blocks).reshape(-1, ncol).T.copy()
    if not matrix.size:
        raise RecordFormatError(f"{path}: no data rows after header")
    bad = ~np.isfinite(matrix)
    if bad.any():
        row = int(np.argmax(bad.any(axis=0)))
        col = int(np.argmax(bad[:, row]))
        raise RecordFormatError(
            f"{path}: row {row + 2}, column {col + 1}: "
            f"non-finite value {float(matrix[col, row])!r}"
        )
    return MultichannelRecord(matrix, labels)


_ROWS_PER_WRITE = 1024


def write_record(record: MultichannelRecord, path) -> None:
    """Write a record as CSV (inverse of :func:`load_record`)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(record.labels)
        # The rows csv.writer would give: float reprs never need quoting.
        # Blocks of rows keep the Python floats of a long record out of memory.
        # One template per block costs less than a join per row on narrow records.
        rows = record.channels.T
        line = ",".join(["%r"] * rows.shape[1]) + "\r\n"
        for start in range(0, rows.shape[0], _ROWS_PER_WRITE):
            block = rows[start : start + _ROWS_PER_WRITE]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


@dataclass(frozen=True)
class ManifestEntry:
    """One line of a record manifest: where a record lives and its labels."""

    path: str
    subject_id: str
    institution: str = ""
    stage: int | None = None
    extra: dict = field(default_factory=dict)


_REQUIRED = object()
_KINDS = {str: "a string", int: "an integer", bool: "a JSON boolean", list: "an array"}


def _json_value(item: dict, key: str, kind: type, where: str, default=_REQUIRED):
    """``item[key]`` if it is of the JSON ``kind``, or ``default`` if absent.

    ``kind`` is ``str``, ``int`` (not a bool or a float), ``bool`` or ``list``
    (of numbers, not bools).  A :class:`RecordFormatError` after ``where``
    names the missing field, or the field and its value or first bad element.
    """
    if key not in item:
        if default is _REQUIRED:
            raise RecordFormatError(f"{where}: missing field {key!r}")
        return default
    value = item[key]
    if type(value) is not kind:
        raise RecordFormatError(f"{where}: {key} {value!r} is not {_KINDS[kind]}")
    for i, element in enumerate(value if kind is list else ()):
        if type(element) not in (int, float):
            raise RecordFormatError(f"{where}: {key}[{i}] {element!r} is not a number")
    return value


def _json_stage(item: dict, where: str) -> int:
    """The field ``stage`` of ``item``: an integer in 0..N_STAGES - 1."""
    stage = _json_value(item, "stage", int, where)
    if stage not in range(N_STAGES):
        raise RecordFormatError(f"{where}: stage {stage} is not in 0..{N_STAGES - 1}")
    return stage


def load_manifest(path) -> list[ManifestEntry]:
    """Read a JSON manifest: array of {path, subject_id, institution, stage}.

    Paths, resolved relative to the manifest's directory, subject ids and
    institutions are strings; a stage is an integer in 0..4, null or absent.
    """
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # also an integer over Python's digit limit
            raise RecordFormatError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, list):
        raise RecordFormatError(f"{path}: manifest must be a JSON array")
    entries = []
    for i, item in enumerate(raw):
        where = f"{path}: entry {i}"
        if not isinstance(item, dict):
            raise RecordFormatError(f"{where} is not an object")
        known = {"path", "subject_id", "institution", "stage"}
        entries.append(
            ManifestEntry(
                path=str((path.parent / _json_value(item, "path", str, where)).resolve()),
                subject_id=_json_value(item, "subject_id", str, where),
                institution=_json_value(item, "institution", str, where, default=""),
                stage=None if item.get("stage") is None else _json_stage(item, where),
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
