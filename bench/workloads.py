"""The benchmark workloads: one pass of each, with its output checks.

A pass drives the program through ``fracsig.cli.main`` and public
library calls only, and writes every output under one directory.  Each
operation (one CLI invocation or library call) is recorded as passed or
failed; an output check that does not hold fails the operation whose
output it reads.  The bounds are those of ``tests/test_acceptance.py``.

Why these two workloads: the program's two arms put their cost in
different modules, so one workload cannot show where a change helped.

- ``cohort``: the README stage pipeline (synth cohort -> extract ->
  train k-fold).  Many short records written and read back; the work is
  in ``synth`` (stability check, simulation), ``records`` I/O,
  one-row DFA calls and ``classify.mlp_train``.  ``viral`` is idle.
- ``viral``: the early-detection sweep (synth viral -> viral).  Batched
  ``mfdfa.dfa_exponents`` over sliding windows dominates; ``classify``
  and the fractional-system simulation are idle.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from fracsig import cli

# cohort: records keep the README shape (12 channels x 2000 samples);
# the count is scaled down from 40 per class to keep a pass short.
COHORT_PER_CLASS = 16
COHORT_CHANNELS = 12
COHORT_SAMPLES = 2000
COHORT_MIN_ACCURACY = 0.95  # criterion 8

# viral: the CLI defaults (18 subjects x 3 channels x 8400 samples).
VIRAL_SUBJECTS = 18
VIRAL_INFECTED = 11
VIRAL_SHIFTS = (-200, -100, 0, 100, 200)
VIRAL_MAX_ERRORS_AT_SHIFT0 = 3  # criterion 10

OPERATIONS = {
    "cohort": 3,
    "viral": 2,
}


class Abort(Exception):
    """An operation failed in a way that leaves later operations no input."""


class Pass:
    """One run of a workload: records operation outcomes and quality values."""

    def __init__(self, out: Path, span):
        self.out = out
        self.span = span
        self.failures: list[str] = []
        self.succeeded = 0
        self.quality: dict[str, float] = {}

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        if ok:
            self.succeeded += 1
        else:
            self.failures.append(f"{name}: {detail}")

    def cli(self, argv: list[str], check=None) -> None:
        """Run one CLI command; ``check()`` returns an error text or None."""
        command = f"synth_{argv[1]}" if argv[0] == "synth" else argv[0]
        with self.span(f"cli.{command}"):
            code = cli.main(argv)
        if code != 0:
            self.record(command, False, f"exit code {code}")
            raise Abort(command)
        problem = check() if check else None
        self.record(command, problem is None, problem or "")


def _csv_rows(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def cohort(p: Pass, seed: int) -> None:
    out = p.out
    p.cli(["synth", "cohort", "--per-class", str(COHORT_PER_CLASS),
           "--channels", str(COHORT_CHANNELS), "--samples", str(COHORT_SAMPLES),
           "--seed", str(seed), "--out-dir", str(out / "cohort")])
    p.cli(["extract", str(out / "cohort" / "manifest.json"),
           "--out", str(out / "features.jsonl")])

    def accuracy():
        summary = json.loads((out / "run" / "summary.json").read_text(encoding="utf-8"))
        acc = p.quality["classify.kfold_accuracy"] = summary["accuracy_mean"]
        if acc < COHORT_MIN_ACCURACY:
            return f"k-fold accuracy {acc:.4f} < {COHORT_MIN_ACCURACY}"
        return None

    p.cli(["train", str(out / "features.jsonl"), "--mode", "kfold",
           "--seed", str(seed), "--out-dir", str(out / "run")], accuracy)


def viral(p: Pass, seed: int) -> None:
    out = p.out
    p.cli(["synth", "viral", "--subjects", str(VIRAL_SUBJECTS),
           "--infected", str(VIRAL_INFECTED), "--seed", str(seed),
           "--out-dir", str(out / "viral")])

    def sweep():
        rows = _csv_rows(out / "sweep.csv")
        shifts = tuple(int(r[0]) for r in rows)
        if shifts != VIRAL_SHIFTS:
            return f"sweep rows for shifts {shifts}, expected {VIRAL_SHIFTS}"
        errors = {int(r[0]): int(r[1]) + int(r[2]) for r in rows}
        p.quality["viral.errors_at_shift0"] = errors[0]
        if errors[0] > VIRAL_MAX_ERRORS_AT_SHIFT0:
            return f"{errors[0]} type I+II errors at shift 0"
        return None

    p.cli(["viral", str(out / "viral" / "manifest.json"),
           "--shifts=" + ",".join(map(str, VIRAL_SHIFTS)),
           "--out", str(out / "sweep.csv")], sweep)


WORKLOADS = {"cohort": cohort, "viral": viral}
