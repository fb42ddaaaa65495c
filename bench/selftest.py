"""Self-test of the benchmark's tracer.

    python3 bench/selftest.py        # about a minute on 2 cores

Runs one untraced and one traced pass of each workload and checks that
the traced counts match the inputs the workload generates, which fails
if a wrapped function is missed in some namespace (``fracdyn`` holds its
own binding of ``dfa_exponents``), and that tracing leaves every output
file byte-identical.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402

CLASSES = 5
FOLDS = 5  # train --mode kfold default
EPOCHS = 500  # train default
SIDE_SAMPLES = 4200  # synth viral --side-samples default: the inoculation index
WINDOW, STRIDE = 3000, 100  # viral --window / --stride defaults


class TracedCounts(unittest.TestCase):
    def traced_pass(self, workload: str, seed: int = 0) -> dict:
        work = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
        results = {}
        try:
            for trace in (False, True):
                name = "traced" if trace else "plain"
                cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
                       "--seed", str(seed), "--out", str(work / name),
                       "--result", str(work / f"{name}.json")]
                subprocess.run(cmd + (["--trace"] if trace else []), cwd=ROOT, check=True,
                               stdout=subprocess.DEVNULL, timeout=600)
                results[name] = json.loads((work / f"{name}.json").read_text(encoding="utf-8"))
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                work.parent.rmdir()
            except OSError:
                pass  # a benchmark run is using it
        plain, traced = results["plain"], results["traced"]
        self.assertEqual(plain["failures"], [])
        self.assertEqual(traced["failures"], [])
        self.assertEqual(traced["digest"], plain["digest"], "tracing changed the outputs")
        return traced["spans"]

    def test_cohort(self):
        s = self.traced_pass("cohort")
        records = CLASSES * workloads.COHORT_PER_CLASS
        rows = records * workloads.COHORT_CHANNELS
        self.assertEqual(s["fracdyn.simulate.calls"], records + s["synth.redraws"])
        self.assertEqual(s["fracdyn.simulate.steps"],
                         s["fracdyn.simulate.calls"] * (workloads.COHORT_SAMPLES - 1))
        self.assertEqual(s["records.write_record.calls"], records)
        self.assertEqual(s["records.load_record.calls"], records)
        self.assertEqual(s["records.load_record.bytes"], s["records.write_record.bytes"])
        self.assertEqual(s["fracdyn.estimate_alpha.calls"], rows)
        # reached only through the name fracdyn imported from mfdfa
        self.assertEqual(s["mfdfa.dfa_exponents.calls"], rows)
        self.assertEqual(s["mfdfa.dfa_exponents.rows"], rows)
        self.assertEqual(s["classify.extract_features.calls"], records)
        self.assertEqual(s["classify.mlp_train.calls"], FOLDS)
        self.assertEqual(s["classify.mlp_train.epochs"], FOLDS * EPOCHS)
        self.assertEqual(s.get("viral.window_alphas.calls", 0), 0)

    def test_viral(self):
        s = self.traced_pass("viral")
        sweeps = workloads.VIRAL_SUBJECTS * len(workloads.VIRAL_SHIFTS)
        self.assertEqual(s["records.write_record.calls"], workloads.VIRAL_SUBJECTS)
        self.assertEqual(s["records.load_record.calls"], workloads.VIRAL_SUBJECTS)
        self.assertEqual(s["viral.window_alphas.calls"], sweeps)
        self.assertEqual(s["viral.kl_feature.calls"], sweeps)
        # one batched estimate per side of the split
        self.assertEqual(s["fracdyn.estimate_alphas.calls"], 2 * sweeps)
        self.assertEqual(s["mfdfa.dfa_exponents.calls"], 2 * sweeps)
        self.assertEqual(s.get("classify.mlp_train.calls", 0), 0)
        self.assertEqual(s.get("fracdyn.simulate.calls", 0), 0)
        # window starts on each side of each shifted split, in absolute samples
        n = 2 * SIDE_SAMPLES
        estimated, distinct = 0, set()
        for shift in workloads.VIRAL_SHIFTS:
            split = SIDE_SAMPLES + shift
            for lo, hi in ((0, split), (split, n)):
                starts = range(lo, hi - WINDOW + 1, STRIDE)
                estimated += len(starts)
                distinct.update(starts)
        self.assertEqual(s["viral.windows_estimated"], workloads.VIRAL_SUBJECTS * estimated)
        self.assertEqual(s["viral.window_reuse_ratio"], len(distinct) / estimated)
        self.assertGreater(s["trace.overhead_s"], 0.0)


if __name__ == "__main__":
    unittest.main()
