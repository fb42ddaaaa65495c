"""fracsig benchmark runner.

    python3 bench/run.py --workload {cohort,viral} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its
``src/``.  Every pass of the workload runs in a fresh interpreter
(``bench/worker.py``) so that peak memory and CPU time belong to that
pass alone.  Passes repeat with the same seed until ``--seconds`` is
used up (at least two), and every pass must write byte-identical output
files.

``--trace 0`` reports the end-to-end metrics: the best over passes of
wall time and CPU time (the host only ever adds to them), the median
peak memory, the median of several fresh ``import fracsig.cli`` + parser
spawns as set-up time, and the share of operations that succeeded.
``--trace 1`` alternates untraced and traced passes, reports the
per-layer metrics of the traced ones, and checks that tracing leaves the
outputs unchanged.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
list every metric with its unit and the environment of the run.  See
``bench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("cohort", "viral")
MIN_PASSES = 2
SETUP_SPAWNS = 3
HARD_LIMIT_S = 165.0  # every child is stopped before this, whatever --seconds says
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import fracsig.cli; "
    "sys.exit(fracsig.cli.main(['--help']))"
)
# One BLAS thread (at most the usable cores, as required).  On the 2-core
# reference box two OpenBLAS threads made every workload slower (cohort
# 24 -> 20 s, viral 12 -> 7.5 s per pass) and noisier from run to run.
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_environment() -> dict:
    return dict(os.environ, **BLAS_THREADS)


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    def __init__(self, workload: str, seed: int, work: Path, env: dict, start: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = env
        self.start = start

    def remaining(self) -> float:
        return max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.start))

    def run_pass(self, index: int, trace: bool) -> dict | None:
        """One worker pass; None when it died without writing a result."""
        out = self.work / f"pass{index}"
        result = self.work / f"pass{index}.json"
        log = self.work / f"pass{index}.log"
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--out", str(out), "--result", str(result)]
        if trace:
            cmd.append("--trace")
        with log.open("w", encoding="utf-8") as fh:
            try:
                code = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=fh,
                                      stderr=subprocess.STDOUT,
                                      timeout=self.remaining()).returncode
            except subprocess.TimeoutExpired:
                code = None
        if code != 0 or not result.is_file():
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"bench: pass {index} failed (exit {code}):\n{tail}", file=sys.stderr)
            return None
        data = json.loads(result.read_text(encoding="utf-8"))
        for failure in data["failures"]:
            print(f"bench: pass {index}: {failure}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        return data

    def setup_times(self) -> tuple[list[float], int]:
        """Wall times of fresh ``import fracsig.cli`` + parser spawns, and failures."""
        times, failed = [], 0
        for _ in range(SETUP_SPAWNS):
            t0 = time.perf_counter()
            try:
                code = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                                      cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                                      timeout=self.remaining()).returncode
            except subprocess.TimeoutExpired:
                code = None
            if code == 0:
                times.append(time.perf_counter() - t0)
            else:
                failed += 1
        return times, failed


def measure(runner: Runner, seconds: float, trace: bool):
    """Passes until ``seconds`` are used (traced ones alternate when tracing)."""
    # before the passes, so that they all start with warm file caches
    setup, setup_failed = runner.setup_times()
    passes = []
    longest = 0.0
    while True:
        index = len(passes)
        traced = trace and index % 2 == 1
        t0 = time.perf_counter()
        passes.append((traced, runner.run_pass(index, traced)))
        longest = max(longest, time.perf_counter() - t0)
        if passes[-1][1] is None:
            break  # a dead worker will not recover on a rerun
        used = time.perf_counter() - runner.start
        if len(passes) >= MIN_PASSES and used + longest > seconds:
            break
        if used + longest > HARD_LIMIT_S:
            break
    return passes, setup, setup_failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()

    if not (SRC / "fracsig" / "cli.py").is_file():
        print(f"bench: no fracsig source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(args.workload, args.seed, work, child_environment(), start)
        passes, setup, setup_failed = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it

    done = [(traced, r) for traced, r in passes if r is not None]
    if not done:
        print("bench: no pass produced a result", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for _, r in done) + (len(passes) - len(done))
    failed = sum(r["failed"] for _, r in done) + (len(passes) - len(done))
    # each pass after the first is also one rerun comparison
    reference = done[0][1]["digest"]
    attempted += len(done) - 1
    mismatched = sum(r["digest"] != reference for _, r in done[1:])
    if mismatched:
        print(f"bench: {mismatched} pass(es) wrote different output files", file=sys.stderr)
    failed += mismatched
    attempted += len(setup) + setup_failed
    failed += setup_failed

    if args.trace:
        plain = [r for traced, r in done if not traced]
        traced = [r for traced, r in done if traced]
        if not plain or not traced:
            print("bench: need one traced and one untraced pass", file=sys.stderr)
            return 1
        values = {}
        for key in set().union(*(r["spans"] for r in traced), *(r["quality"] for r in traced)):
            values[key] = statistics.median(
                r["spans"].get(key, r["quality"].get(key, 0.0)) for r in traced
            )
    else:
        if not setup:
            print("bench: every set-up spawn failed", file=sys.stderr)
            return 1
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": min(r["wall_s"] for _, r in done),
            "cpu_s": min(r["cpu_s"] for _, r in done),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for _, r in done),
            "success_rate": (attempted - failed) / attempted,
        }

    for index, (traced, r) in enumerate(passes):
        if r is not None:
            print(f"pass {index}{' traced' if traced else ''}: wall {r['wall_s']:.3f} s, "
                  f"cpu {r['cpu_s']:.3f} s, peak {r['peak_rss_mb']:.1f} MB, "
                  f"{r['failed']}/{r['attempted']} operations failed")
    if setup:
        print("setup spawns: " + ", ".join(f"{t:.3f} s" for t in setup))
    environment = dict(done[0][1]["environment"], commit=git_commit(), seed=args.seed,
                       workload=args.workload, passes=len(passes))
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}")
    if args.trace:
        extra = sorted(set(values) - set(metrics))
        print("not in BENCHMARK.json: " + ", ".join(
            f"{k}={values[k]:.6g}" for k in extra))
    print("environment: " + json.dumps(environment, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
