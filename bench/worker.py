"""One pass of one workload in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --out DIR --result FILE [--trace]

Imports the package from ``src/`` of the checkout this file sits in,
runs the workload's operations into ``DIR`` and writes a JSON result:
wall and CPU seconds of the operations (imports excluded), the peak
resident memory of this process, operation counts and failures, a digest
of every output file, quality values and, with ``--trace``, the span
totals of every public package function.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def output_digest(out: Path) -> str:
    """SHA-256 over the relative path and bytes of every file under ``out``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(out)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def _trace_hooks():
    """Work counters measured at the layer boundaries."""

    def file_bytes(key):
        def hook(tr, a, result):
            tr.count(f"records.{key}.bytes", os.path.getsize(a["path"]))
        return hook

    def simulate(tr, a, result):
        tr.count("fracdyn.simulate.steps", a["T"] - 1)

    def dfa(tr, a, result):
        rows, samples = np.atleast_2d(a["X"]).shape
        tr.count("mfdfa.dfa_exponents.rows", rows)
        tr.count("mfdfa.dfa_exponents.samples", rows * samples)

    def mlp_train(tr, a, result):
        tr.count("classify.mlp_train.epochs", len(result[1]["loss"]))

    windows_seen = set()

    def window_alphas(tr, a, result):
        # Each side's result holds one order per channel per window,
        # window-major.  A window is known by its subject and its orders:
        # detrended DFA does not see the constant offset that centering
        # each side adds, so one window gives the same orders on every shift.
        case = a["case"]
        for side in result:
            per_window = np.asarray(side).reshape(-1, case.channels.shape[0])
            tr.count("viral.windows_estimated", len(per_window))
            windows_seen.update((case.subject_id, tuple(np.round(w, 6))) for w in per_window)
        tr.counters["viral.windows_distinct"] = len(windows_seen)

    return {
        "records.write_record": file_bytes("write_record"),
        "records.load_record": file_bytes("load_record"),
        "fracdyn.simulate": simulate,
        "mfdfa.dfa_exponents": dfa,
        "classify.mlp_train": mlp_train,
        "viral.window_alphas": window_alphas,
    }


def layer_metrics(tracer, n_stages: int) -> dict:
    """Span totals plus the ratios and per-command uncovered time."""
    spans = tracer.snapshot()
    radius_calls = spans.get("synth.companion_spectral_radius.calls", 0)
    # each random_stable_model draw accepts one model, each cohort one per stage
    accepted = (spans.get("synth.random_stable_model.calls", 0)
                + n_stages * spans.get("synth.synth_stage_cohort.calls", 0))
    spans["synth.stability.accept_ratio"] = accepted / radius_calls if radius_calls else 0.0
    spans["synth.redraws"] = spans.get("fracdyn.simulate.errors", 0)
    estimated = spans.get("viral.windows_estimated", 0)
    distinct = spans.get("viral.windows_distinct", 0)
    spans["viral.window_reuse_ratio"] = distinct / estimated if estimated else 0.0
    for key in list(spans):
        if key.startswith("cli.") and key.endswith(".self_s"):
            spans[key[: -len("self_s")] + "uncovered_s"] = spans[key]
    spans["trace.overhead_s"] = tracer.overhead_s()
    return spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "fracsig" / "cli.py").is_file():
        print(f"bench: no package source at {SRC / 'fracsig'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fracsig.cli  # noqa: F401  (imports every layer before timing)
    from fracsig import classify

    import workloads
    from tracer import Tracer

    if not Path(fracsig.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"bench: imported fracsig from {fracsig.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = None
    span = lambda name: nullcontext()  # noqa: E731
    if args.trace:
        tracer = Tracer()
        tracer.install("fracsig", _trace_hooks())
        span = tracer.span

    args.out.mkdir(parents=True)
    run = workloads.Pass(args.out, span)
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        workloads.WORKLOADS[args.workload](run, args.seed)
    except workloads.Abort:
        pass
    except Exception:  # a crash fails the operation in flight; report it
        traceback.print_exc()
        run.failures.append(traceback.format_exc().strip().splitlines()[-1])
    wall = time.perf_counter() - t0
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    attempted = workloads.OPERATIONS[args.workload]
    result = {
        "wall_s": wall,
        "cpu_s": (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": attempted - run.succeeded,
        "failures": run.failures,
        "quality": run.quality,
        "digest": output_digest(args.out),
        "environment": environment(),
        "spans": layer_metrics(tracer, classify.N_STAGES) if tracer else {},
    }
    args.result.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
