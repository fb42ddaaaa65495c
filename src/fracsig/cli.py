"""Command-line front end.

Subcommands cover synthesis, multifractal analysis, feature
extraction, classifier training, coupling-convergence curves, and the
early-detection sweep.  All outputs are plain CSV/JSON so plotting
stays external.  Every command is deterministic under a fixed seed.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical
failure.  Bad input exits 2 naming the file, the entry or line, and the
field.

Outputs.  Every command stages every output, ``--out``, ``--model-out``
and ``--out-dir``, right after its flags parse and before it reads any
input or computes.  An output path that cannot be staged, a directory
given as ``--out``, a file given as ``--out-dir`` or as an ancestor of
either, or two outputs naming one file, thus fails before any work.
The command writes each output into staging as it is made, and the
files are moved into place only once every one is built, so a failed
command leaves each output path as it was.  Each moved file is swapped
whole and keeps the mode and owner of the file it replaces.  Written
through in place are a device or a pipe (``--out /dev/null``), a file
that cannot be swapped or whose owner cannot be kept, and a file in a
directory where no staging directory can be made.  The staging
directory exists while the command runs, so a killed run of any
command leaves its ``.fracsig-stage.*`` directory.  Such a directory is
kept, and named by the next run staging there.

Workers.  ``synth cohort``, ``synth viral``, ``extract``, ``train`` and
``viral`` run their independent items, the record writes, the records,
the folds and held-out sites or the subjects, in one forked worker
process per core the process may use (``taskset -c 0`` gives one core:
the serial path, all in this process).  ``synth viral`` simulates each
subject in its worker, and ``viral`` loads and fits each subject in its
worker; this process keeps the draws and the leave-one-out summary.  The
workers are the parallelism: the command line runs one BLAS thread per
process unless any of ``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and
``MKL_NUM_THREADS`` is set.  Workers write into the command's one
staging directory, each ``train`` worker its split's metrics and curve
files, and the parent keeps every random draw and the order of every
output, so under that one-thread default the outputs are byte-identical
at any core count.  An item that raises stops the command with the error
of the lowest failing item, the one a serial run meets first, named by
its record, fold, site or subject, and every output is left as it was.
A worker reports each item as it ends, so an item that kills its worker,
or whose result cannot be sent back, is named itself.

A config file passed before the command with ``--config FILE`` or
``--config=FILE`` may set any flag default.  Its grammar is one
``key = value`` pair per line, ``#`` starts a comment, keys are the long
flag names without the leading dashes.  Explicit flags override config
values.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import os
import pickle
import re
import shutil
import stat
import sys
import tempfile
from contextlib import contextmanager
from itertools import count
from pathlib import Path

# one BLAS thread per process, set before numpy loads its BLAS: each forked
# worker would otherwise start a thread per core.  OpenBLAS falls back to
# OMP_NUM_THREADS, so a user's value for any one of them leaves all three alone
_BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
if not any(name in os.environ for name in _BLAS_THREADS):
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))

import numpy as np

from . import classify, fracdyn, mfdfa, records, synth, viral

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on a usage failure and reads ``-1e-3`` or ``-inf`` as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _write_text(path, text) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="")


def _write_json(path, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path, header, rows) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def _place(staged, path) -> None:
    """Move the finished file ``staged`` onto ``path``.

    A regular file at ``path``, or at the end of a symlink ``path``, is
    swapped whole by ``os.replace`` and keeps its mode and owner.  What
    cannot be swapped so is written through in place, as ``open`` would:
    a device or a pipe such as ``/dev/null``, a file on another file
    system than ``staged``, or one whose owner could not be kept.
    """
    path = Path(path)
    if not path.exists() or path.is_file():
        target = path.resolve()
        try:
            if target.exists():
                st = target.stat()
                os.chown(staged, st.st_uid, st.st_gid)
                os.chmod(staged, stat.S_IMODE(st.st_mode))
            os.replace(staged, target)
            return
        except OSError:
            pass  # written through below
    with open(staged, "rb") as src, open(path, "wb") as dst:
        shutil.copyfileobj(src, dst)


@contextmanager
def _outputs():
    """Stage the outputs written in the block; ``_place`` them if it returns.

    Yields ``(file, folder)``: ``file(path, flag)`` gives the path to write
    for the output file ``path`` of ``flag``, and ``folder(path)`` the
    directory to write an output directory's files into.  A file already
    named by another flag, itself or through a symlink, is refused.  Each
    output directory has one staging directory, in it or in its nearest
    existing ancestor, so each staged file can be swapped in.  Other
    staging directories found there, which a killed run may have left,
    are named on stderr and kept.
    """
    stages = {}  # output directory -> its staging directory
    claimed = {}  # output file -> the flag and path that name it

    def folder(path):
        out_dir = Path(path)
        if out_dir.exists() and not out_dir.is_dir():  # what the final mkdir would raise
            raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(path))
        if out_dir not in stages:
            home = next(p for p in (out_dir, *out_dir.parents) if p.exists())
            if not home.is_dir():  # an ancestor is a file: what the final mkdir would raise
                raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(path))
            stages[out_dir] = Path(tempfile.mkdtemp(prefix=".fracsig-stage.", dir=home))
            for old in sorted(home.glob(".fracsig-stage.*")):
                if old.name not in {stage.name for stage in stages.values()}:
                    print(f"fracsig: warning: {old}: another run's staging, kept", file=sys.stderr)
        return stages[out_dir]

    def file(path, flag):
        path = Path(path)
        if path.is_dir():  # what the final open would raise
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        if path.exists() and not path.is_file():
            return path  # a device or a pipe is written through
        target = path.resolve()  # stage the file at the end of a symlink
        if target in claimed:  # the later output would replace the earlier one
            raise ValueError(f"{flag} {path} names the same file as {claimed[target]}")
        claimed[target] = f"{flag} {path}"
        if not target.parent.is_dir():  # what the final open would raise, naming the target
            home = next(p for p in target.parents if p.exists())
            code = errno.ENOENT if home.is_dir() else errno.ENOTDIR
            raise OSError(code, os.strerror(code), str(path))
        try:
            return folder(target.parent) / target.name
        except PermissionError:  # no staging directory here: write in place
            return path

    try:
        yield file, folder
        for out_dir in stages:  # every directory first, so a failure here moves no file
            out_dir.mkdir(parents=True, exist_ok=True)
        for out_dir, stage in stages.items():
            for staged in sorted(stage.iterdir()):
                _place(staged, out_dir / staged.name)
    finally:
        for stage in stages.values():
            shutil.rmtree(stage, ignore_errors=True)


@contextmanager
def _naming(where, labels=None):
    """Re-raise a ``ValueError`` or ``fracdyn.NumericalError`` of the block as
    the same kind with ``where: `` in front.  Given the row ``labels``, a
    ``ZeroFluctuationError`` names its row by its label."""
    try:
        yield
    except fracdyn.NumericalError as exc:
        raise fracdyn.NumericalError(f"{where}: {exc}") from None
    except ValueError as exc:
        if labels is not None and isinstance(exc, mfdfa.ZeroFluctuationError):
            exc = exc.naming(labels)
        raise ValueError(f"{where}: {exc}") from None


def _fork_map(fn, items, name):
    """``[fn(item) for item in items]``, run in one forked worker per usable core.

    Worker ``w`` of ``k`` runs items ``w, w + k, ...`` in order and, as each
    ends, appends its pickled ``(ok, value or exception)`` to its own
    unnamed temporary file; it stops at its first failure.  ``fn`` and the
    data it reads reach it through the fork, not through pickling.  Results
    come in item order.  When items fail, the exception of the lowest
    failing index is raised, the one the serial loop would raise.  An item
    whose outcome cannot be loaded, the one its worker was running when it
    was killed or whose outcome does not pickle or unpickle, raises
    ``ChildProcessError`` naming ``name(item)``.  On one core or for one
    item, nothing is forked.
    """
    items = list(items)
    jobs = min(_usable_cores(), len(items))
    if jobs <= 1 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    sys.stdout.flush()  # so that no worker inherits, and repeats, buffered output
    sys.stderr.flush()
    files, pids = [], []  # each worker's outcome file and process id
    try:
        for first in range(jobs):
            files.append(tempfile.TemporaryFile())
            pid = os.fork()
            if pid == 0:
                _work(fn, items, first, jobs, files[-1])  # never returns
            pids.append(pid)
    finally:
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    results, failures = [None] * len(items), {}
    for first, (outcomes, status) in enumerate(zip(files, statuses)):
        code = os.waitstatus_to_exitcode(status)
        if code < 0:
            how = f"its worker process was killed by signal {-code} before reporting it"
        elif code:
            how = f"its worker process exited with status {code} before reporting it"
        else:  # an outcome that did not pickle, or does not load
            how = "its result could not be sent back from its worker process"
        with outcomes:
            outcomes.seek(0)
            for i in range(first, len(items), jobs):
                try:
                    ok, value = pickle.load(outcomes)
                except Exception:  # not written, written in part, or does not load
                    failures[i] = ChildProcessError(f"{name(items[i])}: {how}")
                    break
                if not ok:
                    failures[i] = value
                    break
                results[i] = value
    if failures:
        raise failures[min(failures)]
    return results


def _work(fn, items, first, step, outcomes) -> None:
    """Run ``items[first::step]`` in a forked worker of :func:`_fork_map`,
    append each outcome to the file ``outcomes`` as it ends, and exit."""
    try:
        for i in range(first, len(items), step):
            try:
                ok, value = True, fn(items[i])
            except BaseException as exc:
                ok, value = False, exc
            outcomes.write(pickle.dumps((ok, value)))  # an outcome that does not pickle ends it
            outcomes.flush()
            if not ok:
                break
    finally:
        os._exit(0)  # never the parent's exit handlers or staging cleanup


def _check_file_part(name, what, where) -> None:
    """Reject ``name``, read from ``where``, if it cannot be part of a file name."""
    if any(c in name for c in {"/", os.sep, "\0"}):
        raise ValueError(f"{where}: {what} {name!r} cannot be part of an output file name")


def _usable_cores() -> int:
    """The worker count of :func:`_fork_map`: the cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _list_of(cast):
    """argparse ``type`` for a nonempty comma-separated list of ``cast`` values."""

    def parse(text):
        try:
            items = tuple(cast(tok) for tok in text.split(",") if tok.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad list value: {text!r}") from None
        if not items:
            raise argparse.ArgumentTypeError(f"empty list: {text!r}")
        return items

    return parse


# ---------------------------------------------------------------- synth


def _write_series(samples, label, out) -> None:
    """Write one generated series as a one-channel record headed ``label``."""
    records.write_record(records.MultichannelRecord(samples[None, :], (label,)), out)


def _cmd_synth_fgn(args, out) -> str:
    _write_series(synth.synth_fgn(args.hurst, args.n, args.seed), f"fgn-H{args.hurst:g}", out)
    return f"wrote {args.out}"


def _cmd_synth_cascade(args, out) -> str:
    samples = synth.synth_cascade(args.p, args.depth, args.seed, shuffle=args.shuffle)
    _write_series(samples, f"cascade-p{args.p:g}", out)
    return f"wrote {args.out}"


def _cmd_synth_system(args, out, model_out=None) -> str:
    model = synth.random_stable_model(args.channels, args.seed, noise_scale=args.noise_scale)
    X = fracdyn.simulate(model, args.n, seed=args.seed)
    records.write_record(records.MultichannelRecord(X), out)
    if model_out:
        _write_text(model_out, fracdyn.model_to_json(model.alpha, model.A))
    return f"wrote {args.out}"


def _write_record_set(out_dir, stage, batches, record=lambda item: item,
                      extra=lambda r: {}) -> int:
    """Write ``<subject_id>.csv`` per ``record(item)`` and a manifest with
    ``extra(record)`` added into ``stage``, the staging of ``out_dir``,
    by which errors name a record.

    ``batches`` is any iterable of lists of items, each with the
    ``subject_id`` of its record.  Workers make and write each list's
    records, and return their manifest entries, before the next list is
    asked for.  Returns the number of records.
    """
    entries = []

    def write(item):
        rec = record(item)
        records.write_record(rec, stage / f"{rec.subject_id}.csv")
        return records.ManifestEntry(
            f"{rec.subject_id}.csv", rec.subject_id, rec.institution, rec.stage_label,
            extra(rec),
        )

    for batch in batches:
        entries += _fork_map(
            write, batch, name=lambda item: Path(out_dir) / f"{item.subject_id}.csv"
        )
        del batch  # let the next batch be simulated without this one
    records.write_manifest(entries, stage / "manifest.json")
    return len(entries)


def _cmd_synth_cohort(args, out_dir) -> str:
    if args.per_class < 1:
        raise ValueError(f"--per-class must be at least 1, got {args.per_class}")
    cohort = synth._simulate_stage_cohort(  # streamed: one batch held at any --samples
        classify.N_STAGES * args.per_class, args.channels, args.seed, args.samples
    )
    written = _write_record_set(args.out_dir, out_dir, cohort)
    return f"wrote {written} records to {Path(args.out_dir)}"


def _cmd_synth_viral(args, out_dir) -> str:
    draws = synth._viral_draws(args.subjects, args.infected, args.seed, args.alpha_shift,
                               args.side_samples)
    _write_record_set(
        args.out_dir, out_dir, [draws], lambda draw: synth._viral_case(draw, args.side_samples),
        lambda c: {"inoculation_index": c.inoculation_index, "infected": c.infected},
    )
    return f"wrote {len(draws)} subjects to {Path(args.out_dir)}"


# ---------------------------------------------------------------- mfdfa


def _cmd_mfdfa(args, out_dir) -> str:
    first = {}  # the part of an sf_*.csv file name a --q value gives -> the first value giving it
    for q in args.q:
        name = f"{q:g}"
        if name in first:
            raise ValueError(f"--q values {first[name]!r} and {q!r} both name sf_*_q{name}.csv")
        first[name] = q
    record = records.load_record(args.record)
    for label in record.labels:
        _check_file_part(label, "channel label", args.record)
    with _naming(args.record):  # a flag's error, raised before any channel is analysed
        scale_grid = args.scales
        if args.dyadic:
            scale_grid = tuple(mfdfa.dyadic_scale_grid(record.n_samples))
        cfg = mfdfa.MfdfaConfig(
            q_grid=args.q,
            scale_grid=scale_grid,
            detrend_order=args.detrend_order,
            q_zero_mode=args.q_zero_mode,
            both_ends=args.both_ends,
        )
        cfg.resolve_q()
        cfg.resolve_scales(record.n_samples)
    lines = []
    for label, samples in zip(record.labels, record.channels):
        with _naming(f"{args.record}: channel {label!r}"):
            sf = mfdfa.scaling_function(mfdfa.profile(samples), cfg)
            spectrum = mfdfa.hurst_spectrum(sf)
        diag = mfdfa.scaling_diagnostics(sf)
        payload = mfdfa.spectrum_to_dict(sf, spectrum)
        payload["std_across_q"] = [float(v) for v in diag.std_across_q]
        payload["std_across_s"] = [float(v) for v in diag.std_across_s]
        _write_json(out_dir / f"spectrum_{label}.json", payload)
        logs = np.log2(sf.scale_grid.astype(float))
        for q, values in zip(sf.q_grid, sf.values):
            _write_csv(out_dir / f"sf_{label}_q{q:g}.csv", ("log2_s", "log2_sf"),
                       zip(logs, np.log2(values)))
        lines.append(f"{label}: focus spread {payload['focus_spread']:.4f}")
    return "\n".join(lines)


# -------------------------------------------------------------- extract


def _cmd_extract(args, out) -> str:
    def named(entry):
        return f"{entry.path}: subject {entry.subject_id!r}"

    def feature_line(entry):
        if entry.stage is None:
            raise ValueError(f"{named(entry)}: record is unlabeled")
        record = records.load_record(entry.path)
        with _naming(named(entry)):
            features = classify.extract_features(record, horizon=args.horizon, ridge=args.ridge)
        item = {
            "subject_id": entry.subject_id,
            "institution": entry.institution,
            "stage": entry.stage,
            "features": features.tolist(),
        }
        return json.dumps(item, sort_keys=True) + "\n"

    fracdyn.check_fit_params(args.horizon, args.ridge)
    entries = records.load_manifest(args.manifest)
    _write_text(out, "".join(_fork_map(feature_line, entries, name=named)))
    return f"wrote {len(entries)} feature lines to {args.out}"


def _load_features(path):
    """Read a feature file as (X, stages, institutions).

    ``X`` is the (m, d) float64 feature matrix, ``stages`` the int stage
    vector and ``institutions`` the list of site names, one per line.
    """
    rows, stages, institutions = [], [], []
    with Path(path).open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}: line {lineno}"
            try:
                item = json.loads(line)
            except ValueError as exc:  # also an integer over Python's digit limit
                raise records.RecordFormatError(f"{where}: invalid JSON: {exc}") from None
            if not isinstance(item, dict):
                raise records.RecordFormatError(f"{where}: not a JSON object")
            rows.append(records._json_value(item, "features", list, where))
            stages.append(records._json_stage(item, where))
            institutions.append(records._json_value(item, "institution", str, where, default=""))
            if not all(abs(v) <= sys.float_info.max for v in rows[-1]):  # NaN, inf, 10**400
                raise records.RecordFormatError(f"{where}: features must be finite")
            if len(rows) == 1:
                first_line = lineno
                if not rows[0]:  # every later line must match its width
                    raise records.RecordFormatError(f"{where}: features is empty")
            elif len(rows[-1]) != len(rows[0]):
                raise records.RecordFormatError(
                    f"{where}: {len(rows[-1])} features, but line {first_line} has {len(rows[0])}"
                )
    if not rows:
        raise records.RecordFormatError(f"{path}: no feature lines")
    return np.array(rows, dtype=float), np.array(stages), institutions


# ---------------------------------------------------------------- train


def _train_splits(args, stages, institutions):
    """Yield (metrics file, curve file, label, train, test) index arrays
    for each k-fold split or held-out institution."""
    if args.mode == "kfold":
        for fi, (train, test) in enumerate(classify.kfold(stages.size, args.folds, args.seed)):
            yield f"fold{fi}.json", f"curve_fold{fi}.csv", f"fold {fi}", train, test
    else:
        for name in sorted(set(institutions)):
            train, test = classify.holdout(institutions, stages, name, args.seed)
            yield f"holdout_{name}.json", f"curve_{name}.csv", f"holdout {name}", train, test


def _cmd_train(args, out_dir) -> str:
    X, y, institutions = _load_features(args.features)
    if args.mode == "holdout":
        for name in institutions:
            _check_file_part(name, "institution", args.features)
    cfg = classify.TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        dropout_rate=args.dropout,
        seed=args.seed,
    )
    splits = list(_train_splits(args, y, institutions))
    for _, _, label, train, _ in splits:
        with _naming(label):
            classify._check_classes(y[train])

    def run_split(split):
        """Write the split's metrics and curve files into ``out_dir``; its accuracy."""
        metrics_name, curve_name, label, train, test = split
        with _naming(label):
            metrics, history = classify.fit_split(X, y, train, test, cfg, model=args.model)
        _write_json(out_dir / metrics_name, metrics.to_dict())
        _write_csv(out_dir / curve_name, ("epoch", "loss", "accuracy"),
                   zip(count(), history["loss"], history["accuracy"]))
        return metrics.accuracy

    accuracies = _fork_map(run_split, splits, name=lambda split: split[2])
    summary = {
        "mode": args.mode,
        "model": args.model,
        "accuracy_mean": float(np.mean(accuracies)),
        "accuracy_std": float(np.std(accuracies)),
        "n_evaluations": len(accuracies),
    }
    _write_json(out_dir / "summary.json", summary)
    lines = [f"{label}: accuracy {accuracy:.4f}"
             for (_, _, label, _, _), accuracy in zip(splits, accuracies)]
    lines.append(f"{args.mode} {args.model}: accuracy "
                 f"{summary['accuracy_mean']:.4f} +/- {summary['accuracy_std']:.4f}")
    return "\n".join(lines)


# ---------------------------------------------------------- convergence


def _cmd_convergence(args, out) -> str:
    if not 0 < args.rate < np.inf:
        raise ValueError(f"--rate must be positive and finite, got {args.rate:g}")
    if not 0 <= args.threshold < np.inf:
        raise ValueError(f"--threshold must be finite and nonnegative, got {args.threshold:g}")
    fracdyn.check_fit_params(args.horizon, args.ridge)
    samples = args.step_seconds * args.rate
    if not (np.isfinite(samples) and round(samples) >= 1):
        raise ValueError(
            f"step of {args.step_seconds:g} s at {args.rate:g} Hz is {samples:g} samples; "
            "need a finite step that rounds to at least 1 sample"
        )
    record, alpha = records.load_record(args.record), args.alpha
    with _naming(args.record, record.labels):
        if alpha is None:
            alpha = fracdyn.estimate_alphas(record.channels)
        elif len(alpha) != record.n_channels:
            raise ValueError(f"got {len(alpha)} alpha values for {record.n_channels} channels")
        lengths, dists = fracdyn.coupling_convergence(
            record.channels, np.asarray(alpha), int(round(samples)),
            horizon=args.horizon, ridge=args.ridge,
        )
    times = lengths / args.rate
    _write_csv(out, ("time_s", "wasserstein"), zip(times, dists))
    below = bool(dists[-1] < args.threshold)
    return f"final distance {dists[-1]:.6f} at {times[-1]:g} s; below {args.threshold:g}: {below}"


# ---------------------------------------------------------------- viral


def _cmd_viral(args, out) -> str:
    def named(entry):
        return f"{args.manifest}: subject {entry.subject_id!r}"

    def subject(entry):
        """The subject's infection label and its (pre, post) orders at each shift."""
        index = records._json_value(entry.extra, "inoculation_index", int, named(entry))
        infected = records._json_value(entry.extra, "infected", bool, named(entry))
        record = records.load_record(entry.path)
        with _naming(named(entry)):
            case = viral.SubjectCase(
                record.channels, record.labels, entry.subject_id,
                inoculation_index=index, infected=infected,
            )
        with _naming(args.manifest):  # the sweep's errors name the subject themselves
            return infected, viral._subject_sides(case, args.shifts, spec)

    spec = viral.WindowSpec(args.window, args.stride)
    entries = records.load_manifest(args.manifest)
    viral._need_cases(len(entries))
    subjects = _fork_map(subject, entries, name=named)
    results = viral._loo_sweep(
        [sides for _, sides in subjects],
        [infected for infected, _ in subjects],
        [entry.subject_id for entry in entries],
    )
    rows = [(shift, r.type_one, r.type_two) for shift, r in zip(args.shifts, results)]
    _write_csv(out, ("shift", "type_one", "type_two"), rows)
    return "\n".join(f"shift {s}: type I {t1}, type II {t2}" for s, t1, t2 in rows)


# ----------------------------------------------------------- arg wiring


def _build_parser() -> _Parser:
    # _apply_config finds --config by its exact spelling, so no abbreviation may parse
    parser = _Parser(prog="fracsig", description=__doc__.split("\n\n")[0], allow_abbrev=False)
    parser.add_argument("--config", help="key = value file setting flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate synthetic records")
    kinds = p_synth.add_subparsers(dest="kind", required=True)

    p = kinds.add_parser("fgn", help="fractional Gaussian noise, one channel")
    p.add_argument("--hurst", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth_fgn)

    p = kinds.add_parser("cascade", help="binomial multiplicative cascade")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shuffle", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth_cascade)

    p = kinds.add_parser("system", help="random stable fractional system")
    p.add_argument("--channels", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-scale", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.add_argument("--model-out", help="also write the ground-truth model JSON")
    p.set_defaults(func=_cmd_synth_system)

    p = kinds.add_parser("cohort", help="labeled 5-class cohort + manifest")
    p.add_argument("--per-class", type=int, default=40)
    p.add_argument("--channels", type=int, default=12)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_synth_cohort)

    p = kinds.add_parser("viral", help="pre/post inoculation cohort + manifest")
    p.add_argument("--subjects", type=int, default=18)
    p.add_argument("--infected", type=int, default=11)
    p.add_argument("--side-samples", type=int, default=4200)
    p.add_argument("--alpha-shift", type=float, default=0.35)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_synth_viral)

    p = sub.add_parser("mfdfa", help="scaling function and Hurst spectrum")
    p.add_argument("record")
    p.add_argument("--q", type=_list_of(float), default="-5,-3,-1,1,3,5",
                   help="comma-separated moment orders")
    grid = p.add_mutually_exclusive_group()
    grid.add_argument("--scales", type=_list_of(int), help="comma-separated window sizes")
    grid.add_argument("--dyadic", action="store_true", help="power-of-two scales")
    p.add_argument("--detrend-order", type=int, default=1)
    p.add_argument("--q-zero-mode", choices=("exclude", "log-average"), default="exclude")
    p.add_argument("--both-ends", action="store_true")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_mfdfa)

    p = sub.add_parser("extract", help="coupling-matrix features from a manifest")
    p.add_argument("manifest")
    p.add_argument("--horizon", type=int, default=fracdyn.DEFAULT_HORIZON)
    p.add_argument("--ridge", type=float, default=fracdyn.DEFAULT_RIDGE)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("train", help="train and evaluate a stage classifier")
    p.add_argument("features")
    p.add_argument("--mode", choices=("kfold", "holdout"), default="kfold")
    p.add_argument("--model", choices=("mlp", "logistic"), default="mlp")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--batch-size", type=int, default=64, help="mlp only")
    p.add_argument(
        "--learning-rate", type=float,
        help="step size (default: 0.001 for mlp, 0.01 for logistic)",
    )
    p.add_argument("--dropout", type=float, default=0.2, help="mlp only")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("convergence", help="coupling-estimate convergence curve")
    p.add_argument("record")
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument(
        "--alpha", type=_list_of(float),
        help="comma-separated known orders; estimated if absent",
    )
    p.add_argument("--step-seconds", type=float, default=60.0)
    p.add_argument("--horizon", type=int, default=fracdyn.DEFAULT_HORIZON)
    p.add_argument("--ridge", type=float, default=fracdyn.DEFAULT_RIDGE)
    p.add_argument("--threshold", type=float, default=0.02)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser("viral", help="inoculation-shift error sweep")
    p.add_argument("manifest")
    p.add_argument("--window", type=int, default=3000)
    p.add_argument("--stride", type=int, default=100)
    p.add_argument("--shifts", type=_list_of(int), default="-200,-100,0,100,200",
                   help="comma-separated inoculation shifts in samples")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_viral)

    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Splice config-file pairs in as flags before the explicit ones.

    The file is named before the command, by ``--config FILE`` or
    ``--config=FILE``; the top-level parser takes no abbreviation of it.
    """
    path = cut = None
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--config" and i + 1 < len(argv):
            path = Path(argv[i + 1])
            i += 2
            continue
        if tok.startswith("--config="):
            path = Path(tok.partition("=")[2])
        elif not tok.startswith("-"):
            cut = i + 1
            if tok == "synth" and cut < len(argv):
                cut += 1  # the generator kind follows
            break
        i += 1
    if path is None or cut is None:
        return argv  # argparse reports the missing value or command
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise records.RecordFormatError(f"cannot read config: {exc}") from None
    extra: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise records.RecordFormatError(
                f"{path}: line {lineno}: expected 'key = value'"
            )
        key, value = (tok.strip() for tok in line.split("=", 1))
        if not key:
            raise records.RecordFormatError(f"{path}: line {lineno}: empty key")
        flag = "--" + key.replace("_", "-")
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                extra.append(flag)
        else:
            extra.append(f"{flag}={value}")  # one token, so no value is read as a flag
    # insert right after the subcommand tokens so explicit flags still win
    return argv[:cut] + extra + argv[cut:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        argv = _apply_config(argv)
        args = parser.parse_args(argv)
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be nonnegative, got {args.seed}")
        with _outputs() as (file, folder):
            staged = {}
            for dest in ("out", "model_out", "out_dir"):  # each, before any input is read
                if (path := getattr(args, dest, None)) is not None:
                    flag = "--" + dest.replace("_", "-")
                    staged[dest] = folder(path) if dest == "out_dir" else file(path, flag)
            report = args.func(args, **staged)
        print(report)
        return EXIT_OK
    except SystemExit as exc:  # argparse usage failures and --help
        return int(exc.code or 0)
    except fracdyn.NumericalError as exc:
        print(f"fracsig: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, KeyError) as exc:
        print(f"fracsig: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
