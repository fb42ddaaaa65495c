"""Command-line front end.

Subcommands cover synthesis, multifractal analysis, feature
extraction, classifier training, coupling-convergence curves, and the
early-detection sweep.  All outputs are plain CSV/JSON so plotting
stays external.  Every command is deterministic under a fixed seed.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical
failure.

A config file passed with ``--config`` may set any flag default.  Its
grammar is one ``key = value`` pair per line, ``#`` starts a comment,
keys are the long flag names without the leading dashes.  Explicit
flags override config values.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import shutil
import stat
import sys
import tempfile
from contextlib import contextmanager
from itertools import count
from pathlib import Path

import numpy as np

from . import classify, fracdyn, mfdfa, records, synth, viral

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _csv_text(header, rows) -> str:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@contextmanager
def _staged(target):
    """Yield a new ``.``-prefixed directory to build ``target`` in; remove it on exit.

    The directory is made in ``target`` when that is an existing
    directory, else beside it, or in its nearest existing ancestor; so
    it is on the file system of ``target``, and each finished file moves
    into place with ``os.replace``, which swaps a whole file at once.  A
    command that fails before the move leaves ``target`` as it was and
    none of its own files behind.
    """
    target = Path(target)
    home = next(p for p in (target, *target.parents) if p.is_dir())
    stage = Path(tempfile.mkdtemp(prefix=f".{target.name}.", dir=home))
    try:
        yield stage
    finally:
        shutil.rmtree(stage, ignore_errors=True)


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


def _publish(stage, out_dir) -> None:
    """Make ``out_dir`` and move every file of ``stage`` into it."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for path in sorted(stage.iterdir()):
        _place(path, out_dir / path.name)


def _write_file(path, write) -> None:
    """Write ``path`` by calling ``write`` on a staged path, then place it there.

    A device or a pipe at ``path`` has nothing to stage: ``write`` writes
    through it.  Otherwise the staging directory is made beside the file
    that ``path`` names, after any symlinks, so that ``_place`` can swap it.
    """
    path = Path(path)
    if path.exists() and not path.is_file():
        write(path)
        return
    target = path.resolve()
    if not target.parent.is_dir():  # name the target, not the staged file
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))
    with _staged(target) as stage:
        write(stage / target.name)
        _place(stage / target.name, target)


def _write_text(path, text) -> None:
    _write_file(path, lambda staged: staged.write_text(text, encoding="utf-8", newline=""))


def _write_files(out_dir, texts) -> None:
    """Make ``out_dir`` and write each ``name: text`` of ``texts`` into it.

    Commands call this once every output is built, so a command that
    fails makes no directory and writes no file; the files are staged
    and moved into place, so a crash while writing leaves no part of one.
    """
    with _staged(out_dir) as stage:
        for name, text in texts.items():
            (stage / name).write_text(text, encoding="utf-8", newline="")
        _publish(stage, out_dir)


def _check_file_part(name, what, where) -> None:
    """Reject ``name``, read from ``where``, if it cannot be part of a file name."""
    if any(c in name for c in {"/", os.sep, "\0"}):
        raise ValueError(f"{where}: {what} {name!r} cannot be part of an output file name")


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


def _write_series(samples, label, out) -> int:
    """Write one generated series as a one-channel record headed ``label``."""
    record = records.MultichannelRecord(samples[None, :], (label,))
    _write_file(out, lambda staged: records.write_record(record, staged))
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_synth_fgn(args) -> int:
    samples = synth.synth_fgn(args.hurst, args.n, args.seed)
    return _write_series(samples, f"fgn-H{args.hurst:g}", args.out)


def _cmd_synth_cascade(args) -> int:
    samples = synth.synth_cascade(args.p, args.depth, args.seed, shuffle=args.shuffle)
    return _write_series(samples, f"cascade-p{args.p:g}", args.out)


def _cmd_synth_system(args) -> int:
    model = synth.random_stable_model(args.channels, args.seed, noise_scale=args.noise_scale)
    X = fracdyn.simulate(model, args.n, seed=args.seed)
    record = records.MultichannelRecord(X)
    _write_file(args.out, lambda staged: records.write_record(record, staged))
    if args.model_out:
        _write_text(args.model_out, fracdyn.model_to_json(model.alpha, model.A))
    print(f"wrote {args.out}")
    return EXIT_OK


def _write_record_set(out_dir, recs, extra=lambda r: {}) -> int:
    """Write ``<subject_id>.csv`` per record and a manifest with ``extra(record)`` added.

    ``recs`` may be any iterable: each record is written as it comes,
    into a staging directory whose files move into ``out_dir`` only
    after the manifest is written, so a failure part way leaves no
    ``out_dir``.  Returns the number of records.
    """
    entries = []
    with _staged(out_dir) as stage:
        for rec in recs:
            name = f"{rec.subject_id}.csv"
            records.write_record(rec, stage / name)
            entries.append(
                records.ManifestEntry(
                    name, rec.subject_id, rec.institution, rec.stage_label, extra(rec)
                )
            )
        records.write_manifest(entries, stage / "manifest.json")
        _publish(stage, out_dir)
    return len(entries)


def _cmd_synth_cohort(args) -> int:
    if args.per_class < 1:
        raise ValueError(f"--per-class must be at least 1, got {args.per_class}")
    cohort = synth._stage_cohort_records(  # streamed: one batch of records is held
        classify.N_STAGES * args.per_class, args.channels, args.seed, args.samples
    )
    written = _write_record_set(args.out_dir, cohort)
    print(f"wrote {written} records to {Path(args.out_dir)}")
    return EXIT_OK


def _cmd_synth_viral(args) -> int:
    cases = synth.synth_viral_cohort(
        args.subjects,
        args.infected,
        args.seed,
        side_samples=args.side_samples,
        alpha_shift=args.alpha_shift,
    )
    _write_record_set(
        args.out_dir,
        cases,
        lambda c: {"inoculation_index": c.inoculation_index, "infected": c.infected},
    )
    print(f"wrote {len(cases)} subjects to {Path(args.out_dir)}")
    return EXIT_OK


# ---------------------------------------------------------------- mfdfa


def _cmd_mfdfa(args) -> int:
    record = records.load_record(args.record)
    for label in record.labels:
        _check_file_part(label, "channel label", args.record)
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
    texts, lines = {}, []
    for label, samples in zip(record.labels, record.channels):
        try:
            sf = mfdfa.scaling_function(mfdfa.profile(samples), cfg)
        except ValueError as exc:
            raise ValueError(f"{args.record}: channel {label!r}: {exc}") from None
        spectrum = mfdfa.hurst_spectrum(sf)
        diag = mfdfa.scaling_diagnostics(sf)
        payload = mfdfa.spectrum_to_dict(sf, spectrum)
        payload["std_across_q"] = [float(v) for v in diag.std_across_q]
        payload["std_across_s"] = [float(v) for v in diag.std_across_s]
        texts[f"spectrum_{label}.json"] = _json_text(payload)
        logs = np.log2(sf.scale_grid.astype(float))
        for q, values in zip(sf.q_grid, sf.values):
            texts[f"sf_{label}_q{q:g}.csv"] = _csv_text(
                ("log2_s", "log2_sf"), zip(logs, np.log2(values))
            )
        lines.append(f"{label}: focus spread {payload['focus_spread']:.4f}")
    _write_files(args.out_dir, texts)
    print("\n".join(lines))
    return EXIT_OK


# -------------------------------------------------------------- extract


def _cmd_extract(args) -> int:
    fracdyn.check_fit_params(args.horizon, args.ridge)
    entries = records.load_manifest(args.manifest)
    lines = []  # written only once every record has its features
    for entry in entries:
        named = f"{entry.path}: subject {entry.subject_id!r}: "
        if entry.stage is None:
            raise ValueError(f"{named}record is unlabeled")
        record = records.load_record(entry.path)
        try:
            features = classify.extract_features(record, horizon=args.horizon, ridge=args.ridge)
        except fracdyn.NumericalError as exc:
            raise fracdyn.NumericalError(f"{named}{exc}") from None
        except ValueError as exc:
            raise ValueError(f"{named}{exc}") from None
        item = {
            "subject_id": entry.subject_id,
            "institution": entry.institution,
            "stage": entry.stage,
            "features": features.tolist(),
        }
        lines.append(json.dumps(item, sort_keys=True) + "\n")
    _write_text(args.out, "".join(lines))
    print(f"wrote {len(entries)} feature lines to {args.out}")
    return EXIT_OK


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
            except json.JSONDecodeError as exc:
                raise records.RecordFormatError(f"{where}: invalid JSON: {exc}") from None
            if not isinstance(item, dict):
                raise records.RecordFormatError(f"{where}: not a JSON object")
            for key in ("features", "stage"):
                if key not in item:
                    raise records.RecordFormatError(f"{where}: missing field {key!r}")
            try:
                features = np.asarray(item["features"], dtype=float).ravel()
                stage = int(item["stage"])
            except (TypeError, ValueError) as exc:
                raise records.RecordFormatError(f"{where}: {exc}") from None
            if not np.isfinite(features).all():
                raise records.RecordFormatError(f"{where}: features must be finite")
            if stage not in range(classify.N_STAGES):
                raise records.RecordFormatError(
                    f"{where}: stage must be in 0..{classify.N_STAGES - 1}"
                )
            if not rows:
                first_line = lineno
            elif features.size != rows[0].size:
                raise records.RecordFormatError(
                    f"{where}: {features.size} features, "
                    f"but line {first_line} has {rows[0].size}"
                )
            rows.append(features)
            stages.append(stage)
            institutions.append(str(item.get("institution", "")))
    if not rows:
        raise records.RecordFormatError(f"{path}: no feature lines")
    return np.stack(rows), np.array(stages), institutions


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


def _cmd_train(args) -> int:
    X, y, institutions = _load_features(args.features)
    if args.mode == "holdout":
        for name in institutions:
            _check_file_part(name, "institution", args.features)
    lr = args.learning_rate  # None keeps each model's own default step size
    cfg = classify.TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        dropout_rate=args.dropout,
        seed=args.seed,
        **({} if lr is None else {"learning_rate": lr}),
    )
    splits = list(_train_splits(args, y, institutions))
    for _, _, label, train, _ in splits:
        try:
            classify._check_classes(y[train])
        except ValueError as exc:
            raise ValueError(f"{label}: {exc}") from None
    accuracies, texts, lines = [], {}, []
    for metrics_name, curve_name, label, train, test in splits:
        scaler = classify.MinMaxScaler()
        Xtr = scaler.fit_transform(X[train])
        Xte = scaler.transform(X[test])
        ytr = y[train]
        if args.model == "mlp":
            params, history = classify.mlp_train(Xtr, ytr, cfg)
        else:
            params, losses = classify.logistic_train(
                Xtr, ytr, epochs=cfg.epochs, **({} if lr is None else {"lr": lr})
            )
            history = {"loss": losses, "accuracy": [float("nan")] * len(losses)}
        probs = classify.mlp_predict(params, Xte)
        metrics = classify.evaluate(y[test], probs)
        accuracies.append(metrics.accuracy)
        texts[metrics_name] = _json_text(metrics.to_dict())
        rows = zip(count(), history["loss"], history["accuracy"])
        texts[curve_name] = _csv_text(("epoch", "loss", "accuracy"), rows)
        lines.append(f"{label}: accuracy {metrics.accuracy:.4f}")
    summary = {
        "mode": args.mode,
        "model": args.model,
        "accuracy_mean": float(np.mean(accuracies)),
        "accuracy_std": float(np.std(accuracies)),
        "n_evaluations": len(accuracies),
    }
    texts["summary.json"] = _json_text(summary)
    _write_files(args.out_dir, texts)
    print("\n".join(lines))
    print(
        f"{args.mode} {args.model}: accuracy "
        f"{summary['accuracy_mean']:.4f} +/- {summary['accuracy_std']:.4f}"
    )
    return EXIT_OK


# ---------------------------------------------------------- convergence


def _cmd_convergence(args) -> int:
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
    record = records.load_record(args.record)
    named = f"{args.record}: "
    alpha = args.alpha
    try:
        if alpha is None:
            alpha = fracdyn.estimate_alphas(record.channels)
        elif len(alpha) != record.n_channels:
            raise ValueError(f"got {len(alpha)} alpha values for {record.n_channels} channels")
        lengths, dists = fracdyn.coupling_convergence(
            record.channels, np.asarray(alpha), int(round(samples)),
            horizon=args.horizon, ridge=args.ridge,
        )
    except mfdfa.ZeroFluctuationError as exc:
        raise ValueError(f"{named}{exc.naming(record.labels)}") from None
    except fracdyn.NumericalError as exc:
        raise fracdyn.NumericalError(f"{named}{exc}") from None
    except ValueError as exc:
        raise ValueError(f"{named}{exc}") from None
    times = lengths / args.rate
    _write_text(args.out, _csv_text(("time_s", "wasserstein"), zip(times, dists)))
    below = bool(dists[-1] < args.threshold)
    print(
        f"final distance {dists[-1]:.6f} at {times[-1]:g} s; "
        f"below {args.threshold:g}: {below}"
    )
    return EXIT_OK


# ---------------------------------------------------------------- viral


def _cmd_viral(args) -> int:
    entries = records.load_manifest(args.manifest)
    cases = []
    for entry in entries:
        for key in ("inoculation_index", "infected"):
            if key not in entry.extra:
                raise records.RecordFormatError(
                    f"{args.manifest}: subject {entry.subject_id!r} "
                    f"missing field {key!r}"
                )
        record = records.load_record(entry.path)
        cases.append(
            viral.SubjectCase(
                record.channels, record.labels, entry.subject_id,
                inoculation_index=int(entry.extra["inoculation_index"]),
                infected=bool(entry.extra["infected"]),
            )
        )
    spec = viral.WindowSpec(args.window, args.stride)
    rows = viral.shift_sweep(cases, args.shifts, spec)
    _write_text(args.out, _csv_text(("shift", "type_one", "type_two"), rows))
    for s, t1, t2 in rows:
        print(f"shift {s}: type I {t1}, type II {t2}")
    return EXIT_OK


# ----------------------------------------------------------- arg wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="fracsig", description=__doc__.split("\n\n")[0])
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
    p.add_argument(
        "--q", type=_list_of(float), default="-5,-3,-1,1,3,5",
        help="comma-separated moment orders; a list starting with a negative "
        "item is written --q=-5,-3,3",
    )
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
    p.add_argument(
        "--shifts", type=_list_of(int), default="-200,-100,0,100,200",
        help="comma-separated inoculation shifts in samples; a list starting "
        "with a negative item is written --shifts=-200,0",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_viral)

    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Splice config-file pairs in as flags before the explicit ones."""
    if "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 >= len(argv):
        return argv  # argparse reports the missing value
    path = Path(argv[at + 1])
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
            extra.append(f"{flag}={value}")  # one token, so "-200,0" is not read as a flag
    # insert right after the subcommand tokens so explicit flags still win
    cut = None
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--config":
            i += 2
            continue
        if not tok.startswith("-"):
            cut = i + 1
            if tok == "synth" and cut < len(argv):
                cut += 1  # the generator kind follows
            break
        i += 1
    if cut is None:
        return argv
    return argv[:cut] + extra + argv[cut:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        argv = _apply_config(argv)
        args = parser.parse_args(argv)
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be nonnegative, got {args.seed}")
        return args.func(args)
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
