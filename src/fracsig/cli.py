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
import json
import sys
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


def _float_cell(v: float) -> str:
    return repr(float(v))


def _write_csv(path, header, rows) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, payload) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _parse_list(text, cast):
    try:
        return tuple(cast(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad list value: {text!r}") from None


# ---------------------------------------------------------------- synth


def _cmd_synth_fgn(args) -> int:
    series = synth.synth_fgn(args.hurst, args.n, args.seed, rate_hz=args.rate)
    records.write_record(records.MultichannelRecord((series,)), args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_synth_cascade(args) -> int:
    series = synth.synth_cascade(
        args.p, args.depth, args.seed, shuffle=args.shuffle, rate_hz=args.rate
    )
    records.write_record(records.MultichannelRecord((series,)), args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_synth_system(args) -> int:
    spec = synth.SyntheticSpec(
        "fractional-system",
        args.n,
        args.seed,
        {"n_channels": args.channels, "noise_scale": args.noise_scale},
    )
    record, model = synth.synth_fractional_system(spec, rate_hz=args.rate)
    records.write_record(record, args.out)
    if args.model_out:
        Path(args.model_out).write_text(
            fracdyn.model_to_json(model.alpha, model.A), encoding="utf-8"
        )
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_synth_cohort(args) -> int:
    if args.classes != classify.N_STAGES:
        raise ValueError(f"cohort generator supports exactly {classify.N_STAGES} classes")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cohort = synth.synth_stage_cohort(
        n_records=args.classes * args.per_class,
        n_channels=args.channels,
        seed=args.seed,
        n_samples=args.samples,
    )
    entries = []
    for i, record in enumerate(cohort):
        name = f"rec{i:03d}.csv"
        records.write_record(record, out_dir / name)
        entries.append(
            records.ManifestEntry(
                path=name,
                subject_id=record.subject_id,
                institution=record.institution,
                stage=record.stage_label,
            )
        )
    records.write_manifest(entries, out_dir / "manifest.json")
    print(f"wrote {len(entries)} records to {out_dir}")
    return EXIT_OK


def _cmd_synth_viral(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cases = synth.synth_viral_cohort(
        args.subjects,
        args.infected,
        args.seed,
        side_samples=args.side_samples,
        alpha_shift=args.alpha_shift,
    )
    entries = []
    for case in cases:
        name = f"{case.subject_id}.csv"
        channels = tuple(
            records.TimeSeries(row, args.rate, label=f"ch{c:02d}")
            for c, row in enumerate(case.channels)
        )
        records.write_record(records.MultichannelRecord(channels), out_dir / name)
        entries.append(
            records.ManifestEntry(
                path=name,
                subject_id=case.subject_id,
                extra={
                    "inoculation_index": case.inoculation_index,
                    "infected": case.infected,
                },
            )
        )
    records.write_manifest(entries, out_dir / "manifest.json")
    print(f"wrote {len(entries)} subjects to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------- mfdfa


def _cmd_mfdfa(args) -> int:
    record = records.load_record(args.record, args.rate)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scale_grid = None
    if args.scales:
        scale_grid = _parse_list(args.scales, int)
    elif args.dyadic:
        scale_grid = tuple(mfdfa.dyadic_scale_grid(record.n_samples))
    cfg = mfdfa.MfdfaConfig(
        q_grid=_parse_list(args.q, float),
        scale_grid=scale_grid,
        detrend_order=args.detrend_order,
        q_zero_mode=args.q_zero_mode,
        both_ends=args.both_ends,
    )
    for channel in record.channels:
        sf = mfdfa.scaling_function(mfdfa.profile(channel.samples), cfg)
        spectrum = mfdfa.hurst_spectrum(sf)
        diag = mfdfa.scaling_diagnostics(sf)
        payload = mfdfa.spectrum_to_dict(sf, spectrum)
        payload["std_across_q"] = [float(v) for v in diag.std_across_q]
        payload["std_across_s"] = [float(v) for v in diag.std_across_s]
        _write_json(out_dir / f"spectrum_{channel.label}.json", payload)
        logs = np.log2(sf.scale_grid.astype(float))
        for qi, q in enumerate(sf.q_grid):
            rows = [
                (_float_cell(ls), _float_cell(lv))
                for ls, lv in zip(logs, np.log2(sf.values[qi]))
            ]
            _write_csv(
                out_dir / f"sf_{channel.label}_q{q:g}.csv",
                ("log2_s", "log2_sf"),
                rows,
            )
        focus = mfdfa.focus_point(sf, spectrum)
        print(f"{channel.label}: focus spread {focus.spread:.4f}")
    return EXIT_OK


# -------------------------------------------------------------- extract


def _cmd_extract(args) -> int:
    entries = records.load_manifest(args.manifest)
    with Path(args.out).open("w", encoding="utf-8") as fh:
        for entry in entries:
            record = records.load_record(
                entry.path,
                args.rate,
                subject_id=entry.subject_id,
                institution=entry.institution,
                stage_label=entry.stage,
            )
            case = classify.extract_features(
                record, horizon=args.horizon, ridge=args.ridge
            )
            fh.write(
                json.dumps(
                    {
                        "subject_id": case.subject_id,
                        "institution": case.institution,
                        "stage": case.stage,
                        "features": [float(v) for v in case.features],
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    print(f"wrote {len(entries)} feature lines to {args.out}")
    return EXIT_OK


def _load_features(path) -> list[classify.LabeledCase]:
    cases = []
    with Path(path).open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                item = json.loads(line)
            except json.JSONDecodeError as exc:
                raise records.RecordFormatError(
                    f"{path}: line {lineno}: invalid JSON: {exc}"
                ) from None
            for key in ("features", "stage"):
                if key not in item:
                    raise records.RecordFormatError(
                        f"{path}: line {lineno}: missing field {key!r}"
                    )
            cases.append(
                classify.LabeledCase(
                    np.asarray(item["features"], dtype=float),
                    int(item["stage"]),
                    institution=str(item.get("institution", "")),
                    subject_id=str(item.get("subject_id", "")),
                )
            )
    if not cases:
        raise records.RecordFormatError(f"{path}: no feature lines")
    return cases


# ---------------------------------------------------------------- train


def _history_rows(history):
    loss = history["loss"]
    acc = history.get("accuracy", [float("nan")] * len(loss))
    return [
        (str(e), _float_cell(l), _float_cell(a))
        for e, (l, a) in enumerate(zip(loss, acc))
    ]


def _train_splits(args, cases):
    """Yield (metrics file, curve file, label, train cases, test cases)
    for each k-fold split or held-out institution."""
    if args.mode == "kfold":
        for fi, (train, test) in enumerate(classify.kfold(cases, args.folds, args.seed)):
            train, test = [cases[i] for i in train], [cases[i] for i in test]
            yield f"fold{fi}.json", f"curve_fold{fi}.csv", f"fold {fi}", train, test
    else:
        for name in sorted({c.institution for c in cases}):
            train, test = classify.holdout(cases, name, args.seed)
            yield f"holdout_{name}.json", f"curve_{name}.csv", f"holdout {name}", train, test


def _cmd_train(args) -> int:
    cases = _load_features(args.features)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lr = args.learning_rate  # None keeps each model's own default step size
    cfg = classify.TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        dropout_rate=args.dropout,
        seed=args.seed,
        **({} if lr is None else {"learning_rate": lr}),
    )
    accuracies = []
    for metrics_name, curve_name, label, train, test in _train_splits(args, cases):
        scaler = classify.MinMaxScaler()
        Xtr = scaler.fit_transform(np.stack([c.features for c in train]))
        Xte = scaler.transform(np.stack([c.features for c in test]))
        ytr = np.array([c.stage for c in train])
        if args.model == "mlp":
            params, history = classify.mlp_train(Xtr, ytr, cfg)
        else:
            params, losses = classify.logistic_train(
                Xtr, ytr, epochs=cfg.epochs, **({} if lr is None else {"lr": lr})
            )
            history = {"loss": losses}
        probs = classify.mlp_predict(params, Xte)
        metrics = classify.evaluate([c.stage for c in test], probs)
        accuracies.append(metrics.accuracy)
        _write_json(out_dir / metrics_name, metrics.to_dict())
        _write_csv(
            out_dir / curve_name, ("epoch", "loss", "accuracy"), _history_rows(history)
        )
        print(f"{label}: accuracy {metrics.accuracy:.4f}")
    summary = {
        "mode": args.mode,
        "model": args.model,
        "accuracy_mean": float(np.mean(accuracies)),
        "accuracy_std": float(np.std(accuracies)),
        "n_evaluations": len(accuracies),
    }
    _write_json(out_dir / "summary.json", summary)
    print(
        f"{args.mode} {args.model}: accuracy "
        f"{summary['accuracy_mean']:.4f} +/- {summary['accuracy_std']:.4f}"
    )
    return EXIT_OK


# ---------------------------------------------------------- convergence


def _cmd_convergence(args) -> int:
    record = records.load_record(args.record, args.rate)
    X = record.as_matrix()
    if args.alpha:
        alpha = np.asarray(_parse_list(args.alpha, float))
        if alpha.size != record.n_channels:
            raise ValueError(
                f"got {alpha.size} alpha values for {record.n_channels} channels"
            )
    else:
        alpha = fracdyn.estimate_alphas(X)
    times, dists = fracdyn.coupling_convergence(
        record, alpha, args.step_seconds, horizon=args.horizon, ridge=args.ridge
    )
    _write_csv(
        args.out,
        ("time_s", "wasserstein"),
        [(_float_cell(t), _float_cell(d)) for t, d in zip(times, dists)],
    )
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
        record = records.load_record(entry.path, args.rate, subject_id=entry.subject_id)
        cases.append(
            viral.SubjectCase(
                record.as_matrix(),
                inoculation_index=int(entry.extra["inoculation_index"]),
                infected=bool(entry.extra["infected"]),
                subject_id=entry.subject_id,
            )
        )
    spec = viral.WindowSpec(args.window, args.stride)
    shifts = _parse_list(args.shifts, int)
    rows = viral.shift_sweep(cases, shifts, spec)
    _write_csv(
        args.out,
        ("shift", "type_one", "type_two"),
        [(str(s), str(t1), str(t2)) for s, t1, t2 in rows],
    )
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
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth_fgn)

    p = kinds.add_parser("cascade", help="binomial multiplicative cascade")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shuffle", action="store_true")
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth_cascade)

    p = kinds.add_parser("system", help="random stable fractional system")
    p.add_argument("--channels", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-scale", type=float, default=1.0)
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.add_argument("--model-out", help="also write the ground-truth model JSON")
    p.set_defaults(func=_cmd_synth_system)

    p = kinds.add_parser("cohort", help="labeled 5-class cohort + manifest")
    p.add_argument("--classes", type=int, default=classify.N_STAGES)
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
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_synth_viral)

    p = sub.add_parser("mfdfa", help="scaling function and Hurst spectrum")
    p.add_argument("record")
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--q", default="-5,-3,-1,1,3,5")
    p.add_argument("--scales", help="comma-separated window sizes")
    p.add_argument("--dyadic", action="store_true", help="power-of-two scales")
    p.add_argument("--detrend-order", type=int, default=1)
    p.add_argument("--q-zero-mode", choices=("exclude", "log-average"), default="exclude")
    p.add_argument("--both-ends", action="store_true")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_mfdfa)

    p = sub.add_parser("extract", help="coupling-matrix features from a manifest")
    p.add_argument("manifest")
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--horizon", type=int, default=fracdyn.DEFAULT_HORIZON)
    p.add_argument("--ridge", type=float, default=1e-6)
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
    p.add_argument("--alpha", help="comma-separated known orders; estimated if absent")
    p.add_argument("--step-seconds", type=float, default=60.0)
    p.add_argument("--horizon", type=int, default=fracdyn.DEFAULT_HORIZON)
    p.add_argument("--ridge", type=float, default=1e-6)
    p.add_argument("--threshold", type=float, default=0.02)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser("viral", help="inoculation-shift error sweep")
    p.add_argument("manifest")
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--window", type=int, default=3000)
    p.add_argument("--stride", type=int, default=100)
    p.add_argument("--shifts", default="-200,-100,0,100,200")
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
            extra.extend([flag, value])
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
        return args.func(args)
    except SystemExit as exc:  # argparse usage failures and --help
        return int(exc.code or 0)
    except fracdyn.NumericalError as exc:
        print(f"fracsig: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (records.RecordFormatError, ValueError, OSError, KeyError) as exc:
        print(f"fracsig: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
