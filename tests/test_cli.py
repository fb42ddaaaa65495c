import errno
import json
import os
import stat
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fracsig import classify, cli, fracdyn, records, synth


def run(*argv):
    return cli.main(list(argv))


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert run("bogus") == cli.EXIT_USAGE

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run("synth", "fgn", "--n", "1024") == cli.EXIT_USAGE

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = run("mfdfa", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path))
        assert code == cli.EXIT_DATA

    def test_repeated_header_label_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "dup.csv"
        bad.write_text("a,b,a\n1.0,2.0,3.0\n")
        code = run("mfdfa", str(bad), "--out-dir", str(tmp_path))
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "dup.csv: row 1: channel label 'a' repeated in columns 1 and 3" in err

    def test_malformed_record_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a\n1.0\nx\n")
        code = run("mfdfa", str(bad), "--out-dir", str(tmp_path))
        assert code == cli.EXIT_DATA
        assert "row 3" in capsys.readouterr().err

    def test_success_is_zero(self, tmp_path, capsys):
        assert (
            run(
                "synth", "fgn", "--hurst", "0.5", "--n", "1024",
                "--out", str(tmp_path / "x.csv"),
            )
            == cli.EXIT_OK
        )


    @pytest.mark.parametrize(
        "argv, named",
        [
            (["cohort", "--per-class", "1", "--channels", "2", "--samples", "0",
              "--out-dir", "c"], "T=0"),
            (["system", "--channels", "2", "--n", "0", "--out", "x.csv"], "T=0"),
            (["system", "--channels", "0", "--n", "100", "--out", "x.csv"], "n=0"),
            (["cohort", "--per-class", "0", "--channels", "2", "--samples", "100",
              "--out-dir", "c"], "--per-class"),
            (["cohort", "--per-class", "-1", "--channels", "2", "--samples", "100",
              "--out-dir", "c"], "--per-class"),
            (["viral", "--subjects", "0", "--out-dir", "c"], "n_subjects=0"),
            (["viral", "--subjects", "4", "--infected", "9", "--out-dir", "c"],
             "n_infected=9"),
        ],
        ids=["samples", "n", "channels", "per-class-zero", "per-class-negative",
             "viral-subjects-zero", "viral-infected-above-subjects"],
    )
    def test_zero_size_is_data_error(self, tmp_path, capsys, argv, named):
        argv = [str(tmp_path / a) if a in ("c", "x.csv") else a for a in argv]
        assert run("synth", *argv) == cli.EXIT_DATA
        assert named in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_cohort_out_of_redraws_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(synth, "_COHORT_JITTER", 50.0)
        out = tmp_path / "cohort"
        code = run("synth", "cohort", "--per-class", "2", "--channels", "4", "--samples", "400",
                   "--out-dir", str(out))
        assert code == cli.EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert "fracsig: numerical failure: could not draw a stable jittered model" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "fgn", "--hurst", "0.5", "--n", "1024", "--out", "x.csv"],
            ["synth", "cascade", "--p", "0.7", "--depth", "10", "--out", "x.csv"],
            ["synth", "system", "--channels", "2", "--n", "100", "--out", "x.csv"],
            ["synth", "cohort", "--per-class", "1", "--channels", "2", "--samples", "100",
             "--out-dir", "c"],
            ["synth", "viral", "--subjects", "2", "--infected", "1", "--out-dir", "c"],
            ["train", "f.jsonl", "--out-dir", "c"],
        ],
        ids=["fgn", "cascade", "system", "cohort", "viral", "train"],
    )
    def test_negative_seed_names_the_flag(self, tmp_path, capsys, argv):
        argv = [str(tmp_path / a) if a in ("c", "x.csv", "f.jsonl") else a for a in argv]
        assert run(*argv, "--seed", "-1") == cli.EXIT_DATA
        assert "fracsig: error: --seed must be nonnegative, got -1" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestSynthSystem:
    def test_files_match_the_library(self, tmp_path, capsys):
        rec, model_out = tmp_path / "sys.csv", tmp_path / "model.json"
        assert run(
            "synth", "system", "--channels", "4", "--n", "600", "--seed", "2",
            "--noise-scale", "0.7",
            "--out", str(rec), "--model-out", str(model_out),
        ) == 0
        model = synth.random_stable_model(4, 2, noise_scale=0.7)
        written = json.loads(model_out.read_text())
        np.testing.assert_array_equal(written["alpha"], model.alpha)
        np.testing.assert_array_equal(np.reshape(written["A"], (4, 4)), model.A)
        expected = fracdyn.simulate(model, 600, seed=2)
        loaded = records.load_record(rec)
        np.testing.assert_array_equal(loaded.channels, expected)
        assert loaded.labels == ("ch00", "ch01", "ch02", "ch03")


class TestSynthSeries:
    @pytest.mark.parametrize(
        "argv, header, expected",
        [
            (["fgn", "--hurst", "0.7", "--n", "1024", "--seed", "3"], "fgn-H0.7",
             lambda: synth.synth_fgn(0.7, 1024, 3)),
            (["cascade", "--p", "0.7", "--depth", "10", "--seed", "3", "--shuffle"],
             "cascade-p0.7", lambda: synth.synth_cascade(0.7, 10, 3, shuffle=True)),
        ],
        ids=["fgn", "cascade"],
    )
    def test_file_is_the_library_array_under_its_header(self, tmp_path, capsys,
                                                         argv, header, expected):
        rec = tmp_path / "series.csv"
        assert run("synth", *argv, "--out", str(rec)) == 0
        loaded = records.load_record(rec)
        assert loaded.labels == (header,)
        np.testing.assert_array_equal(loaded.channels, expected()[None, :])


class TestDeterminism:
    def test_fgn_reruns_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(
                "synth", "fgn", "--hurst", "0.8", "--n", "2048", "--seed", "9",
                "--out", str(out),
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("synth", "fgn", "--hurst", "0.8", "--n", "2048", "--seed", "1", "--out", str(a))
        run("synth", "fgn", "--hurst", "0.8", "--n", "2048", "--seed", "2", "--out", str(b))
        assert a.read_bytes() != b.read_bytes()


class TestMfdfaCommand:
    def test_outputs(self, tmp_path, capsys):
        rec = tmp_path / "casc.csv"
        run("synth", "cascade", "--p", "0.75", "--depth", "12", "--out", str(rec))
        out = tmp_path / "mf"
        assert run("mfdfa", str(rec), "--dyadic", "--out-dir", str(out)) == 0
        spectra = list(out.glob("spectrum_*.json"))
        assert len(spectra) == 1
        payload = json.loads(spectra[0].read_text())
        assert payload["focus_spread"] <= 1.05
        assert len(list(out.glob("sf_*_q*.csv"))) == 6
        header = next(iter(out.glob("sf_*_q*.csv"))).read_text().splitlines()[0]
        assert header == "log2_s,log2_sf"

    def test_invalid_flag_makes_no_directory(self, tmp_path, capsys):
        rec = tmp_path / "casc.csv"
        run("synth", "cascade", "--p", "0.75", "--depth", "10", "--out", str(rec))
        out = tmp_path / "mf"
        assert run("mfdfa", str(rec), "--q=0", "--out-dir", str(out)) == cli.EXIT_DATA
        assert "q_grid contains only 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "labels, named",
        [(("ok", "a/b", "c"),
          "channel label 'a/b' cannot be part of an output file name"),
         (("flat", "ok", "c"),
          "channel 'flat': zero fluctuation in window 0 at scale 16"),
         (("ok", "flat", "c"),
          "channel 'flat': zero fluctuation in window 0 at scale 16")],
        ids=["label-with-slash", "constant-channel", "later-constant-channel"],
    )
    def test_bad_record_names_it_and_writes_nothing(self, tmp_path, capsys, labels, named):
        rec = tmp_path / "rec.csv"
        X = np.random.default_rng(0).standard_normal((3, 1024))
        if "flat" in labels:
            X[labels.index("flat")] = 2.0
        records.write_record(records.MultichannelRecord(X, labels), rec)
        out = tmp_path / "mf"
        assert run("mfdfa", str(rec), "--out-dir", str(out)) == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert f"fracsig: error: {rec}: {named}" in captured.err
        assert captured.out == ""  # nothing is reported for channels left unwritten
        assert not out.exists()


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    assert cli.main(
        [
            "synth", "cohort", "--per-class", "3", "--channels", "3",
            "--samples", "1200", "--seed", "5", "--out-dir", str(out),
        ]
    ) == 0
    return out


class TestPipelineCommands:
    def test_cohort_layout(self, cohort_dir):
        manifest = json.loads((cohort_dir / "manifest.json").read_text())
        assert len(manifest) == 15
        assert {e["institution"] for e in manifest} == {
            "site-a", "site-b", "site-c", "site-d"
        }
        assert sorted({e["stage"] for e in manifest}) == [0, 1, 2, 3, 4]

    def test_extract_and_train(self, cohort_dir, tmp_path, capsys):
        feats = tmp_path / "features.jsonl"
        assert run("extract", str(cohort_dir / "manifest.json"), "--out", str(feats)) == 0
        lines = [json.loads(l) for l in feats.read_text().splitlines()]
        assert len(lines) == 15
        assert all(len(l["features"]) == 9 for l in lines)

        out = tmp_path / "run"
        code = run(
            "train", str(feats), "--mode", "kfold", "--folds", "3",
            "--epochs", "5", "--out-dir", str(out),
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_evaluations"] == 3
        assert (out / "fold0.json").exists()
        assert (out / "curve_fold0.csv").exists()

    def test_extract_constant_channel_is_data_error(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        good = rng.standard_normal((2, 1200))
        constant = np.stack([rng.standard_normal(1200), np.zeros(1200)])
        entries = []
        for name, channels in [("good", good), ("subj-9", constant)]:
            records.write_record(
                records.MultichannelRecord(channels, ("c0", "c1")), tmp_path / f"{name}.csv"
            )
            entries.append(records.ManifestEntry(f"{name}.csv", name, "site-a", stage=1))
        records.write_manifest(entries, tmp_path / "manifest.json")
        out = tmp_path / "features.jsonl"
        code = run("extract", str(tmp_path / "manifest.json"), "--out", str(out))
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"{tmp_path / 'subj-9.csv'}: subject 'subj-9': channel 'c1' is constant" in err
        assert err.count("subj-9'") == 1  # the path prefix does not repeat the subject
        assert not out.exists()  # no partial feature file for train to read

    def test_extract_names_a_record_too_short_to_estimate(self, tmp_path, capsys):
        cohort = tmp_path / "cohort"
        assert run("synth", "cohort", "--per-class", "1", "--channels", "2",
                   "--samples", "40", "--out-dir", str(cohort)) == 0
        out = tmp_path / "features.jsonl"
        code = run("extract", str(cohort / "manifest.json"), "--out", str(out))
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert (f"{cohort / 'rec000.csv'}: subject 'rec000': "
                "need at least 1024 samples, got 40") in err
        assert not out.exists()

    def test_extract_names_a_record_with_zero_fluctuation(self, tmp_path, capsys):
        # each value held for 16 samples: every scale-16 window is a straight
        # line, though the channel is not constant
        rng = np.random.default_rng(0)
        X = np.stack([rng.standard_normal(2048), np.repeat(rng.standard_normal(128), 16)])
        records.write_record(records.MultichannelRecord(X), tmp_path / "held.csv")
        records.write_manifest([records.ManifestEntry("held.csv", "s1", "site-a", stage=1)],
                               tmp_path / "manifest.json")
        out = tmp_path / "features.jsonl"
        code = run("extract", str(tmp_path / "manifest.json"), "--out", str(out))
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"{tmp_path / 'held.csv'}: " in err
        assert "zero fluctuation in every window at scale 16" in err
        assert "channel 'ch01': zero fluctuation" in err
        assert "row 0" not in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_extract_unlabeled_record_is_data_error(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        for name in ("s1", "s2"):
            records.write_record(records.MultichannelRecord(rng.standard_normal((2, 1200))),
                                 tmp_path / f"{name}.csv")
        records.write_manifest(
            [records.ManifestEntry("s1.csv", "s1", "site-a", stage=1),
             records.ManifestEntry("s2.csv", "s2", "site-a")],
            tmp_path / "manifest.json",
        )
        out = tmp_path / "features.jsonl"
        code = run("extract", str(tmp_path / "manifest.json"), "--out", str(out))
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"{tmp_path / 's2.csv'}: subject 's2': record is unlabeled" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["extract", "MANIFEST", "--ridge", "-0.5"],
             "ridge must be finite and nonnegative, got -0.5"),
            (["extract", "MANIFEST", "--horizon", "-3"], "horizon must be at least 1, got -3"),
            (["convergence", "SYSTEM", "--horizon", "-3"], "horizon must be at least 1, got -3"),
            (["convergence", "SYSTEM", "--step-seconds", "0.4"],
             "step of 0.4 s at 1 Hz is 0.4 samples; need a finite step"),
            (["convergence", "SYSTEM", "--step-seconds", "inf"],
             "step of inf s at 1 Hz is inf samples; need a finite step"),
            (["convergence", "SYSTEM", "--rate", "inf"],
             "--rate must be positive and finite, got inf"),
            (["convergence", "SYSTEM", "--rate", "0"], "--rate must be positive and finite, got 0"),
            (["convergence", "SYSTEM", "--rate", "-1"],
             "--rate must be positive and finite, got -1"),
            (["convergence", "SYSTEM", "--rate", "nan"],
             "--rate must be positive and finite, got nan"),
            (["convergence", "SYSTEM", "--threshold", "nan"],
             "--threshold must be finite and nonnegative, got nan"),
            (["convergence", "SYSTEM", "--threshold", "inf"],
             "--threshold must be finite and nonnegative, got inf"),
            (["convergence", "SYSTEM", "--threshold", "-1"],
             "--threshold must be finite and nonnegative, got -1"),
        ],
        ids=["extract-negative-ridge", "extract-negative-horizon",
             "convergence-negative-horizon", "convergence-step-below-one-sample",
             "convergence-infinite-step", "convergence-inf-rate",
             "convergence-zero-rate", "convergence-neg-rate", "convergence-nan-rate",
             "convergence-nan-threshold", "convergence-infinite-threshold",
             "convergence-negative-threshold"],
    )
    def test_bad_coupling_fit_parameter_is_data_error(self, cohort_dir, tmp_path, capsys,
                                                      argv, named):
        system = tmp_path / "sys.csv"
        run("synth", "system", "--channels", "3", "--n", "1200", "--out", str(system))
        inputs = {"MANIFEST": str(cohort_dir / "manifest.json"), "SYSTEM": str(system)}
        out = tmp_path / "out.txt"
        argv = [inputs.get(a, a) for a in argv]
        assert run(*argv, "--out", str(out)) == cli.EXIT_DATA
        # a flag's error names the flag's value, not a record
        assert f"fracsig: error: {named}" in capsys.readouterr().err
        assert not out.exists()

    def test_convergence(self, tmp_path, capsys):
        rec = tmp_path / "sys.csv"
        run("synth", "system", "--channels", "3", "--n", "2500", "--seed", "1",
            "--out", str(rec))
        curve = tmp_path / "curve.csv"
        assert run(
            "convergence", str(rec), "--step-seconds", "300", "--out", str(curve)
        ) == 0
        rows = curve.read_text().splitlines()
        assert rows[0] == "time_s,wasserstein"
        assert len(rows) > 2

    def test_convergence_with_one_fittable_prefix_is_data_error(self, tmp_path, capsys):
        rec = tmp_path / "sys.csv"
        run("synth", "system", "--channels", "12", "--n", "250", "--out", str(rec))
        curve = tmp_path / "curve.csv"
        code = run(
            "convergence", str(rec), "--alpha=" + ",".join(["0.3"] * 12),
            "--step-seconds", "100", "--out", str(curve),
        )
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "record length 250 with a step of 100 samples" in err
        assert "at least 171 samples" in err
        assert "Traceback" not in err
        assert not curve.exists()

    @pytest.mark.parametrize(
        "samples, flat, named",
        [(2048, True, "channel 'flat': zero fluctuation in every window at scale 16"),
         (800, False, "need at least 1024 samples, got 800")],
        ids=["constant-channel", "too-short"],
    )
    def test_convergence_names_the_record(self, tmp_path, capsys, samples, flat, named):
        rec = tmp_path / "rec.csv"
        X = np.random.default_rng(0).standard_normal((3, samples))
        if flat:
            X[2] = 1.0
        records.write_record(records.MultichannelRecord(X, ("a", "b", "flat")), rec)
        curve = tmp_path / "curve.csv"
        assert run("convergence", str(rec), "--out", str(curve)) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"fracsig: error: {rec}: {named}" in err
        assert "row 2" not in err
        assert not curve.exists()

    @pytest.mark.parametrize(
        "stage, named",
        [('"x"', "entry 1: stage 'x' is not an integer"),
         ("7", "entry 1: stage 7 is not in 0..4")],
        ids=["not-an-integer", "out-of-range"],
    )
    def test_extract_bad_manifest_stage_names_entry(self, cohort_dir, tmp_path, capsys,
                                                     stage, named):
        entries = json.loads((cohort_dir / "manifest.json").read_text())[:2]
        for entry in entries:
            entry["path"] = str(cohort_dir / entry["path"])
        text = json.dumps(entries).replace('"stage": 1', f'"stage": {stage}')
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        out = tmp_path / "features.jsonl"
        assert run("extract", str(manifest), "--out", str(out)) == cli.EXIT_DATA
        assert f"{manifest}: {named}" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def cohort_features(cohort_dir, tmp_path_factory):
    feats = tmp_path_factory.mktemp("features") / "features.jsonl"
    assert cli.main(
        ["extract", str(cohort_dir / "manifest.json"), "--out", str(feats)]
    ) == 0
    return feats


class TestTrainVariants:
    @pytest.mark.parametrize(
        "mode, model",
        [("holdout", "mlp"), ("kfold", "logistic"), ("holdout", "logistic")],
    )
    def test_outputs_and_byte_identical_rerun(
        self, cohort_features, tmp_path, capsys, mode, model
    ):
        if mode == "kfold":
            names = [f"fold{i}" for i in range(3)]
            expected = {f"fold{i}.json" for i in range(3)}
            expected |= {f"curve_fold{i}.csv" for i in range(3)}
        else:
            names = ["site-a", "site-b", "site-c", "site-d"]
            expected = {f"holdout_{n}.json" for n in names}
            expected |= {f"curve_{n}.csv" for n in names}
        expected.add("summary.json")

        outs, stdouts = [], []
        for run_name in ("a", "b"):
            out = tmp_path / run_name
            assert run(
                "train", str(cohort_features), "--mode", mode, "--model", model,
                "--folds", "3", "--epochs", "5", "--out-dir", str(out),
            ) == 0
            outs.append(out)
            stdouts.append(capsys.readouterr().out)

        a, b = outs
        assert {p.name for p in a.iterdir()} == expected
        summary = json.loads((a / "summary.json").read_text())
        assert summary["mode"] == mode and summary["model"] == model
        assert summary["n_evaluations"] == len(names)
        for name in sorted(expected):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        assert stdouts[0] == stdouts[1]
        assert len(stdouts[0].splitlines()) == len(names) + 1

    def test_logistic_learning_rate_reaches_the_trainer(self, cohort_features, tmp_path, capsys):
        outs = []
        for rate in ("0.001", "0.5"):
            out = tmp_path / rate
            assert run(
                "train", str(cohort_features), "--model", "logistic", "--folds", "3",
                "--epochs", "20", "--learning-rate", rate, "--out-dir", str(out),
            ) == 0
            outs.append((out / "curve_fold0.csv").read_bytes())
        assert outs[0] != outs[1]

    def test_non_positive_learning_rate_is_data_error(self, cohort_features, tmp_path, capsys):
        for model in ("mlp", "logistic"):
            assert run(
                "train", str(cohort_features), "--model", model, "--epochs", "2",
                "--learning-rate", "0", "--out-dir", str(tmp_path / model),
            ) == cli.EXIT_DATA


class TestViralCommand:
    def test_files_match_the_library(self, tmp_path, capsys):
        out = tmp_path / "vir"
        assert run(
            "synth", "viral", "--subjects", "4", "--infected", "2",
            "--side-samples", "1200", "--seed", "6", "--out-dir", str(out),
        ) == 0
        cases = synth.synth_viral_cohort(4, 2, 6, side_samples=1200)
        manifest = json.loads((out / "manifest.json").read_text())
        assert [e["subject_id"] for e in manifest] == [c.subject_id for c in cases]
        for case, entry in zip(cases, manifest):
            assert entry["inoculation_index"] == case.inoculation_index
            assert entry["infected"] == case.infected
            expected = tmp_path / "expected.csv"
            records.write_record(case, expected)
            assert (out / entry["path"]).read_bytes() == expected.read_bytes()

    def test_sweep_and_missing_field(self, tmp_path, capsys):
        out = tmp_path / "vir"
        assert run(
            "synth", "viral", "--subjects", "6", "--infected", "3",
            "--side-samples", "4800", "--seed", "3", "--out-dir", str(out),
        ) == 0
        sweep = tmp_path / "sweep.csv"
        assert run(
            "viral", str(out / "manifest.json"), "--stride", "300",
            "--shifts=-300,0,300", "--out", str(sweep),
        ) == 0
        rows = sweep.read_text().splitlines()
        assert rows[0] == "shift,type_one,type_two"
        assert len(rows) == 4

        # strip a required field and expect it named in the error
        manifest = json.loads((out / "manifest.json").read_text())
        for entry in manifest:
            entry.pop("infected")
        broken = out / "broken.json"
        broken.write_text(json.dumps(manifest))
        code = run("viral", str(broken), "--out", str(sweep))
        assert code == cli.EXIT_DATA
        assert "infected" in capsys.readouterr().err

    def test_short_side_names_subject_and_shift(self, tmp_path, capsys):
        out = tmp_path / "vir"
        assert run(
            "synth", "viral", "--subjects", "3", "--infected", "1", "--out-dir", str(out),
        ) == 0
        sweep = tmp_path / "sweep.csv"
        code = run("viral", str(out / "manifest.json"), "--shifts=0,1500", "--out", str(sweep))
        assert code == cli.EXIT_DATA
        assert (
            "subject 'subj00': shift 1500: need >= 5 windows per side, "
            "got 28 pre and 0 post at split 5700"
        ) in capsys.readouterr().err
        assert not sweep.exists()

    def test_unfittable_window_is_data_error(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        entries = []
        for i in range(3):
            X = rng.standard_normal((3, 4096))
            if i == 0:
                X[1, :2048] = 0.5  # ch01 constant over the pre side
            records.write_record(records.MultichannelRecord(X), tmp_path / f"s{i}.csv")
            entries.append(records.ManifestEntry(
                f"s{i}.csv", f"s{i}",
                extra={"inoculation_index": 2048, "infected": i % 2 == 0},
            ))
        records.write_manifest(entries, tmp_path / "manifest.json")
        code = run(
            "viral", str(tmp_path / "manifest.json"), "--window", "1024",
            "--stride", "256", "--shifts", "0", "--out", str(tmp_path / "sweep.csv"),
        )
        assert code == cli.EXIT_DATA
        assert (
            "subject 's0': channel 'ch01': pre window starting at sample 0 has zero "
            "fluctuation in every DFA window at scale 16"
        ) in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_window_below_dfa_minimum_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "vir"
        assert run(
            "synth", "viral", "--subjects", "3", "--infected", "1",
            "--side-samples", "1200", "--out-dir", str(out),
        ) == 0
        sweep = tmp_path / "sweep.csv"
        code = run("viral", str(out / "manifest.json"), "--window", "512", "--out", str(sweep))
        assert code == cli.EXIT_DATA
        assert "window_len must be at least 1024, got 512" in capsys.readouterr().err
        assert not sweep.exists()


class TestCohortStreaming:
    """``synth cohort`` writes the records batch by batch through a staging directory."""

    def test_out_of_redraws_after_written_batches_leaves_nothing(self, tmp_path, capsys,
                                                                 monkeypatch):
        # batches of 2 records; the first two batches run, then every run
        # diverges at its first row until record 4 is out of tries
        monkeypatch.setattr(synth, "_COHORT_BATCH_BYTES", 2 * 8 * 4 * 400)
        simulate_rows, runs = fracdyn._simulate_rows, []

        def diverging_from_the_third_run(*args, **kwargs):
            runs.append(len(args[3]))
            return simulate_rows(*args, **kwargs) if len(runs) <= 2 else (0, 1)

        monkeypatch.setattr(fracdyn, "_simulate_rows", diverging_from_the_third_run)
        write_record, written = records.write_record, []

        def recorded(record, path):
            written.append(record.subject_id)
            write_record(record, path)

        monkeypatch.setattr(records, "write_record", recorded)
        out = tmp_path / "cohort"
        code = run("synth", "cohort", "--per-class", "2", "--channels", "4", "--samples", "400",
                   "--out-dir", str(out))
        assert code == cli.EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert "could not draw a stable jittered model" in captured.err
        assert captured.out == ""
        assert written == ["rec000", "rec001", "rec002", "rec003"]
        assert len(runs) == 2 + 20
        assert list(tmp_path.iterdir()) == []  # no --out-dir and no staging sibling

    def test_traced_peak_does_not_grow_with_the_cohort(self, tmp_path, capsys, monkeypatch):
        # batches of 3 records of 32 kB; holding all 80 records of 16 per
        # class would add 60 x 32 kB = 1.9 MB over the 20 of 4 per class
        monkeypatch.setattr(synth, "_COHORT_BATCH_BYTES", 3 * 8 * 8 * 500)
        argv = ["synth", "cohort", "--channels", "8", "--samples", "500", "--per-class"]
        assert run(*argv, "1", "--out-dir", str(tmp_path / "warm-up")) == 0
        peaks = {}
        for per_class in (4, 16):
            tracemalloc.start()
            try:
                code = run(*argv, str(per_class), "--out-dir", str(tmp_path / f"c{per_class}"))
                peaks[per_class] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == cli.EXIT_OK
        assert peaks[16] - peaks[4] < 1 << 20, peaks


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    """A cohort manifest with its features, a viral manifest and a system record."""
    home = tmp_path_factory.mktemp("inputs")
    for argv in (
        ["synth", "cohort", "--per-class", "1", "--channels", "2", "--samples", "1100",
         "--out-dir", str(home / "cohort")],
        ["synth", "viral", "--subjects", "4", "--infected", "2", "--side-samples", "2400",
         "--out-dir", str(home / "viral")],
        ["synth", "system", "--channels", "2", "--n", "1100", "--out", str(home / "system.csv")],
        ["extract", str(home / "cohort" / "manifest.json"), "--out", str(home / "features.jsonl")],
    ):
        assert cli.main(argv) == 0
    return home


def _full_disk_write_text(monkeypatch):
    """Make ``Path.write_text`` write half its text, then fail as on a full disk."""
    write_text = Path.write_text

    def half_then_full(self, data, *args, **kwargs):
        write_text(self, data[: len(data) // 2], *args, **kwargs)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_text", half_then_full)


def _full_disk_write_record(monkeypatch):
    """Make ``records.write_record`` write a truncated file, then fail."""
    write_record = records.write_record

    def truncated_then_full(record, path):
        write_record(record, path)
        with open(path, "r+b") as fh:
            fh.truncate(10)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(records, "write_record", truncated_then_full)


class TestAtomicOutputs:
    """Each output file is written beside its target and moved into place."""

    OUT = [
        (["extract", "{in}/cohort/manifest.json", "--out", "{out}"], _full_disk_write_text),
        (["viral", "{in}/viral/manifest.json", "--window", "1024", "--stride", "256",
          "--shifts", "0", "--out", "{out}"], _full_disk_write_text),
        (["convergence", "{in}/system.csv", "--step-seconds", "500", "--out", "{out}"],
         _full_disk_write_text),
        (["synth", "system", "--channels", "2", "--n", "600", "--out", "{in}/sys.csv",
          "--model-out", "{out}"], _full_disk_write_text),
        (["synth", "fgn", "--hurst", "0.5", "--n", "1024", "--out", "{out}"],
         _full_disk_write_record),
    ]
    IDS = ["extract", "viral", "convergence", "model-out", "fgn"]

    @staticmethod
    def _argv(template, inputs, out):
        return [a.replace("{in}", str(inputs)).replace("{out}", str(out)) for a in template]

    @pytest.mark.parametrize("template, full_disk", OUT, ids=IDS)
    def test_failed_write_leaves_the_old_file(self, tmp_path, capsys, monkeypatch,
                                              command_inputs, template, full_disk):
        out = tmp_path / "out.txt"
        out.write_bytes(b"old\n")
        full_disk(monkeypatch)
        assert run(*self._argv(template, command_inputs, out)) == cli.EXIT_DATA
        assert "No space left on device" in capsys.readouterr().err
        assert out.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    @pytest.mark.parametrize("template, full_disk", OUT, ids=IDS)
    def test_success_replaces_the_file_and_leaves_no_sibling(self, tmp_path, capsys,
                                                            command_inputs, template, full_disk):
        out = tmp_path / "out.txt"
        out.write_bytes(b"old\n")
        assert run(*self._argv(template, command_inputs, out)) == cli.EXIT_OK
        assert out.read_bytes() not in (b"old\n", b"")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    @pytest.mark.parametrize("template, full_disk", OUT, ids=IDS)
    def test_missing_directory_names_the_target(self, tmp_path, capsys, command_inputs,
                                                template, full_disk):
        out = tmp_path / "missing" / "out.txt"
        assert run(*self._argv(template, command_inputs, out)) == cli.EXIT_DATA
        assert f"No such file or directory: '{out}'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("template, full_disk", OUT, ids=IDS)
    def test_symlink_target_is_written_through(self, tmp_path, capsys, command_inputs,
                                               template, full_disk):
        expected = self._output(template, command_inputs, tmp_path / "expected")
        (tmp_path / "real").mkdir()
        real, link = tmp_path / "real" / "out.txt", tmp_path / "link.txt"
        real.write_bytes(b"old\n")
        link.symlink_to(real)
        assert run(*self._argv(template, command_inputs, link)) == cli.EXIT_OK
        assert link.is_symlink() and real.read_bytes() == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == ["expected", "link.txt", "real"]
        assert [p.name for p in real.parent.iterdir()] == ["out.txt"]

    @pytest.mark.parametrize("template, full_disk", OUT, ids=IDS)
    def test_pipe_target_is_written_through(self, tmp_path, capsys, command_inputs,
                                            template, full_disk):
        # a named pipe stands for /dev/null or /dev/stdout: it must stay a pipe
        expected = self._output(template, command_inputs, tmp_path / "expected")
        assert len(expected) < 1 << 15  # fits the pipe buffer, so no reader thread
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert run(*self._argv(template, command_inputs, fifo)) == cli.EXIT_OK
            assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
            assert os.read(reader, 1 << 16) == expected
        finally:
            os.close(reader)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["expected", "out.fifo"]

    @pytest.mark.parametrize("template, full_disk", OUT, ids=IDS)
    def test_replaced_file_keeps_its_mode(self, tmp_path, capsys, command_inputs,
                                          template, full_disk):
        out = tmp_path / "out.txt"
        out.write_bytes(b"old\n")
        out.chmod(0o640)
        assert run(*self._argv(template, command_inputs, out)) == cli.EXIT_OK
        assert stat.S_IMODE(out.stat().st_mode) == 0o640

    def test_file_that_cannot_be_swapped_is_written_in_place(self, tmp_path, capsys,
                                                             monkeypatch, command_inputs):
        template = self.OUT[0][0]
        expected = self._output(template, command_inputs, tmp_path / "expected")
        out = tmp_path / "out.txt"
        out.write_bytes(b"old\n")

        def cross_device(src, dst):
            raise OSError(errno.EXDEV, "Invalid cross-device link")

        monkeypatch.setattr(os, "replace", cross_device)
        assert run(*self._argv(template, command_inputs, out)) == cli.EXIT_OK
        assert out.read_bytes() == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == ["expected", "out.txt"]

    def test_symlink_in_output_directory_is_written_through(self, tmp_path, capsys):
        argv = ["synth", "cohort", "--per-class", "1", "--channels", "2", "--samples", "400"]
        assert run(*argv, "--out-dir", str(tmp_path / "expected")) == cli.EXIT_OK
        out, kept = tmp_path / "out", tmp_path / "kept.json"
        out.mkdir()
        kept.write_bytes(b"{}\n")
        (out / "manifest.json").symlink_to(kept)
        assert run(*argv, "--out-dir", str(out)) == cli.EXIT_OK
        assert (out / "manifest.json").is_symlink()
        assert kept.read_bytes() == (tmp_path / "expected" / "manifest.json").read_bytes()

    def _output(self, template, inputs, out):
        """The bytes the command of ``template`` writes to a new regular file ``out``."""
        assert run(*self._argv(template, inputs, out)) == cli.EXIT_OK
        return out.read_bytes()

    @pytest.mark.parametrize("template", [
        ["mfdfa", "{in}/system.csv", "--out-dir", "{out}"],
        ["train", "{in}/features.jsonl", "--folds", "2", "--epochs", "2", "--out-dir", "{out}"],
        ["synth", "cohort", "--per-class", "1", "--channels", "2", "--samples", "400",
         "--out-dir", "{out}"],
    ], ids=["mfdfa", "train", "cohort"])
    def test_failed_directory_write_leaves_no_directory(self, tmp_path, capsys, monkeypatch,
                                                        command_inputs, template):
        out = tmp_path / "out"
        (_full_disk_write_record if "cohort" in template else _full_disk_write_text)(monkeypatch)
        assert run(*self._argv(template, command_inputs, out)) == cli.EXIT_DATA
        assert "No space left on device" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestFlagUsageErrors:
    """A bad list item, an empty list or a dropped flag is a usage error."""

    PATHS = ("m.json", "r.csv", "s.csv", "c.csv", "f.jsonl", "d")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["viral", "m.json", "--shifts", "1,x", "--out", "s.csv"], "--shifts"),
            (["viral", "m.json", "--shifts", ",", "--out", "s.csv"], "--shifts"),
            (["mfdfa", "r.csv", "--q", "1,y", "--out-dir", "d"], "--q"),
            (["mfdfa", "r.csv", "--scales", "16,x", "--out-dir", "d"], "--scales"),
            (["mfdfa", "r.csv", "--scales", " , ", "--out-dir", "d"], "--scales"),
            (["convergence", "r.csv", "--alpha", "0.5,z", "--out", "c.csv"], "--alpha"),
            (["mfdfa", "r.csv", "--scales", "16,32", "--dyadic", "--out-dir", "d"],
             "--dyadic"),
        ],
        ids=["shifts-item", "shifts-empty", "q-item", "scales-item", "scales-empty",
             "alpha-item", "scales-with-dyadic"],
    )
    def test_usage_error(self, tmp_path, capsys, argv, flag):
        argv = [str(tmp_path / a) if a in self.PATHS else a for a in argv]
        assert run(*argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["mfdfa", "r.csv", "--out-dir", "d"],
            ["extract", "m.json", "--out", "f.jsonl"],
            ["viral", "m.json", "--out", "s.csv"],
        ],
        ids=["mfdfa", "extract", "viral"],
    )
    def test_rate_only_on_convergence(self, tmp_path, capsys, argv):
        argv = [str(tmp_path / a) if a in self.PATHS else a for a in argv]
        assert run(*argv, "--rate", "2") == cli.EXIT_USAGE
        assert "unrecognized arguments: --rate 2" in capsys.readouterr().err


def _feature_lines(institutions=("site-a", "site-b"), widths=(3,) * 10):
    return "".join(
        json.dumps({
            "features": [0.1 * i + j for j in range(w)], "stage": i % 5,
            "institution": institutions[i % len(institutions)], "subject_id": f"s{i}",
        }) + "\n"
        for i, w in enumerate(widths)
    )


class TestNoLeakageFromTestRows:
    """Training sees only the training rows, scaler included: scaling the
    features of a split's test rows leaves that split's curve unchanged."""

    SITES = ("site-a", "site-b", "site-c", "site-d")

    def _features(self, path, scale_rows=()):
        rng = np.random.default_rng(4)
        lines = []
        for i in range(20):
            features = rng.standard_normal(6) + i % 5
            if i in scale_rows:
                features = features * 1e3
            lines.append(json.dumps({
                "features": features.tolist(), "stage": i % 5,
                "institution": self.SITES[i % 4], "subject_id": f"s{i}",
            }) + "\n")
        path.write_text("".join(lines))
        return path

    def _train(self, feats, out, *mode):
        argv = ["train", str(feats), *mode, "--epochs", "3", "--seed", "0", "--out-dir", str(out)]
        assert run(*argv) == 0
        return out

    def test_kfold_curve_ignores_its_test_rows(self, tmp_path, capsys):
        base = self._train(self._features(tmp_path / "f.jsonl"), tmp_path / "base",
                           "--folds", "4")
        for f, (_, test) in enumerate(classify.kfold(20, 4, 0)):
            feats = self._features(tmp_path / f"f{f}.jsonl", set(test.tolist()))
            out = self._train(feats, tmp_path / f"run{f}", "--folds", "4")
            name = f"curve_fold{f}.csv"
            assert (out / name).read_bytes() == (base / name).read_bytes(), name

    def test_holdout_curve_ignores_the_held_out_site(self, tmp_path, capsys):
        base = self._train(self._features(tmp_path / "f.jsonl"), tmp_path / "base",
                           "--mode", "holdout")
        held = [i for i in range(20) if self.SITES[i % 4] == "site-b"]
        feats = self._features(tmp_path / "scaled.jsonl", set(held))
        out = self._train(feats, tmp_path / "run", "--mode", "holdout")
        assert (out / "curve_site-b.csv").read_bytes() == (base / "curve_site-b.csv").read_bytes()
        # the other sites train on site-b's rows, so their curves do move
        assert (out / "curve_site-a.csv").read_bytes() != (base / "curve_site-a.csv").read_bytes()


class TestTrainCommand:
    @pytest.mark.parametrize(
        "text, argv, named",
        [
            (_feature_lines(), ["--folds", "1"], "need at least 2 folds, got k=1"),
            (_feature_lines(), ["--folds", "0"], "need at least 2 folds, got k=0"),
            (_feature_lines(institutions=("site-a",)), ["--mode", "holdout"],
             "holding out institution 'site-a' leaves no training cases"),
            ("\n" + _feature_lines(widths=[3, 3, 2, 3]), [],
             "line 4: 2 features, but line 2 has 3"),
            (_feature_lines() + '{"features": [0.1, "abc", 0.3], "stage": 1}\n', [],
             "features.jsonl: line 11: could not convert string to float: 'abc'"),
            (_feature_lines() + '{"features": [0.1, 0.2, 0.3], "stage": 9}\n', [],
             "features.jsonl: line 11: stage must be in 0..4"),
            (_feature_lines() + "5\n", [], "features.jsonl: line 11: not a JSON object"),
            (_feature_lines() + '{"features": [0.1, NaN, 0.3], "stage": 1}\n', [],
             "features.jsonl: line 11: features must be finite"),
            (_feature_lines(institutions=("site-a", "site/b")), ["--mode", "holdout"],
             "features.jsonl: institution 'site/b' cannot be part of an output file name"),
        ],
        ids=["one-fold", "zero-folds", "one-institution", "ragged-features",
             "non-numeric-feature", "stage-out-of-range", "not-an-object", "nan-feature",
             "institution-with-slash"],
    )
    def test_bad_training_input_fails_fast(self, tmp_path, capsys, text, argv, named):
        feats = tmp_path / "features.jsonl"
        feats.write_text(text)
        out = tmp_path / "run"
        code = run("train", str(feats), *argv, "--epochs", "2", "--out-dir", str(out))
        assert code == cli.EXIT_DATA
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["kfold", "holdout"])
    def test_one_class_training_set_fails_before_any_split_trains(
        self, tmp_path, capsys, monkeypatch, mode
    ):
        if mode == "holdout":
            # holding out a or b leaves both stages; holding out z leaves stage 0
            cases, label = [("a", 0), ("b", 0), ("z", 1)] * 2, "holdout z"
        else:
            cases = [("a", 0)] * 4 + [("a", 1)]
            (fold,) = [f for f, (train, _) in enumerate(classify.kfold(5, 5, 0)) if 4 not in train]
            label = f"fold {fold}"
        feats = tmp_path / "features.jsonl"
        feats.write_text("".join(
            json.dumps({"features": [0.1 * i, 1.0], "stage": stage, "institution": site}) + "\n"
            for i, (site, stage) in enumerate(cases)
        ))

        def no_training(*args, **kwargs):
            raise AssertionError("a split trained before the check")

        monkeypatch.setattr(classify, "mlp_train", no_training)
        out = tmp_path / "run"
        code = run("train", str(feats), "--mode", mode, "--epochs", "2", "--out-dir", str(out))
        assert code == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert f"fracsig: error: {label}: training set must contain at least 2 classes" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_failure_after_a_trained_split_prints_nothing(self, tmp_path, capsys):
        # fold 0 holds out the +1e308 case and trains; a later fold meets both
        # extremes of column 0 and fails, so no file is written and nothing printed
        ((_, (top,)), *_) = classify.kfold(10, 10, 0)
        bottom = (top + 1) % 10
        lines = [
            {"features": [1e308 if i == top else -1e308 if i == bottom else 0.0, 0.1 * i],
             "stage": i % 5, "subject_id": f"s{i}"}
            for i in range(10)
        ]
        feats = tmp_path / "features.jsonl"
        feats.write_text("".join(json.dumps(l) + "\n" for l in lines))
        out = tmp_path / "run"
        code = run("train", str(feats), "--folds", "10", "--epochs", "2", "--out-dir", str(out))
        assert code == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert "feature column 0" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_feature_range_wider_than_float64_is_data_error(self, tmp_path, capsys):
        feats = tmp_path / "features.jsonl"
        # every 9-case training split holds both signs of column 0
        lines = [
            {"features": [sign * 1e308, 0.1 * i], "stage": i % 5, "subject_id": f"s{i}"}
            for i, sign in enumerate([-1.0, 1.0] * 5)
        ]
        feats.write_text("".join(json.dumps(l) + "\n" for l in lines))
        code = run(
            "train", str(feats), "--folds", "10", "--epochs", "2",
            "--out-dir", str(tmp_path / "run"),
        )
        assert code == cli.EXIT_DATA
        assert "feature column 0" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestConfigFile:
    def test_config_sets_defaults_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("hurst = 0.6\nn = 1024  # comment\nseed = 4\n")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run("--config", str(cfg), "synth", "fgn", "--out", str(a)) == 0
        assert run(
            "synth", "fgn", "--hurst", "0.6", "--n", "1024", "--seed", "4",
            "--out", str(b),
        ) == 0
        assert a.read_bytes() == b.read_bytes()
        # explicit flag wins over the config value
        c = tmp_path / "c.csv"
        assert run(
            "--config", str(cfg), "synth", "fgn", "--seed", "5", "--out", str(c)
        ) == 0
        assert c.read_bytes() != a.read_bytes()

    def test_negative_list_values(self, tmp_path, capsys):
        # each config value reaches argparse as one --flag=value token
        rec = tmp_path / "fgn.csv"
        assert run("synth", "fgn", "--hurst", "0.7", "--n", "2048", "--out", str(rec)) == 0
        (tmp_path / "q.cfg").write_text("q = -5,-3,3\n")
        assert run(
            "--config", str(tmp_path / "q.cfg"), "mfdfa", str(rec),
            "--out-dir", str(tmp_path / "cfg"),
        ) == 0
        assert run("mfdfa", str(rec), "--q=-5,-3,3", "--out-dir", str(tmp_path / "flag")) == 0
        names = sorted(p.name for p in (tmp_path / "flag").iterdir())
        assert len(names) == 4  # three q files and the spectrum
        for name in names:
            cfg_file = tmp_path / "cfg" / name
            assert cfg_file.read_bytes() == (tmp_path / "flag" / name).read_bytes()

        cohort = tmp_path / "vir"
        assert run(
            "synth", "viral", "--subjects", "4", "--infected", "2",
            "--side-samples", "3000", "--seed", "6", "--out-dir", str(cohort),
        ) == 0
        (tmp_path / "v.cfg").write_text("window = 1024\nstride = 256\nshifts = -200,0\n")
        sweep = tmp_path / "sweep.csv"
        assert run(
            "--config", str(tmp_path / "v.cfg"), "viral", str(cohort / "manifest.json"),
            "--out", str(sweep),
        ) == 0
        assert [r.split(",")[0] for r in sweep.read_text().splitlines()] == [
            "shift", "-200", "0",
        ]

    def test_bad_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just words\n")
        code = run("--config", str(cfg), "synth", "fgn", "--hurst", "0.5",
                   "--n", "1024", "--out", str(tmp_path / "x.csv"))
        assert code == cli.EXIT_DATA
        assert "key = value" in capsys.readouterr().err
