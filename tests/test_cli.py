import errno
import json
import os
import signal
import stat
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fracsig import _run, classify, cli, fracdyn, mfdfa, records, synth, viral

# TestForkMap is collected here too, under the test IDs it had before it moved
from test_run import TestForkMap, _assert_no_child_left  # noqa: F401


def run(*argv):
    return cli.main(list(argv))


def run_on(cores, *argv):
    """``run(*argv)`` where the process may use ``cores`` cores: 1 is the
    serial path, more forks that many workers."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_run, "_usable_cores", lambda: cores)
        return run(*argv)


# the serial path and the fork-join path of the commands that fork
CORES = (1, 2)


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
            (["viral", "--side-samples", "0", "--out-dir", "c"], "side_samples=0"),
            (["viral", "--side-samples", "-5", "--out-dir", "c"], "side_samples=-5"),
            (["viral", "--subjects", "2", "--infected", "1", "--side-samples", "300",
              "--alpha-shift", "1e300", "--out-dir", "c"],
             "subject 'subj00': fractional integration of order 1e+300 over 300 samples"),
            (["viral", "--subjects", "2", "--infected", "1", "--alpha-shift", "nan",
              "--out-dir", "c"], "alpha_shift must be finite, got nan"),
            (["system", "--channels", "2", "--n", "1100", "--noise-scale", "nan",
              "--out", "x.csv"], "noise_scale must be finite and nonnegative, got nan"),
            (["system", "--channels", "2", "--n", "1100", "--noise-scale", "inf",
              "--out", "x.csv"], "noise_scale must be finite and nonnegative, got inf"),
        ],
        ids=["samples", "n", "channels", "per-class-zero", "per-class-negative",
             "viral-subjects-zero", "viral-infected-above-subjects", "viral-side-samples-zero",
             "viral-side-samples-negative", "viral-shift-overflows", "viral-nan-shift",
             "system-nan-noise-scale", "system-infinite-noise-scale"],
    )
    def test_zero_size_is_data_error(self, tmp_path, capsys, argv, named):
        argv = [str(tmp_path / a) if a in ("c", "x.csv") else a for a in argv]
        assert run("synth", *argv) == cli.EXIT_DATA
        assert named in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_cohort_out_of_redraws_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(synth, "_COHORT_JITTER", 50.0)
        out = tmp_path / "cohort"
        for cores in CORES:
            code = run_on(cores, "synth", "cohort", "--per-class", "2", "--channels", "4",
                          "--samples", "400", "--out-dir", str(out))
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

    def test_invalid_flag_makes_no_directory(self, tmp_path, capsys, monkeypatch):
        # a flag's error names the record, not a channel, and no channel is analysed
        rec = tmp_path / "casc.csv"
        run("synth", "cascade", "--p", "0.75", "--depth", "10", "--out", str(rec))
        capsys.readouterr()
        monkeypatch.setattr(mfdfa, "scaling_function", _no_call("scaling_function"))
        out = tmp_path / "mf"
        for flag, named in [
            ("--q=0", "q_grid contains only 0 with q_zero_mode='exclude'"),
            ("--q=nan", "q_grid values must be finite, got nan"),
            ("--q=1,-inf", "q_grid values must be finite, got -inf"),
            ("--scales=64,32", "scale_grid must be strictly increasing"),
        ]:
            assert run("mfdfa", str(rec), flag, "--out-dir", str(out)) == cli.EXIT_DATA, flag
            assert capsys.readouterr() == ("", f"fracsig: error: {rec}: {named}\n")
            assert not out.exists()

    @pytest.mark.parametrize("q, first, second", [
        ("2.0000001,2.0000002,3", "2.0000001", "2.0000002"),
        ("-1,2,2", "2.0", "2.0"),
    ], ids=["formatting-alike", "repeated"])
    def test_q_values_naming_one_file_fail_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                           q, first, second):
        # both values would write sf_<label>_q2.csv, the second over the first
        rec = tmp_path / "casc.csv"
        run("synth", "cascade", "--p", "0.75", "--depth", "10", "--out", str(rec))
        monkeypatch.setattr(mfdfa, "scaling_function", _no_call("scaling_function"))
        out = tmp_path / "mf"
        assert run("mfdfa", str(rec), f"--q={q}", "--out-dir", str(out)) == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"fracsig: error: --q values {first} and {second} both name sf_*_q2.csv\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["casc.csv"]

    @pytest.mark.parametrize(
        "labels, samples, named",
        [(("ok", "a/b", "c"), 1024,
          "channel label 'a/b' cannot be part of an output file name"),
         (("flat", "ok", "c"), 1024,
          "channel 'flat': zero fluctuation in window 0 at scale 16"),
         (("ok", "flat", "c"), 1024,
          "channel 'flat': zero fluctuation in window 0 at scale 16"),
         (("ok", "b", "c"), 64, "channel 'ok': need at least 3 scales for a slope fit")],
        ids=["label-with-slash", "constant-channel", "later-constant-channel", "too-short"],
    )
    def test_bad_record_names_it_and_writes_nothing(self, tmp_path, capsys, labels, samples,
                                                    named):
        rec = tmp_path / "rec.csv"
        X = np.random.default_rng(0).standard_normal((3, samples))
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
        for cores in CORES:
            code = run_on(cores, "extract", str(tmp_path / "manifest.json"), "--out", str(out))
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
        for cores in CORES:
            code = run_on(cores, "extract", str(cohort / "manifest.json"), "--out", str(out))
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
        for cores in CORES:
            code = run_on(cores, "extract", str(tmp_path / "manifest.json"), "--out", str(out))
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
        for cores in CORES:
            code = run_on(cores, "extract", str(tmp_path / "manifest.json"), "--out", str(out))
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

    @pytest.mark.parametrize("command", ["extract", "viral"])
    def test_non_string_manifest_path_names_entry(self, tmp_path, capsys, command):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            '[{"path": "a.csv", "subject_id": "a"}, {"path": 5, "subject_id": "b"}]'
        )
        out = tmp_path / "out"
        for cores in CORES:
            assert run_on(cores, command, str(manifest), "--out", str(out)) == cli.EXIT_DATA
            assert capsys.readouterr().err == (
                f"fracsig: error: {manifest}: entry 1: path 5 is not a string\n"
            )
            assert not out.exists()

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
        for cores in CORES:
            assert run_on(cores, "extract", str(manifest), "--out", str(out)) == cli.EXIT_DATA
            assert f"{manifest}: {named}" in capsys.readouterr().err
            assert not out.exists()


@pytest.fixture(scope="module")
def cohort_features(cohort_dir, tmp_path_factory):
    feats = tmp_path_factory.mktemp("features") / "features.jsonl"
    assert cli.main(
        ["extract", str(cohort_dir / "manifest.json"), "--out", str(feats)]
    ) == 0
    return feats


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestExtremeMagnitudeChannels:
    """A channel whose DFA profile float64 cannot square exits 2 naming it, warning-free;
    one at 1e+-100 runs."""

    OUTSIDE = "lies outside [6.72e-139, "
    SQUARE = "], the magnitudes float64 can square\n"

    @staticmethod
    def _record(path, scale, n_samples=2048):
        X = np.random.default_rng(0).standard_normal((3, n_samples))
        X[1] *= scale
        records.write_record(records.MultichannelRecord(X, ("a", "b", "c")), path)

    @pytest.mark.parametrize("scale", [1e200, 1e-200], ids=["huge", "tiny"])
    @pytest.mark.parametrize("command, flags, noun", [
        pytest.param("mfdfa", ["--out-dir"], "profile", id="mfdfa"),
        pytest.param("convergence", ["--out"], "profile", id="convergence"),
        # known orders skip the DFA, so the coupling fit meets the channel first
        pytest.param("convergence", ["--alpha", "0.3,0.3,0.3", "--out"], "centred",
                     id="convergence-alpha"),
    ])
    def test_record_command_names_record_and_channel(
        self, tmp_path, capsys, command, flags, noun, scale
    ):
        rec, out = tmp_path / "rec.csv", tmp_path / "out"
        self._record(rec, scale)
        assert run(command, str(rec), *flags, str(out)) == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"fracsig: error: {rec}: channel 'b': {noun} peak ")
        assert captured.err.count("\n") == 1
        assert self.OUTSIDE in captured.err and captured.err.endswith(self.SQUARE)
        assert not out.exists()

    def _manifest(self, tmp_path, scales):
        """A viral manifest of one subject per scale, its channel 'b' scaled by it."""
        entries = []
        for i, scale in enumerate(scales):
            self._record(tmp_path / f"s{i}.csv", scale, n_samples=4096)
            entries.append(records.ManifestEntry(
                f"s{i}.csv", f"s{i}", extra={"inoculation_index": 2048, "infected": i % 2 == 1},
            ))
        records.write_manifest(entries, tmp_path / "manifest.json")
        return tmp_path / "manifest.json"

    @staticmethod
    def _viral(manifest, sweep, cores=1):
        return run_on(cores, "viral", str(manifest), "--window", "1024", "--stride", "256",
                      "--shifts", "0", "--out", str(sweep))

    @pytest.mark.parametrize("scale", [1e200, 1e-200], ids=["huge", "tiny"])
    def test_viral_names_subject_and_channel(self, tmp_path, capsys, scale):
        manifest, sweep = self._manifest(tmp_path, [1.0, scale, 1.0]), tmp_path / "sweep.csv"
        for cores in CORES:
            assert self._viral(manifest, sweep, cores) == cli.EXIT_DATA
            err = capsys.readouterr().err
            assert err.startswith(
                f"fracsig: error: {manifest}: subject 's1': channel 'b': "
                "pre window starting at sample 0: profile peak "
            )
            assert self.OUTSIDE in err and err.endswith(self.SQUARE)
            assert not sweep.exists()

    @pytest.mark.parametrize("scale", [1e100, 1e-100], ids=["big", "small"])
    def test_in_range_channels_run(self, tmp_path, capsys, scale):
        rec = tmp_path / "rec.csv"
        self._record(rec, scale)
        assert run("mfdfa", str(rec), "--out-dir", str(tmp_path / "mf")) == 0
        assert run("convergence", str(rec), "--out", str(tmp_path / "curve.csv")) == 0
        manifest = self._manifest(tmp_path, [scale] * 4)
        assert self._viral(manifest, tmp_path / "sweep.csv") == 0


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

    @pytest.mark.parametrize("mode", ["kfold", "holdout"])
    @pytest.mark.parametrize("model", ["mlp", "logistic"])
    def test_files_match_the_library(self, cohort_features, tmp_path, capsys, mode, model):
        out = tmp_path / "run"
        assert run(
            "train", str(cohort_features), "--mode", mode, "--model", model, "--folds", "3",
            "--epochs", "5", "--seed", "2", "--out-dir", str(out),
        ) == 0
        lines = [json.loads(line) for line in cohort_features.read_text().splitlines()]
        X = np.array([line["features"] for line in lines])
        y = np.array([line["stage"] for line in lines])
        institutions = [line["institution"] for line in lines]
        if mode == "kfold":
            splits = {(f"fold{i}.json", f"curve_fold{i}.csv"): split
                      for i, split in enumerate(classify.kfold(len(y), 3, seed=2))}
        else:
            splits = {(f"holdout_{name}.json", f"curve_{name}.csv"):
                      classify.holdout(institutions, y, name, seed=2)
                      for name in sorted(set(institutions))}
        cfg = classify.TrainConfig(epochs=5, seed=2)
        accuracies = []
        for (metrics_name, curve_name), (train, test) in splits.items():
            metrics, history = classify.fit_split(X, y, train, test, cfg, model=model)
            assert json.loads((out / metrics_name).read_text()) == metrics.to_dict()
            curve = np.loadtxt(out / curve_name, delimiter=",", skiprows=1, ndmin=2)
            epochs = np.arange(len(history["loss"]))
            np.testing.assert_array_equal(
                curve, np.column_stack([epochs, history["loss"], history["accuracy"]])
            )
            accuracies.append(metrics.accuracy)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["accuracy_mean"] == float(np.mean(accuracies))

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
        for cores in CORES:
            for model in ("mlp", "logistic"):
                for rate in ("0", "nan", "inf"):
                    assert run_on(
                        cores, "train", str(cohort_features), "--model", model, "--epochs", "2",
                        "--learning-rate", rate, "--out-dir", str(tmp_path / model),
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

    @pytest.mark.parametrize(
        "subject, key, value, named",
        [
            (3, "infected", "false", "infected 'false' is not a JSON boolean"),
            (3, "infected", 0, "infected 0 is not a JSON boolean"),
            (1, "inoculation_index", "x", "inoculation_index 'x' is not an integer"),
            (1, "inoculation_index", 1199.7, "inoculation_index 1199.7 is not an integer"),
            (1, "inoculation_index", True, "inoculation_index True is not an integer"),
            (2, "inoculation_index", 2400,
             "inoculation index 2400 is not strictly inside the record of 2400 samples"),
        ],
        ids=["infected-string", "infected-int", "index-string", "index-float", "index-bool",
             "index-outside"],
    )
    def test_bad_manifest_field_names_subject(self, tmp_path, capsys, subject, key, value,
                                              named):
        out = tmp_path / "vir"
        assert run(
            "synth", "viral", "--subjects", "4", "--infected", "2",
            "--side-samples", "1200", "--out-dir", str(out),
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest[subject][key] = value
        bad = out / "bad.json"
        bad.write_text(json.dumps(manifest))
        sweep = tmp_path / "sweep.csv"
        # 6 windows a side, so the subjects before the bad one sweep cleanly
        assert run("viral", str(bad), "--window", "1024", "--stride", "32", "--shifts", "0",
                   "--out", str(sweep)) == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"fracsig: error: {bad}: subject 'subj0{subject}': {named}\n"
        )
        assert not sweep.exists()

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

    def test_any_core_count_gives_the_library_outputs(self, tmp_path, capsys, monkeypatch):
        synth_argv = ["--subjects", "4", "--infected", "2", "--side-samples", "2400",
                      "--seed", "6", "--out-dir", "viral"]
        sweep_argv = ["viral/manifest.json", "--window", "1024", "--stride", "256",
                      "--shifts=-300,0,300", "--out", "sweep.csv"]
        trees, printed = [], []
        for cores in CORES:
            out = tmp_path / f"cores{cores}"
            out.mkdir()
            monkeypatch.chdir(out)  # relative paths, so that stdout can be compared
            assert run_on(cores, "synth", "viral", *synth_argv) == cli.EXIT_OK
            assert run_on(cores, "viral", *sweep_argv) == cli.EXIT_OK
            trees.append(_tree(out))
            printed.append(capsys.readouterr())
        assert trees[0] == trees[1]
        assert printed[0] == printed[1]
        cases = synth.synth_viral_cohort(4, 2, 6, side_samples=2400)
        for case in cases:
            records.write_record(case, tmp_path / "expected.csv")
            assert trees[0][f"viral/{case.subject_id}.csv"] == (
                tmp_path / "expected.csv").read_bytes()
        rows = viral.shift_sweep(cases, [-300, 0, 300], viral.WindowSpec(1024, 256))
        written = trees[0]["sweep.csv"].decode().splitlines()[1:]
        assert [tuple(map(int, line.split(","))) for line in written] == rows

    @pytest.mark.parametrize("cores", CORES)
    def test_lowest_failing_subject_is_named_once(self, tmp_path, capsys, cores):
        # s1 has a constant pre window, s2 too few post windows; s1's fit fails first
        rng = np.random.default_rng(5)
        entries = []
        for i in range(4):
            X = rng.standard_normal((3, 4096))
            if i == 1:
                X[1, :2048] = 0.5
            index = 3800 if i == 2 else 2048
            records.write_record(records.MultichannelRecord(X), tmp_path / f"s{i}.csv")
            entries.append(records.ManifestEntry(
                f"s{i}.csv", f"s{i}", extra={"inoculation_index": index, "infected": i % 2 == 0},
            ))
        manifest = tmp_path / "manifest.json"
        records.write_manifest(entries, manifest)
        sweep = tmp_path / "sweep.csv"
        code = run_on(cores, "viral", str(manifest), "--window", "1024", "--stride", "256",
                      "--shifts", "0", "--out", str(sweep))
        assert code == cli.EXIT_DATA
        assert capsys.readouterr() == ("", (
            f"fracsig: error: {manifest}: subject 's1': channel 'ch01': pre window starting "
            "at sample 0 has zero fluctuation in every DFA window at scale 16\n"
        ))
        assert not sweep.exists()
        _assert_no_child_left()

    @pytest.mark.parametrize("cores", CORES)
    def test_first_failing_subject_wins_over_a_later_bad_field(self, tmp_path, capsys, cores):
        # subject 0 has too few pre windows, subject 2 a bad manifest field
        out = tmp_path / "vir"
        assert run(
            "synth", "viral", "--subjects", "4", "--infected", "2",
            "--side-samples", "1200", "--out-dir", str(out),
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest[0]["inoculation_index"] = 1100
        manifest[2]["infected"] = "false"
        bad = out / "bad.json"
        bad.write_text(json.dumps(manifest))
        sweep = tmp_path / "sweep.csv"
        assert run_on(cores, "viral", str(bad), "--window", "1024", "--stride", "32",
                      "--shifts", "0", "--out", str(sweep)) == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"fracsig: error: {bad}: subject 'subj00': shift 0: need >= 5 windows per side, "
            "got 3 pre and 9 post at split 1100\n"
        )
        assert not sweep.exists()
        _assert_no_child_left()

    def test_no_subject_after_the_first_failing_one_is_fitted(self, tmp_path, capsys,
                                                              monkeypatch):
        out = tmp_path / "vir"
        assert run(
            "synth", "viral", "--subjects", "4", "--infected", "2",
            "--side-samples", "1200", "--out-dir", str(out),
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest[1]["inoculation_index"] = 1100  # too few pre windows
        bad = out / "bad.json"
        bad.write_text(json.dumps(manifest))
        split_alphas, fitted = viral._split_alphas, []

        def counted(case, spec, split_starts):
            fitted.append(case.subject_id)
            return split_alphas(case, spec, split_starts)

        monkeypatch.setattr(viral, "_split_alphas", counted)
        assert run_on(1, "viral", str(bad), "--window", "1024", "--stride", "32",
                      "--shifts", "0", "--out", str(tmp_path / "sweep.csv")) == cli.EXIT_DATA
        assert "subject 'subj01': shift 0: need >= 5 windows" in capsys.readouterr().err
        assert fitted == ["subj00"]

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
        code = run_on(1, "synth", "cohort", "--per-class", "2", "--channels", "4",
                      "--samples", "400", "--out-dir", str(out))
        assert code == cli.EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert "could not draw a stable jittered model" in captured.err
        assert captured.out == ""
        assert written == ["rec000", "rec001", "rec002", "rec003"]
        assert len(runs) == 2 + 20
        assert list(tmp_path.iterdir()) == []  # no --out-dir and no staging sibling

    def test_out_of_redraws_after_written_batches_leaves_nothing_with_workers(
            self, tmp_path, tmp_path_factory, capsys, monkeypatch):
        # the test above on two cores, where the records are written in worker
        # processes: each write leaves a mark in a directory beside tmp_path
        monkeypatch.setattr(synth, "_COHORT_BATCH_BYTES", 2 * 8 * 4 * 400)
        simulate_rows, runs = fracdyn._simulate_rows, []

        def diverging_from_the_third_run(*args, **kwargs):
            runs.append(len(args[3]))
            return simulate_rows(*args, **kwargs) if len(runs) <= 2 else (0, 1)

        monkeypatch.setattr(fracdyn, "_simulate_rows", diverging_from_the_third_run)
        write_record, marks = records.write_record, tmp_path_factory.mktemp("written")

        def marked(record, path):
            (marks / record.subject_id).touch()
            write_record(record, path)

        monkeypatch.setattr(records, "write_record", marked)
        out = tmp_path / "cohort"
        code = run_on(2, "synth", "cohort", "--per-class", "2", "--channels", "4",
                      "--samples", "400", "--out-dir", str(out))
        assert code == cli.EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert "could not draw a stable jittered model" in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in marks.iterdir()) == ["rec000", "rec001", "rec002", "rec003"]
        assert len(runs) == 2 + 20
        assert list(tmp_path.iterdir()) == []  # no --out-dir and no staging sibling
        _assert_no_child_left()

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
    """Make ``Path.write_text`` and ``_run._write_csv`` write half a file, then
    fail as on a full disk."""
    write_text, write_csv = Path.write_text, _run._write_csv

    def half_then_full(self, data, *args, **kwargs):
        write_text(self, data[: len(data) // 2], *args, **kwargs)
        raise OSError(errno.ENOSPC, "No space left on device")

    def csv_half_then_full(path, header, rows):
        write_csv(path, header, rows)
        os.truncate(path, os.path.getsize(path) // 2)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_text", half_then_full)
    monkeypatch.setattr(_run, "_write_csv", csv_half_then_full)


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

    def test_record_waits_for_its_model(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("sys.csv").write_bytes(b"old\n")
        code = run("synth", "system", "--channels", "2", "--n", "600", "--out", "sys.csv",
                   "--model-out", "missing/m.json")
        assert code == cli.EXIT_DATA
        assert "No such file or directory: 'missing/m.json'" in capsys.readouterr().err
        assert Path("sys.csv").read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["sys.csv"]

    @pytest.mark.parametrize("template, full_disk", OUT, ids=IDS)
    def test_file_is_written_in_place_where_nothing_can_be_staged(
            self, tmp_path, capsys, monkeypatch, command_inputs, template, full_disk):
        # stands for a writable file in a directory the user cannot write to;
        # a read-only directory would not stop a test run as root
        expected = self._output(template, command_inputs, tmp_path / "expected")
        out = tmp_path / "out.txt"
        out.write_bytes(b"old\n")

        def no_permission(*args, dir=None, **kwargs):
            raise PermissionError(errno.EACCES, "Permission denied", dir)

        monkeypatch.setattr(tempfile, "mkdtemp", no_permission)
        assert run(*self._argv(template, command_inputs, out)) == cli.EXIT_OK
        assert out.read_bytes() == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == ["expected", "out.txt"]


def _no_call(name):
    def called(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    return called


class TestOutputPathFirst:
    """An output path that cannot be staged fails before the command's work."""

    FGN = TestAtomicOutputs.OUT[4][0]
    CASCADE = ["synth", "cascade", "--p", "0.7", "--depth", "10", "--out", "{out}"]
    SYSTEM = ["synth", "system", "--channels", "2", "--n", "600", "--out", "{out}"]
    COHORT = ["synth", "cohort", "--per-class", "1", "--channels", "2", "--samples", "400",
              "--out-dir", "{out}"]

    @pytest.mark.parametrize("template, module, work", [
        (TestAtomicOutputs.OUT[0][0], classify, "extract_features"),
        (TestAtomicOutputs.OUT[2][0], fracdyn, "coupling_convergence"),
        (TestAtomicOutputs.OUT[1][0], viral, "_split_alphas"),
        (FGN, synth, "synth_fgn"),
        (CASCADE, synth, "synth_cascade"),
        # --out lands in tmp_path itself, beside the missing directory of --model-out
        (["synth", "system", "--channels", "2", "--n", "600", "--out", "{out}/../../sys.csv",
          "--model-out", "{out}"], fracdyn, "simulate"),
    ], ids=["extract", "convergence", "viral", "synth-fgn", "synth-cascade", "synth-system"])
    def test_missing_directory_fails_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                     command_inputs, template, module, work):
        monkeypatch.setattr(module, work, _no_call(work))
        out = tmp_path / "missing" / "x"
        for cores in CORES:
            code = run_on(cores, *TestAtomicOutputs._argv(template, command_inputs, out))
            assert code == cli.EXIT_DATA
            assert capsys.readouterr().err == (
                f"fracsig: error: [Errno 2] No such file or directory: '{out}'\n"
            )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("template, module, work", [
        (["train", "{in}/features.jsonl", "--folds", "2", "--epochs", "2", "--out-dir", "{out}"],
         classify, "mlp_train"),
        (["mfdfa", "{in}/system.csv", "--out-dir", "{out}"], mfdfa, "scaling_function"),
    ], ids=["train", "mfdfa"])
    def test_directory_that_cannot_be_staged_fails_before_any_work(
            self, tmp_path, capsys, monkeypatch, command_inputs, template, module, work):
        def no_permission(*args, dir=None, **kwargs):
            raise PermissionError(errno.EACCES, "Permission denied", os.fspath(dir))

        monkeypatch.setattr(tempfile, "mkdtemp", no_permission)
        monkeypatch.setattr(module, work, _no_call(work))
        for cores in CORES:
            code = run_on(cores, *TestAtomicOutputs._argv(template, command_inputs,
                                                          tmp_path / "out"))
            assert code == cli.EXIT_DATA
            assert capsys.readouterr().err == (
                f"fracsig: error: [Errno 13] Permission denied: '{tmp_path}'\n"
            )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("template, module, work, make, message", [
        (["train", "{in}/features.jsonl", "--folds", "2", "--epochs", "2", "--out-dir", "{out}"],
         classify, "mlp_train", Path.touch, "[Errno 17] File exists"),
        (["mfdfa", "{in}/system.csv", "--out-dir", "{out}"], mfdfa, "scaling_function",
         Path.touch, "[Errno 17] File exists"),
        (TestAtomicOutputs.OUT[0][0], classify, "extract_features", Path.mkdir,
         "[Errno 21] Is a directory"),
        (TestAtomicOutputs.OUT[2][0], fracdyn, "coupling_convergence", Path.mkdir,
         "[Errno 21] Is a directory"),
        (TestAtomicOutputs.OUT[1][0], viral, "_split_alphas", Path.mkdir,
         "[Errno 21] Is a directory"),
        (FGN, synth, "synth_fgn", Path.mkdir, "[Errno 21] Is a directory"),
        (CASCADE, synth, "synth_cascade", Path.mkdir, "[Errno 21] Is a directory"),
        (SYSTEM, fracdyn, "simulate", Path.mkdir, "[Errno 21] Is a directory"),
        (COHORT, synth, "_simulate_stage_cohort", Path.touch, "[Errno 17] File exists"),
    ], ids=["train", "mfdfa", "extract", "convergence", "viral", "synth-fgn", "synth-cascade",
            "synth-system", "synth-cohort"])
    def test_wrong_kind_output_fails_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                     command_inputs, template, module, work,
                                                     make, message):
        """A regular file as ``--out-dir``, or a directory as ``--out``."""
        monkeypatch.setattr(module, work, _no_call(work))
        out = tmp_path / "out"
        make(out)
        before = _tree(tmp_path)
        for cores in CORES:
            code = run_on(cores, *TestAtomicOutputs._argv(template, command_inputs, out))
            assert code == cli.EXIT_DATA
            assert capsys.readouterr().err == f"fracsig: error: {message}: '{out}'\n"
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("template, module, work", [
        (["train", "{in}/features.jsonl", "--folds", "2", "--epochs", "2", "--out-dir", "{out}"],
         classify, "mlp_train"),
        (["mfdfa", "{in}/system.csv", "--out-dir", "{out}"], mfdfa, "scaling_function"),
        (["synth", "viral", "--subjects", "4", "--infected", "2", "--side-samples", "1200",
          "--out-dir", "{out}"], synth, "synth_frac_noise"),
        (COHORT, synth, "_simulate_stage_cohort"),
    ], ids=["train", "mfdfa", "synth-viral", "synth-cohort"])
    def test_out_dir_below_a_file_fails_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                         command_inputs, template, module,
                                                         work):
        monkeypatch.setattr(module, work, _no_call(work))
        (tmp_path / "afile").touch()
        out = tmp_path / "afile" / "sub"
        before = _tree(tmp_path)
        for cores in CORES:
            code = run_on(cores, *TestAtomicOutputs._argv(template, command_inputs, out))
            assert code == cli.EXIT_DATA
            assert capsys.readouterr().err == (
                f"fracsig: error: [Errno 20] Not a directory: '{out}'\n"
            )
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("template, module, work", [
        (TestAtomicOutputs.OUT[4][0], records, "write_record"),
        (TestAtomicOutputs.OUT[2][0], fracdyn, "coupling_convergence"),
        (FGN, synth, "synth_fgn"),
        (CASCADE, synth, "synth_cascade"),
        (SYSTEM, fracdyn, "simulate"),
    ], ids=["synth-fgn", "convergence", "synth-fgn-draw", "synth-cascade", "synth-system"])
    def test_out_below_a_file_fails_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                     command_inputs, template, module, work):
        monkeypatch.setattr(module, work, _no_call(work))
        (tmp_path / "afile").touch()
        out = tmp_path / "afile" / "x.csv"
        before = _tree(tmp_path)
        code = run(*TestAtomicOutputs._argv(template, command_inputs, out))
        assert code == cli.EXIT_DATA
        assert capsys.readouterr().err == f"fracsig: error: [Errno 20] Not a directory: '{out}'\n"
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("model_out", ["x.csv", "./x.csv", "link.csv"])
    def test_two_outputs_naming_one_file_fail_before_any_work(self, tmp_path, capsys,
                                                              monkeypatch, model_out):
        # the model would replace the record, itself or through the symlink
        monkeypatch.setattr(fracdyn, "simulate", _no_call("simulate"))
        monkeypatch.chdir(tmp_path)
        Path("x.csv").write_bytes(b"old\n")
        Path("link.csv").symlink_to("x.csv")
        before = _tree(tmp_path)
        code = run(*self.SYSTEM[:-1], "x.csv", "--model-out", model_out)
        assert code == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"fracsig: error: --model-out {Path(model_out)} names the same file as --out x.csv\n"
        )
        assert _tree(tmp_path) == before


def _tree(root):
    """Each path under ``root`` with the bytes of a file, None for a directory."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


def _enospc_at_write(monkeypatch, k):
    """Make the k-th file opened for writing come out empty and raise ENOSPC.

    Returns the paths opened for writing; with ``k`` 0 nothing fails.
    """
    opened, path_open = [], Path.open

    def open_(self, mode="r", *args, **kwargs):
        if "w" in mode:
            opened.append(self)
            if len(opened) == k:
                path_open(self, mode, *args, **kwargs).close()
                raise OSError(errno.ENOSPC, "No space left on device")
        return path_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", open_)
    return opened


def _enospc_at_write_of(monkeypatch, name):
    """Make the file named ``name``, opened for writing, come out empty and raise ENOSPC."""
    path_open = Path.open

    def open_(self, mode="r", *args, **kwargs):
        if "w" in mode and self.name == name:
            path_open(self, mode, *args, **kwargs).close()
            raise OSError(errno.ENOSPC, "No space left on device")
        return path_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", open_)


def _exdev_at_replace(monkeypatch, k):
    """Make the k-th ``os.replace`` fail as across file systems; return the targets."""
    moved, replace = [], os.replace

    def replace_(src, dst):
        moved.append(dst)
        if len(moved) == k:
            raise OSError(errno.EXDEV, "Invalid cross-device link")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_)
    return moved


class TestFaultInjection:
    """Whichever staged write or move fails, a command's outputs are all old or all new."""

    COMMANDS = [
        ["synth", "cohort", "--per-class", "1", "--channels", "2", "--samples", "400",
         "--out-dir", "{out}"],
        ["synth", "system", "--channels", "2", "--n", "600", "--out", "{out}/sys.csv",
         "--model-out", "{out}/model.json"],
        ["extract", "{in}/cohort/manifest.json", "--out", "{out}/features.jsonl"],
        ["train", "{in}/features.jsonl", "--folds", "2", "--epochs", "2", "--out-dir", "{out}"],
        ["mfdfa", "{in}/system.csv", "--out-dir", "{out}"],
    ]
    IDS = ["cohort", "system", "extract", "train", "mfdfa"]

    @staticmethod
    def _run(template, inputs, out, cores=1):
        # on one core the parent makes every write, so the patches above count them
        return run_on(cores, *TestAtomicOutputs._argv(template, inputs, out))

    def _clean_outputs(self, tmp_path, monkeypatch, inputs, template):
        """The files a run writes into an empty directory; each is staged and moved once."""
        out = tmp_path / "clean"
        out.mkdir()
        with monkeypatch.context() as m:
            writes, moves = _enospc_at_write(m, 0), _exdev_at_replace(m, 0)
            assert self._run(template, inputs, out) == cli.EXIT_OK
        clean = _tree(out)
        assert len(writes) == len(moves) == len(clean) > 0
        return clean

    @staticmethod
    def _old_target(out, clean):
        """Make ``out`` hold an old file for every other output and one file of its own."""
        out.mkdir()
        for name in sorted(clean)[::2]:
            (out / name).write_bytes(b"old\n")
        (out / "own.txt").write_bytes(b"own\n")
        return _tree(out)

    @pytest.mark.parametrize("template", COMMANDS, ids=IDS)
    def test_failed_write_leaves_every_old_output(self, tmp_path, capsys, monkeypatch,
                                                  command_inputs, template):
        clean = self._clean_outputs(tmp_path, monkeypatch, command_inputs, template)
        for k in range(1, len(clean) + 1):
            out = tmp_path / f"write{k}"
            old = self._old_target(out, clean)
            with monkeypatch.context() as m:
                _enospc_at_write(m, k)
                code = self._run(template, command_inputs, out)
            assert code == cli.EXIT_DATA, k
            assert "No space left on device" in capsys.readouterr().err
            assert _tree(out) == old, k
        assert list(tmp_path.rglob(".*")) == []

    @pytest.mark.parametrize("template", COMMANDS, ids=IDS)
    def test_failed_move_writes_the_new_output_in_place(self, tmp_path, capsys, monkeypatch,
                                                        command_inputs, template):
        clean = self._clean_outputs(tmp_path, monkeypatch, command_inputs, template)
        for k in range(1, len(clean) + 1):
            out = tmp_path / f"move{k}"
            self._old_target(out, clean)
            with monkeypatch.context() as m:
                _exdev_at_replace(m, k)
                code = self._run(template, command_inputs, out)
            assert code == cli.EXIT_OK, k
            assert _tree(out) == {**clean, "own.txt": b"own\n"}, k
        assert list(tmp_path.rglob(".*")) == []

    # synth cohort on two cores: its records are written in worker processes,
    # whose writes the parent cannot count, so each file fails by name
    COHORT = COMMANDS[0]

    def test_failed_write_in_a_worker_leaves_every_old_output(self, tmp_path, capsys,
                                                              monkeypatch, command_inputs):
        (tmp_path / "clean").mkdir()
        assert self._run(self.COHORT, command_inputs, tmp_path / "clean", cores=2) == cli.EXIT_OK
        clean = _tree(tmp_path / "clean")
        assert len(clean) == 6  # five records and the manifest
        for name in sorted(clean):
            out = tmp_path / f"write-{name}"
            old = self._old_target(out, clean)
            with monkeypatch.context() as m:
                _enospc_at_write_of(m, name)
                code = self._run(self.COHORT, command_inputs, out, cores=2)
            assert code == cli.EXIT_DATA, name
            assert "No space left on device" in capsys.readouterr().err
            assert _tree(out) == old, name
            _assert_no_child_left()
        assert list(tmp_path.rglob(".*")) == []

    def test_failed_move_after_workers_writes_the_new_output_in_place(
            self, tmp_path, capsys, monkeypatch, command_inputs):
        (tmp_path / "clean").mkdir()
        assert self._run(self.COHORT, command_inputs, tmp_path / "clean", cores=2) == cli.EXIT_OK
        clean = _tree(tmp_path / "clean")
        for k in range(1, len(clean) + 1):
            out = tmp_path / f"move{k}"
            self._old_target(out, clean)
            with monkeypatch.context() as m:
                moves = _exdev_at_replace(m, k)
                code = self._run(self.COHORT, command_inputs, out, cores=2)
            assert code == cli.EXIT_OK, k
            assert len(moves) == len(clean)
            assert _tree(out) == {**clean, "own.txt": b"own\n"}, k
        assert list(tmp_path.rglob(".*")) == []

    def test_next_run_names_and_keeps_what_a_killed_run_staged(self, tmp_path, capsys):
        argv = ["synth", "cohort", "--per-class", "1", "--channels", "2", "--samples", "400"]
        assert run(*argv, "--out-dir", str(tmp_path / "clean")) == cli.EXIT_OK
        out = tmp_path / "out"
        out.mkdir()  # so that the killed run stages inside it
        script = (
            "import os, signal, sys\n"
            "from fracsig import _run, cli\n"
            "_run._place = lambda staged, path: os.kill(os.getpid(), signal.SIGKILL)\n"
            f"sys.exit(cli.main({argv + ['--out-dir', str(out)]!r}))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        killed = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                timeout=120)
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        (stale,) = out.iterdir()  # every file staged, none moved
        left = _tree(stale)
        assert len(left) == 6
        capsys.readouterr()
        assert run(*argv, "--out-dir", str(out)) == cli.EXIT_OK
        assert capsys.readouterr() == (
            f"wrote 5 records to {out}\n",
            f"fracsig: warning: {stale}: another run's staging, kept\n",
        )
        assert _tree(stale) == left
        new = {k: v for k, v in _tree(out).items() if not k.startswith(stale.name)}
        assert new == _tree(tmp_path / "clean")


class TestWorkers:
    """A command gives the same outputs, message and exit code on any number of cores."""

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_failure_of_the_lower_record_is_reported(self, tmp_path, capsys, cores):
        # record 0 fails only after a long load, record 1 at once
        rng = np.random.default_rng(0)
        slow = np.stack([rng.standard_normal(50000), np.zeros(50000), rng.standard_normal(50000)])
        records.write_record(records.MultichannelRecord(slow, ("c0", "c1", "c2")),
                             tmp_path / "slow.csv")
        records.write_manifest([records.ManifestEntry("slow.csv", "slow", "site-a", stage=1),
                                records.ManifestEntry("gone.csv", "gone", "site-a", stage=2)],
                               tmp_path / "manifest.json")
        out = tmp_path / "features.jsonl"
        code = run_on(cores, "extract", str(tmp_path / "manifest.json"), "--out", str(out))
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err == (f"fracsig: error: {tmp_path / 'slow.csv'}: subject 'slow': "
                       "channel 'c1' is constant; cannot z-score it\n")
        assert not out.exists()
        _assert_no_child_left()

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_disk_error_in_record_writes_leaves_the_old_out_dir(self, tmp_path, capsys,
                                                                monkeypatch, cores):
        write_record = records.write_record

        def full_disk_at_rec001_and_rec003(record, path):
            write_record(record, path)
            if record.subject_id in ("rec001", "rec003"):
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(records, "write_record", full_disk_at_rec001_and_rec003)
        out = tmp_path / "cohort"
        out.mkdir()
        (out / "rec001.csv").write_bytes(b"old\n")
        (out / "manifest.json").write_bytes(b"[]\n")
        old = _tree(out)
        code = run_on(cores, "synth", "cohort", "--per-class", "1", "--channels", "2",
                      "--samples", "400", "--out-dir", str(out))
        assert code == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err == "fracsig: error: [Errno 28] No space left on device\n"
        assert captured.out == ""
        assert _tree(out) == old
        assert list(tmp_path.rglob(".*")) == []
        _assert_no_child_left()

    @pytest.mark.parametrize("cores", [2, 3])
    def test_killed_worker_names_the_item_it_was_running(self, tmp_path, capsys,
                                                         monkeypatch, cores):
        # the write of rec002 kills its worker after that worker has reported
        # its earlier items, if any; rec002 is named on any number of cores
        write_record = records.write_record

        def killed_at_rec002(record, path):
            if record.subject_id == "rec002":
                os._exit(9)
            write_record(record, path)

        monkeypatch.setattr(records, "write_record", killed_at_rec002)
        out = tmp_path / "cohort"
        code = run_on(cores, "synth", "cohort", "--per-class", "1", "--channels", "2",
                      "--samples", "400", "--out-dir", str(out))
        assert code == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err == (f"fracsig: error: {out / 'rec002.csv'}: its worker process "
                                "exited with status 9 before reporting it\n")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []  # no --out-dir and no staging directory
        _assert_no_child_left()

    @pytest.mark.parametrize("cores", [2, 3])
    def test_killed_viral_worker_names_the_subject_it_was_fitting(self, tmp_path, capsys,
                                                                  monkeypatch, command_inputs,
                                                                  cores):
        split_alphas = viral._split_alphas

        def killed_at_subj02(case, spec, split_starts):
            if case.subject_id == "subj02":
                os._exit(9)
            return split_alphas(case, spec, split_starts)

        monkeypatch.setattr(viral, "_split_alphas", killed_at_subj02)
        manifest = command_inputs / "viral" / "manifest.json"
        sweep = tmp_path / "sweep.csv"
        code = run_on(cores, "viral", str(manifest), "--window", "1024", "--stride", "256",
                      "--shifts", "0", "--out", str(sweep))
        assert code == cli.EXIT_DATA
        assert capsys.readouterr() == ("", (
            f"fracsig: error: {manifest}: subject 'subj02': its worker process exited with "
            "status 9 before reporting it\n"
        ))
        assert list(tmp_path.iterdir()) == []
        _assert_no_child_left()

    def test_one_core_forks_nothing(self, tmp_path, capsys, monkeypatch, command_inputs):
        def no_fork():
            raise AssertionError("forked on one core")

        monkeypatch.setattr(os, "fork", no_fork)
        argv = ["extract", str(command_inputs / "cohort" / "manifest.json"),
                "--out", str(tmp_path / "features.jsonl")]
        assert run_on(1, *argv) == cli.EXIT_OK
        assert (tmp_path / "features.jsonl").read_bytes() == (
            command_inputs / "features.jsonl").read_bytes()


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


class TestNegativeValues:
    """A value starting with "-" reads the same after a space as after "="."""

    def test_negative_values_after_a_space(self, tmp_path, capsys):
        cohorts = []
        for spelling in (["--alpha-shift", "-1e-3"], ["--alpha-shift=-1e-3"]):
            cohorts.append(tmp_path / f"vir{len(cohorts)}")
            assert run(
                "synth", "viral", "--subjects", "4", "--infected", "2",
                "--side-samples", "3000", "--seed", "6", *spelling, "--out-dir", str(cohorts[-1]),
            ) == 0
        names = sorted(p.name for p in cohorts[0].iterdir())
        assert len(names) == 5  # four subjects and the manifest
        for name in names:
            assert (cohorts[0] / name).read_bytes() == (cohorts[1] / name).read_bytes(), name
        sweeps = []
        for spelling in (["--shifts", "-200,0"], ["--shifts=-200,0"]):
            sweeps.append(tmp_path / f"sweep{len(sweeps)}.csv")
            assert run(
                "viral", str(cohorts[0] / "manifest.json"), "--window", "1024",
                "--stride", "256", *spelling, "--out", str(sweeps[-1]),
            ) == 0
        assert sweeps[0].read_bytes() == sweeps[1].read_bytes()
        assert [r.split(",")[0] for r in sweeps[0].read_text().splitlines()] == [
            "shift", "-200", "0",
        ]

    @pytest.mark.parametrize("model", ["mlp", "logistic"])
    def test_negative_infinite_learning_rate_is_data_error(self, tmp_path, capsys, model):
        feats = tmp_path / "features.jsonl"
        feats.write_text(_feature_lines())
        out = tmp_path / "run"
        assert run(
            "train", str(feats), "--model", model, "--learning-rate", "-inf", "--epochs", "1",
            "--out-dir", str(out),
        ) == cli.EXIT_DATA
        assert "learning_rate must be positive and finite" in capsys.readouterr().err
        assert not out.exists()


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
             "features.jsonl: line 11: features[1] 'abc' is not a number"),
            (_feature_lines() + '{"features": [0.1, 0.2, 0.3], "stage": 9}\n', [],
             "features.jsonl: line 11: stage 9 is not in 0..4"),
            (_feature_lines() + "5\n", [], "features.jsonl: line 11: not a JSON object"),
            (_feature_lines() + '{"features": [0.1, NaN, 0.3], "stage": 1}\n', [],
             "features.jsonl: line 11: features must be finite"),
            (_feature_lines(institutions=("site-a", "site/b")), ["--mode", "holdout"],
             "features.jsonl: institution 'site/b' cannot be part of an output file name"),
            (_feature_lines() + '{"features": [0.1, 0.2, 0.3], "stage": true}\n', [],
             "features.jsonl: line 11: stage True is not an integer"),
            (_feature_lines() + '{"features": [0.1, 0.2, 0.3], "stage": 0.9}\n', [],
             "features.jsonl: line 11: stage 0.9 is not an integer"),
            (_feature_lines() + '{"features": [0.1, "2", 0.3], "stage": 1}\n', [],
             "features.jsonl: line 11: features[1] '2' is not a number"),
            (_feature_lines() + '{"features": [true, 3, 0.3], "stage": 1}\n', [],
             "features.jsonl: line 11: features[0] True is not a number"),
            (_feature_lines() + '{"features": "12", "stage": 1}\n', [],
             "features.jsonl: line 11: features '12' is not an array"),
            (_feature_lines() + '{"features": [0.1, 0.2, 0.3], "stage": 1, "institution": ["a"]}\n',
             [], "features.jsonl: line 11: institution ['a'] is not a string"),
            (_feature_lines() + '{"features": [0.1, 0.2, 0.3], "stage": 1, "institution": null}\n',
             [], "features.jsonl: line 11: institution None is not a string"),
            (_feature_lines() + '{"features": [1' + "0" * 400 + ', 0.2, 0.3], "stage": 1}\n',
             [], "features.jsonl: line 11: features must be finite"),
            (_feature_lines() + '{"features": [1' + "0" * 5000 + ', 0.2, 0.3], "stage": 1}\n',
             [], "features.jsonl: line 11: invalid JSON: Exceeds the limit"),
            ("".join(f'{{"features": [], "stage": {i % 5}}}\n' for i in range(10)), [],
             "features.jsonl: line 1: features is empty"),
        ],
        ids=["one-fold", "zero-folds", "one-institution", "ragged-features",
             "non-numeric-feature", "stage-out-of-range", "not-an-object", "nan-feature",
             "institution-with-slash", "stage-bool", "stage-float", "string-feature",
             "bool-feature", "features-not-an-array", "institution-list", "institution-null",
             "feature-beyond-float64", "integer-over-digit-limit", "empty-features"],
    )
    def test_bad_training_input_fails_fast(self, tmp_path, capsys, text, argv, named):
        feats = tmp_path / "features.jsonl"
        feats.write_text(text)
        out = tmp_path / "run"
        for cores in CORES:
            code = run_on(cores, "train", str(feats), *argv, "--epochs", "2", "--out-dir", str(out))
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
        for cores in CORES:
            code = run_on(cores, "train", str(feats), "--mode", mode, "--epochs", "2",
                          "--out-dir", str(out))
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
        for cores in CORES:
            code = run_on(cores, "train", str(feats), "--folds", "10", "--epochs", "2",
                          "--out-dir", str(out))
            assert code == cli.EXIT_DATA
            captured = capsys.readouterr()
            assert "feature column 0" in captured.err
            assert captured.out == ""
            assert not out.exists()

    @pytest.mark.parametrize("epochs", ["1", "3"])
    @pytest.mark.parametrize("model", ["mlp", "logistic"])
    def test_diverging_split_names_its_fold(self, tmp_path, capsys, model, epochs):
        feats = tmp_path / "features.jsonl"
        feats.write_text(_feature_lines())
        out = tmp_path / "run"
        for cores in CORES:
            code = run_on(cores, "train", str(feats), "--model", model, "--learning-rate",
                          "1e300", "--epochs", epochs, "--out-dir", str(out))
            assert code == cli.EXIT_NUMERICAL
            captured = capsys.readouterr()
            assert captured.err.startswith("fracsig: numerical failure: fold 0: ")
            assert captured.err.count("\n") == 1
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
        for cores in CORES:
            code = run_on(
                cores, "train", str(feats), "--folds", "10", "--epochs", "2",
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

    def test_equals_spelling_applies_and_abbreviations_are_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("seed = 3\n")
        argv = ["synth", "fgn", "--hurst", "0.7", "--n", "1024", "--out"]
        assert run(*argv[:-1], "--seed", "3", "--out", str(tmp_path / "flag.csv")) == 0
        for spelling in (["--config", str(cfg)], [f"--config={cfg}"]):
            out = tmp_path / "cfg.csv"
            assert run(*spelling, *argv, str(out)) == 0
            assert out.read_bytes() == (tmp_path / "flag.csv").read_bytes()
        for spelling in (["--conf", str(cfg)], [f"--conf={cfg}"]):  # never read: usage error
            out = tmp_path / "abbreviated.csv"
            assert run(*spelling, *argv, str(out)) == cli.EXIT_USAGE
            assert not out.exists()

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
