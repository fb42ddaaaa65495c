import json

import numpy as np
import pytest

from fracsig import cli, records


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
        channels = (
            records.TimeSeries(rng.standard_normal(1200), 1.0, label="c0"),
            records.TimeSeries(np.zeros(1200), 1.0, label="c1"),
        )
        records.write_record(records.MultichannelRecord(channels), tmp_path / "r.csv")
        entry = records.ManifestEntry("r.csv", "subj-9", "site-a", stage=1)
        records.write_manifest([entry], tmp_path / "manifest.json")
        code = run(
            "extract", str(tmp_path / "manifest.json"),
            "--out", str(tmp_path / "features.jsonl"),
        )
        assert code == cli.EXIT_DATA
        assert "subject 'subj-9': channel 'c1' is constant" in capsys.readouterr().err

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

    def test_bad_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just words\n")
        code = run("--config", str(cfg), "synth", "fgn", "--hurst", "0.5",
                   "--n", "1024", "--out", str(tmp_path / "x.csv"))
        assert code == cli.EXIT_DATA
        assert "key = value" in capsys.readouterr().err
