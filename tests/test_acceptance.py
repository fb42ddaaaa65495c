"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line so the suite doubles as a report.
Criterion 1's partial-sum clause checks the exact Grünwald–Letnikov
tail: for 0 < alpha < 1 the truncated kernel sums to
S_J = Gamma(J+1-alpha) / (Gamma(1-alpha) Gamma(J+1)) ~ J^-alpha / Gamma(1-alpha),
which is positive and falls to zero with J but stays above 1e-2 at
J = 10^4 for orders below roughly 0.45, so the absolute 1e-2 bound is
asserted only for the orders whose exact tail lies below it.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln

from fracsig import _run, classify, cli, fracdyn, mfdfa, synth, viral

from oracles import numerical_gradients
from test_mfdfa import plain_dfa


def report(name: str, ok: bool, detail: str = "") -> bool:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


class TestCriterion1GlKernel:
    def test_recurrence_matches_gamma_formula(self):
        from test_fracdyn import gamma_ratio_kernel

        t0 = time.time()
        worst = 0.0
        for a in np.arange(0.1, 2.0, 0.1):
            psi = fracdyn.gl_coefficients(a, 50)
            if np.isclose(a, 1.0):
                # Gamma(-1) pole: the limit is the exact first difference
                oracle = np.zeros(51)
                oracle[0], oracle[1] = 1.0, -1.0
            else:
                oracle = gamma_ratio_kernel(a, 50)
            worst = max(worst, np.max(np.abs(psi - oracle)))
        elapsed = time.time() - t0
        ok = worst < 1e-10 and elapsed < 1.0
        assert report(
            "GL kernel recurrence vs Gamma formula",
            ok,
            f"max abs diff {worst:.2e}, {elapsed:.2f} s",
        )

    def test_partial_sums_vanish(self):
        # S_J = Gamma(J+1-a) / (Gamma(1-a) Gamma(J+1)): positive, falling
        # like J^-a, above 1e-2 at J = 10^4 for a < ~0.45
        t0 = time.time()
        horizons = np.array([10, 10**2, 10**3, 10**4])
        worst = 0.0
        falling = True
        tails = {}
        for a in (0.1, 0.3, 0.5, 0.7, 0.9):
            psi = fracdyn.gl_coefficients(a, 10**4)
            sums = np.array([psi[: J + 1].sum() for J in horizons])
            exact = np.exp(
                gammaln(horizons + 1 - a) - gammaln(1 - a) - gammaln(horizons + 1)
            )
            worst = max(worst, float(np.max(np.abs(sums / exact - 1.0))))
            falling = falling and bool(np.all(sums > 0) and np.all(np.diff(sums) < 0))
            tails[a] = float(sums[-1])
        elapsed = time.time() - t0
        ok = (
            worst < 1e-9
            and falling
            and all(tails[a] < 1e-2 for a in (0.5, 0.7, 0.9))
            and elapsed < 1.0
        )
        detail = (
            ", ".join(f"a={a}: {s:.1e}" for a, s in tails.items())
            + f"; max rel diff {worst:.1e}, {elapsed:.2f} s"
        )
        assert report(
            "GL kernel partial sums vs exact tail at 1e4 terms", ok, detail
        )


class TestCriterion2FgnHurst:
    def test_mean_error_bound(self):
        t0 = time.time()
        errors = {}
        for h_true in (0.3, 0.5, 0.8):
            X = np.stack(
                [synth.synth_fgn(h_true, 1 << 16, seed) for seed in range(20)]
            )
            h_hat, _ = mfdfa.dfa_exponents(X)
            errors[h_true] = float(np.mean(np.abs(h_hat - h_true)))
        elapsed = time.time() - t0
        ok = all(e <= 0.05 for e in errors.values()) and elapsed < 30.0
        detail = (
            ", ".join(f"H={h}: {e:.3f}" for h, e in errors.items())
            + f"; {elapsed:.1f} s"
        )
        assert report("fGn Hurst estimation, 20 seeds at n=2^16", ok, detail)


class TestCriterion3MultifractalOracle:
    def test_cascade_spectrum_and_focus(self):
        p = 0.75
        x = synth.synth_cascade(p, 14)
        cfg = mfdfa.MfdfaConfig(scale_grid=tuple(mfdfa.dyadic_scale_grid(x.size)))
        sf = mfdfa.scaling_function(mfdfa.profile(x), cfg)
        spectrum = mfdfa.hurst_spectrum(sf)
        analytic = synth.cascade_hurst_exponent(p, spectrum.q_grid)
        max_err = float(np.max(np.abs(spectrum.h - analytic)))
        nonincreasing = bool(np.all(np.diff(spectrum.h) <= 1e-9))
        spread = mfdfa.focus_point(sf, spectrum).spread
        ok = max_err <= 0.1 and nonincreasing and spread <= 1.05
        assert report(
            "binomial cascade vs analytic exponents",
            ok,
            f"max |H(q) err| {max_err:.3f}, nonincreasing {nonincreasing}, "
            f"focus spread {spread:.4f}",
        )


class TestCriterion4DfaReduction:
    def test_q2_equals_plain_dfa(self):
        rng = np.random.default_rng(42)
        scales = (16, 32, 64, 128, 256)
        worst = 0.0
        for _ in range(10):
            x = rng.standard_normal(2048)
            cfg = mfdfa.MfdfaConfig(q_grid=(2.0,), scale_grid=scales)
            sf = mfdfa.scaling_function(mfdfa.profile(x), cfg)
            oracle = plain_dfa(x, scales)
            worst = max(worst, float(np.max(np.abs(sf.values[0] / oracle - 1.0))))
        ok = worst < 1e-10
        assert report(
            "q=2 scaling function vs independent DFA", ok, f"max rel diff {worst:.2e}"
        )


class TestCriterion5SystemIdentification:
    def test_known_input_median_error(self):
        rel_errors = []
        for seed in range(10):
            model = synth.random_stable_model(
                12, seed, noise_scale=1.0, diag_shift=0.8, spectral_radius=0.5
            )
            X = fracdyn.simulate(model, 10_000, seed=seed + 50)
            # 20 dB measurement noise on top of the simulated record
            rng = np.random.default_rng(seed + 500)
            sigma = X.std(axis=1, keepdims=True) / np.sqrt(100.0)
            X = X + sigma * rng.standard_normal(X.shape)
            A_hat = fracdyn.estimate_coupling(X, model.alpha)
            rel_errors.append(
                np.linalg.norm(A_hat - model.A) / np.linalg.norm(model.A)
            )
        median = float(np.median(rel_errors))
        ok = median < 0.05
        assert report(
            "coupling estimation at 20 dB SNR, 10 seeds", ok, f"median rel err {median:.3f}"
        )

    def test_unknown_input_beats_blind(self):
        wins = 0
        margins = []
        for seed in range(10):
            model = synth.random_stable_model(
                12, seed, noise_scale=1.0, diag_shift=0.8,
                spectral_radius=0.5, n_inputs=1,
            )
            rng = np.random.default_rng(seed + 900)
            u = np.zeros((10_000, 1))
            for b in rng.integers(0, 9000, 40):
                u[b : b + 60, 0] = 5.0
            X = fracdyn.simulate(model, 10_000, u=u, seed=seed + 100)

            def err(A):
                return np.linalg.norm(A - model.A) / np.linalg.norm(model.A)

            blind = err(fracdyn.estimate_coupling(X, model.alpha))
            aware = err(
                fracdyn.estimate_with_unknown_input(X, model.alpha, 1).model.A
            )
            wins += aware < blind
            margins.append(blind - aware)
        ok = wins >= 9
        assert report(
            "rank-1 unknown input, aware vs blind",
            ok,
            f"{wins}/10 wins, median margin {np.median(margins):.3f}",
        )


class TestCriterion6AlphaRoundTrip:
    def test_mean_error_bound(self):
        errors = {}
        for alpha in (0.0, 0.2, 0.4):
            X = np.stack(
                [
                    synth.synth_frac_noise(alpha, 1 << 14, seed)
                    for seed in range(20)
                ]
            )
            alpha_hat = fracdyn.estimate_alphas(X)
            errors[alpha] = float(np.mean(np.abs(alpha_hat - alpha)))
        ok = all(e <= 0.07 for e in errors.values())
        detail = ", ".join(f"a={a}: {e:.3f}" for a, e in errors.items())
        assert report("fractional order round trip, 20 seeds", ok, detail)


class TestCriterion7CouplingConvergence:
    def test_distance_below_threshold_after_600s(self):
        model = synth.random_stable_model(
            12, 7, noise_scale=1.0, diag_shift=0.8, spectral_radius=0.5
        )
        # at 1 Hz a prefix of t samples is t seconds
        X = fracdyn.simulate(model, 3600, seed=7)
        times, dists = fracdyn.coupling_convergence(X, model.alpha, 60)
        late = dists[times >= 600.0]
        ok = late.size > 0 and bool(np.all(late < 0.02))
        assert report(
            "coupling convergence on a 1 Hz hour",
            ok,
            f"max distance after 600 s: {late.max():.4f} over {late.size} steps",
        )


@pytest.fixture(scope="module")
def stage_cohort():
    records = synth.synth_stage_cohort(seed=3)
    X = np.stack([classify.extract_features(r) for r in records])
    y = np.array([r.stage_label for r in records])
    return X, y, [r.institution for r in records]


class TestCriterion8Classifier:
    def test_parameter_count(self):
        count = classify.init_mlp(144).parameter_count()
        ok = count == 74_105
        assert report("network parameter count at 144 inputs", ok, str(count))

    def test_gradient_check(self):
        rng = np.random.default_rng(0)
        params = classify.init_mlp(6, hidden=(8, 4), n_classes=5, seed=1)
        X = rng.standard_normal((5, 6))
        y = rng.integers(0, 5, size=5)
        _, grad = classify.mlp_gradients(params, X, y)
        numerical = numerical_gradients(params, X, y)
        a, b = grad.flat, numerical.flat
        denom = np.maximum(np.abs(a) + np.abs(b), 1e-8)
        worst = float(np.max(np.abs(a - b) / denom))
        ok = worst < 1e-4
        assert report("backprop gradient check", ok, f"max rel err {worst:.2e}")

    def test_cohort_accuracies(self, stage_cohort):
        X, y, institutions = stage_cohort
        cfg = classify.TrainConfig(epochs=500, seed=0)
        folds = classify.kfold(len(y), 5, seed=0)
        # the 14 fits as one item list of the command line's fork-join map
        splits = [(f"fold {i} {model}", train, test, model)
                  for model in ("mlp", "logistic") for i, (train, test) in enumerate(folds)]
        splits += [(f"holdout {name}", *classify.holdout(institutions, y, name, seed=0), "mlp")
                   for name in sorted(set(institutions))]

        def accuracy(split):
            _, train, test, model = split
            return classify.fit_split(X, y, train, test, cfg, model=model)[0].accuracy

        accs = _run._fork_map(accuracy, splits, name=lambda split: split[0])
        mlp_accs, logistic_accs, holdout_accs = accs[:5], accs[5:10], accs[10:]

        kfold_acc = float(np.mean(mlp_accs))
        logistic_acc = float(np.mean(logistic_accs))
        holdout_acc = float(np.mean(holdout_accs))
        ok = kfold_acc >= 0.95 and holdout_acc >= 0.90 and logistic_acc < kfold_acc
        assert report(
            "5-class cohort accuracies",
            ok,
            f"5-fold {kfold_acc:.3f}, holdout {holdout_acc:.3f}, "
            f"logistic {logistic_acc:.3f}",
        )


class TestCriterion9Metrics:
    def test_hand_and_random_cases(self):
        y = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2, 2])
        hits = [0, 0, 1, 1, 1, 2, 2, 2, 2, 0]
        probs = np.zeros((10, 3))
        probs[np.arange(10), hits] = 1.0
        m = classify.evaluate(y, probs)
        hand_ok = (
            m.accuracy == 0.7
            and np.allclose(m.sensitivity, [2 / 3, 2 / 3, 3 / 4])
            and np.allclose(m.specificity, [6 / 7, 6 / 7, 5 / 6])
            and np.allclose(m.precision, [2 / 3, 2 / 3, 3 / 4])
        )

        rng = np.random.default_rng(1)
        y_rand = rng.integers(0, 5, size=1000)
        p_rand = rng.random((1000, 5))
        p_rand /= p_rand.sum(axis=1, keepdims=True)
        auroc = classify.evaluate(y_rand, p_rand).macro_auroc
        random_ok = abs(auroc - 0.5) <= 0.05

        perfect = classify.evaluate(np.arange(5), np.eye(5))
        perfect_ok = perfect.accuracy == 1.0 and perfect.macro_auroc == 1.0

        ok = hand_ok and random_ok and perfect_ok
        assert report(
            "confusion-matrix metrics",
            ok,
            f"hand rates {hand_ok}, random AUROC {auroc:.3f}, perfect {perfect_ok}",
        )


class TestCriterion10ViralPipeline:
    def test_loo_errors_and_sweep_shape(self):
        cases = synth.synth_viral_cohort(seed=5, side_samples=8000, alpha_shift=0.25)
        spec = viral.WindowSpec(3000, 300)
        shifts = [-3000, -1500, 0, 1500, 3000]
        rows = viral.shift_sweep(cases, shifts, spec)
        totals = {s: t1 + t2 for s, t1, t2 in rows}
        type_two = [t2 for _, _, t2 in rows]

        loo_ok = totals[0] <= 3
        min_total = min(totals.values())
        min_ok = min(totals[s] for s in (-1500, 0, 1500)) == min_total
        flat_ok = max(type_two) - min(type_two) <= 1
        ok = loo_ok and min_ok and flat_ok
        detail = (
            "; ".join(f"shift {s}: {t1}+{t2}" for s, t1, t2 in rows)
            + f"; min near 0 {min_ok}, type II flat {flat_ok}"
        )
        assert report("18-subject early-detection sweep", ok, detail)


class TestCriterion11CliDeterminism:
    def _run_all(self, root: Path, tag: str) -> list[Path]:
        base = root / tag
        base.mkdir()
        fgn = base / "fgn.csv"
        casc = base / "cascade.csv"
        system = base / "system.csv"
        model = base / "model.json"
        cohort = base / "cohort"
        feats = base / "features.jsonl"
        run = base / "run"
        curve = base / "curve.csv"
        vir = base / "viral"
        sweep = base / "sweep.csv"
        cmds = [
            ["synth", "fgn", "--hurst", "0.8", "--n", "4096", "--seed", "7",
             "--out", str(fgn)],
            ["synth", "cascade", "--p", "0.75", "--depth", "12", "--seed", "1",
             "--out", str(casc)],
            ["synth", "system", "--channels", "4", "--n", "2500", "--seed", "2",
             "--out", str(system), "--model-out", str(model)],
            ["mfdfa", str(casc), "--dyadic", "--out-dir", str(base / "mf")],
            ["synth", "cohort", "--per-class", "2", "--channels", "3",
             "--samples", "1200", "--seed", "3", "--out-dir", str(cohort)],
            ["extract", str(cohort / "manifest.json"), "--out", str(feats)],
            ["train", str(feats), "--mode", "kfold", "--folds", "2",
             "--epochs", "10", "--seed", "4", "--out-dir", str(run)],
            ["convergence", str(system), "--step-seconds", "300",
             "--out", str(curve)],
            ["synth", "viral", "--subjects", "6", "--infected", "3",
             "--side-samples", "4800", "--seed", "5", "--out-dir", str(vir)],
            ["viral", str(vir / "manifest.json"), "--stride", "300",
             "--shifts=-300,0,300", "--out", str(sweep)],
        ]
        for cmd in cmds:
            assert cli.main(cmd) == 0, cmd
        return sorted(p for p in base.rglob("*") if p.is_file())

    def test_reruns_byte_identical(self, tmp_path, capsys):
        first = self._run_all(tmp_path, "first")
        second = self._run_all(tmp_path, "second")
        names_first = [p.relative_to(tmp_path / "first") for p in first]
        names_second = [p.relative_to(tmp_path / "second") for p in second]
        mismatched = []
        if names_first != names_second:
            mismatched.append("file sets differ")
        else:
            for a, b in zip(first, second):
                if a.read_bytes() != b.read_bytes():
                    mismatched.append(str(a.relative_to(tmp_path / "first")))
        ok = not mismatched
        with capsys.disabled():
            report(
                "CLI determinism across reruns",
                ok,
                f"{len(first)} files compared"
                + ("" if ok else f"; mismatched: {mismatched}"),
            )
        assert ok
