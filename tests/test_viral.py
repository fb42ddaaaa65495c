from unittest import mock

import numpy as np
import pytest

from fracsig import fracdyn, synth, viral


class TestWindowSpec:
    def test_count_hand_cases(self):
        spec = viral.WindowSpec(3000, 100)
        assert spec.count(3000) == 1
        assert spec.count(3099) == 1
        assert spec.count(3100) == 2
        assert spec.count(2999) == 0

    def test_stride_bounds(self):
        with pytest.raises(ValueError, match="stride"):
            viral.WindowSpec(3000, 0)
        with pytest.raises(ValueError, match="stride"):
            viral.WindowSpec(3000, 3001)

    def test_window_floor(self):
        with pytest.raises(ValueError, match="window_len"):
            viral.WindowSpec(100, 10)
        # the DFA minimum: a shorter window would fail inside its first fit
        with pytest.raises(ValueError, match="window_len must be at least 1024, got 1023"):
            viral.WindowSpec(1023, 100)
        assert viral.WindowSpec(1024, 100).window_len == 1024


class TestSubjectCase:
    def test_split_must_be_inside(self):
        with pytest.raises(ValueError, match="inside"):
            viral.SubjectCase(np.zeros((3, 100)), inoculation_index=100, infected=True)


def side_alphas(case, lo, hi, spec):
    """Orders of the windows of samples [lo, hi), fitted in one batch of their own."""
    starts = range(lo, hi - spec.window_len + 1, spec.stride)
    windows = np.concatenate([case.channels[:, s : s + spec.window_len] for s in starts])
    return fracdyn.estimate_alphas(windows)


def swept_sides(cases, shifts, spec):
    """The (pre, post) window orders that ``shift_sweep`` compares, one list
    of per-case pairs for each shift."""
    with mock.patch.object(viral, "kl_feature", wraps=viral.kl_feature) as kl:
        viral.shift_sweep(cases, shifts, spec)
    pairs = [call.args for call in kl.call_args_list]
    return [pairs[k * len(cases) : (k + 1) * len(cases)] for k in range(len(shifts))]


class TestWindowAlphas:
    """The per-window orders on each side of a split, seen through the sweep."""

    def test_counts_and_shift(self):
        cases = synth.synth_viral_cohort(4, 2, seed=0, side_samples=4200)
        spec = viral.WindowSpec(3000, 200)
        shifts = [0, 200]
        for shift, pairs in zip(shifts, swept_sides(cases, shifts, spec), strict=True):
            for case, (pre, post) in zip(cases, pairs, strict=True):
                split = case.inoculation_index + shift
                # windows times channels, window-major
                assert pre.shape == (spec.count(split) * 3,)
                assert post.shape == (spec.count(case.n_samples - split) * 3,)
                assert np.array_equal(pre, side_alphas(case, 0, split, spec))
                assert np.array_equal(post, side_alphas(case, split, case.n_samples, spec))

    def test_error_reports_window_counts(self):
        cases = synth.synth_viral_cohort(4, 2, seed=0, side_samples=4200)
        spec = viral.WindowSpec(3000, 300)
        with pytest.raises(ValueError, match=(
            "subject 'subj00': shift -3700: need >= 5 windows per side, "
            "got 0 pre and 17 post at split 500"
        )):
            viral.classify_loo(cases, spec, shift=-3700)

    @pytest.mark.parametrize(
        "channel, lo, side, start",
        [(1, 0, "pre", 0), (2, 2560, "post", 2560)],
    )
    def test_unfittable_window_names_the_case(self, channel, lo, side, start):
        # ch01 constant over the pre side, or ch02 constant from sample 2560
        rng = np.random.default_rng(4)
        X = rng.standard_normal((3, 4096))
        X[channel, lo : lo + 1536] = 0.5
        cases = [viral.SubjectCase(X, subject_id="S07", inoculation_index=2048, infected=True)]
        cases += [
            viral.SubjectCase(rng.standard_normal((3, 4096)), subject_id=f"S0{i}",
                              inoculation_index=2048, infected=i % 2 == 0)
            for i in range(3)
        ]
        message = (
            f"subject 'S07': channel 'ch0{channel}': {side} window starting at "
            f"sample {start} has zero fluctuation in every DFA window at scale 16"
        )
        with pytest.raises(ValueError, match=message):
            viral.classify_loo(cases, viral.WindowSpec(1024, 256))

    def test_infected_subject_separates(self):
        cases = synth.synth_viral_cohort(4, 2, seed=1, side_samples=4200, alpha_shift=0.4)
        (pairs,) = swept_sides(cases, [0], viral.WindowSpec(3000, 200))
        for case, (pre, post) in zip(cases[:2], pairs):
            assert case.infected
            assert post.mean() - pre.mean() > 0.2


class TestKlFeature:
    def test_gaussian_closed_form(self):
        # KL(N(0,1) || N(1,1)) = 0.5
        rng = np.random.default_rng(0)
        a = rng.standard_normal(4000)
        b = rng.standard_normal(4000) + 1.0
        kl = viral.kl_feature(a, b, bandwidth=0.2)
        assert abs(kl - 0.5) < 0.1

    def test_identical_distributions_near_zero(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(3000)
        b = rng.standard_normal(3000)
        assert viral.kl_feature(a, b) < 0.05

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a = rng.standard_normal(200)
            b = rng.standard_normal(200) * rng.uniform(0.5, 2)
            assert viral.kl_feature(a, b) >= -1e-9

    def test_asymmetric(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(2000)
        b = rng.standard_normal(2000) * 3 + 1
        kl_ab = viral.kl_feature(a, b, bandwidth=0.3)
        kl_ba = viral.kl_feature(b, a, bandwidth=0.3)
        assert abs(kl_ab - kl_ba) > 0.1

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="5 samples"):
            viral.kl_feature([1.0] * 3, [2.0] * 8)

    def test_zero_variance_advice(self):
        with pytest.raises(ValueError, match="bandwidth"):
            viral.kl_feature([1.0] * 8, [2.0] * 8)


class TestLoo:
    def _cases_from_features(self, features, labels):
        # go through the private fitter to test the threshold rule alone
        return viral._loo_from_features(
            np.asarray(features, float),
            np.asarray(labels, bool),
            [f"s{i}" for i in range(len(features))],
        )

    def test_separated_features_classify_perfectly(self):
        result = self._cases_from_features(
            [5.0, 6.0, 7.0, 0.1, 0.2, 0.3], [1, 1, 1, 0, 0, 0]
        )
        assert result.type_one == 0
        assert result.type_two == 0
        np.testing.assert_array_equal(
            result.predictions, [True, True, True, False, False, False]
        )

    def test_error_type_mapping(self):
        # one infected subject sits inside the healthy cluster
        result = self._cases_from_features(
            [0.1, 6.0, 7.0, 0.2, 0.3, 0.4], [1, 1, 1, 0, 0, 0]
        )
        assert result.type_one == 1  # infected predicted healthy
        assert result.type_two == 0

    def test_label_swap_swaps_error_types(self):
        feats = [0.1, 6.0, 7.0, 5.0, 0.3, 0.4]
        labels = [1, 1, 1, 0, 0, 0]
        a = self._cases_from_features(feats, labels)
        b = self._cases_from_features(feats, [not v for v in labels])
        assert a.type_one == b.type_two
        assert a.type_two == b.type_one

    def test_single_class_fold_rejected(self):
        with pytest.raises(ValueError, match="single class"):
            self._cases_from_features([1.0, 2.0], [1, 0])

    def test_classify_loo_needs_three_cases(self):
        with pytest.raises(ValueError, match="3 cases"):
            viral.classify_loo([])


class TestPipeline:
    def test_small_cohort_end_to_end(self):
        cases = synth.synth_viral_cohort(
            6, 3, seed=4, side_samples=4800, alpha_shift=0.3
        )
        spec = viral.WindowSpec(3000, 300)
        result = viral.classify_loo(cases, spec)
        assert result.type_one + result.type_two <= 1
        rows = viral.shift_sweep(cases, [-300, 0, 300], spec)
        assert len(rows) == 3
        assert [r[0] for r in rows] == [-300, 0, 300]


class TestShiftSweepWindowCache:
    """Each distinct window is fitted once, and slicing changes no order."""

    SPEC = viral.WindowSpec(1024, 100)
    SHIFTS = [-150, -100, 0, 37, 100]  # on and off the stride grid

    @pytest.fixture(scope="class")
    def cases(self):
        return synth.synth_viral_cohort(4, 2, seed=3, side_samples=2000, alpha_shift=0.3)

    def test_sides_equal_own_batch_fits_and_rows(self, cases):
        with mock.patch.object(viral, "kl_feature", wraps=viral.kl_feature) as kl:
            rows = viral.shift_sweep(cases, self.SHIFTS, self.SPEC)
        sides = iter(call.args for call in kl.call_args_list)
        labels = np.array([c.infected for c in cases])
        expected = []
        for shift in self.SHIFTS:
            features = []
            for case in cases:
                split = case.inoculation_index + shift
                pre, post = next(sides)
                reference = (
                    side_alphas(case, 0, split, self.SPEC),
                    side_alphas(case, split, case.n_samples, self.SPEC),
                )
                for got, own in zip((pre, post), reference):
                    assert np.array_equal(got, own)
                features.append(viral.kl_feature(*reference))
            loo = viral._loo_from_features(np.array(features), labels, range(len(cases)))
            expected.append((shift, loo.type_one, loo.type_two))
        assert rows == expected

    def test_each_distinct_window_fitted_once_in_bounded_batches(self, cases):
        spec = self.SPEC
        with mock.patch.object(
            fracdyn, "estimate_alphas", wraps=fracdyn.estimate_alphas
        ) as fit:
            viral.shift_sweep(cases, self.SHIFTS, spec)
        distinct, longest = 0, 0
        for case in cases:
            starts = set()
            for shift in self.SHIFTS:
                split = case.inoculation_index + shift
                for lo, hi in ((0, split), (split, case.n_samples)):
                    side = range(lo, hi - spec.window_len + 1, spec.stride)
                    starts.update(side)
                    longest = max(longest, len(side))
            distinct += len(starts)
        batches = [call.args[0].shape[0] // cases[0].n_channels for call in fit.call_args_list]
        assert sum(batches) == distinct
        assert max(batches) <= longest

    def test_short_side_raises_before_any_fit(self, cases):
        with mock.patch.object(fracdyn, "estimate_alphas") as fit:
            with pytest.raises(ValueError, match="got 16 pre and 4 post at split 2600"):
                viral.shift_sweep(cases, [0, 600], self.SPEC)
        fit.assert_not_called()

    def test_window_only_a_later_shift_asks_for_names_its_first_side(self, cases):
        # ch02 of the last subject is constant over [3584, 4608): the window
        # at 3584 is first asked for by shift 512 (pre), later by -512 (post)
        rng = np.random.default_rng(6)
        X = rng.standard_normal((3, 8192))
        X[2, 3584:4608] = 0.25
        cases = [
            viral.SubjectCase(rng.standard_normal((3, 8192)), subject_id=f"S0{i}",
                              inoculation_index=4096, infected=i % 2 == 0)
            for i in range(3)
        ]
        cases.append(viral.SubjectCase(X, subject_id="S07", inoculation_index=4096, infected=False))
        spec = viral.WindowSpec(1024, 256)
        message = (
            "subject 'S07': channel 'ch02': pre window starting at sample 3584 "
            "has zero fluctuation in every DFA window at scale 16"
        )
        viral.shift_sweep(cases, [0], spec)  # no fitted window is constant
        with pytest.raises(ValueError, match=message):
            viral.shift_sweep(cases, [0, 512, -512], spec)
