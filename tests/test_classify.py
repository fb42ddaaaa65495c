import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fracsig import classify, fracdyn, records, synth


def _toy_cases(n=40, d=6, seed=0, n_institutions=4):
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n):
        cases.append(
            classify.LabeledCase(
                rng.standard_normal(d),
                stage=i % classify.N_STAGES,
                institution=f"inst-{i % n_institutions}",
                subject_id=f"s{i:02d}",
            )
        )
    return cases


class TestLabeledCase:
    def test_flattens(self):
        case = classify.LabeledCase(np.ones((3, 3)), 0)
        assert case.features.shape == (9,)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            classify.LabeledCase([np.nan], 0)

    def test_rejects_bad_stage(self):
        with pytest.raises(ValueError, match="stage"):
            classify.LabeledCase([1.0], 7)


class TestExtractFeatures:
    def test_feature_count_is_channels_squared(self):
        model = synth.random_stable_model(4, 0, noise_scale=1.0)
        record = fracdyn.simulate(model, 1500, seed=0, stage_label=2)
        case = classify.extract_features(record)
        assert case.features.shape == (16,)
        assert case.stage == 2

    def test_unlabeled_rejected(self):
        model = synth.random_stable_model(3, 0, noise_scale=1.0)
        record = fracdyn.simulate(model, 1500, seed=0)
        with pytest.raises(ValueError, match="unlabeled"):
            classify.extract_features(record)


    def test_constant_channel_named_before_dividing(self):
        model = synth.random_stable_model(3, 0, noise_scale=1.0)
        record = fracdyn.simulate(model, 1500, seed=0, stage_label=2, subject_id="s7")
        flat = records.TimeSeries(np.full(1500, 3.0), 1.0, label=record.labels()[1])
        channels = (record.channels[0], flat, record.channels[2])
        record = records.MultichannelRecord(channels, "s7", stage_label=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValueError, match=rf"subject 's7': channel '{flat.label}' is constant"
            ):
                classify.extract_features(record)


class TestMinMaxScaler:
    def test_maps_to_unit_interval(self):
        X = np.random.default_rng(0).standard_normal((20, 4)) * 5
        out = classify.MinMaxScaler().fit_transform(X)
        assert out.min() == 0.0 and out.max() == 1.0

    def test_constant_feature_maps_to_half(self):
        X = np.ones((5, 1))
        out = classify.MinMaxScaler().fit_transform(X)
        np.testing.assert_array_equal(out, 0.5)

    def test_test_data_clamped(self):
        scaler = classify.MinMaxScaler().fit(np.array([[0.0], [1.0]]))
        out = scaler.transform(np.array([[-3.0], [5.0]]))
        np.testing.assert_array_equal(out.ravel(), [0.0, 1.0])

    def test_unfitted_rejected(self):
        with pytest.raises(ValueError, match="not fitted"):
            classify.MinMaxScaler().transform(np.zeros((1, 1)))


class TestArchitecture:
    def test_parameter_count_at_144_inputs(self):
        params = classify.init_mlp(144)
        assert params.parameter_count() == 74_105

    def test_parameter_count_formula(self):
        params = classify.init_mlp(36)
        expected = 36 * 300 + 300 + 300 * 100 + 100 + 100 * 5 + 5
        assert params.parameter_count() == expected

    def test_init_deterministic(self):
        a = classify.init_mlp(10, seed=3)
        b = classify.init_mlp(10, seed=3)
        np.testing.assert_array_equal(a.weights[0], b.weights[0])


class TestSoftmaxProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        hnp.arrays(np.float64, (3, 5), elements=st.floats(-50, 50)),
        st.floats(-100, 100),
    )
    def test_probability_axioms_and_shift_invariance(self, logits, shift):
        probs = classify._softmax(logits)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)
        shifted = classify._softmax(logits + shift)
        np.testing.assert_array_equal(
            probs.argmax(axis=1), shifted.argmax(axis=1)
        )


class TestGradients:
    def test_analytic_matches_numerical(self):
        rng = np.random.default_rng(0)
        params = classify.init_mlp(4, hidden=(5,), n_classes=3, seed=0)
        X = rng.standard_normal((6, 4))
        y = rng.integers(0, 3, size=6)
        _, grad = classify.mlp_gradients(params, X, y)
        numerical = classify.numerical_gradients(params, X, y)
        a, b = grad.flat, numerical.flat
        denom = np.maximum(np.abs(a) + np.abs(b), 1e-8)
        assert np.max(np.abs(a - b) / denom) < 1e-4


class TestTraining:
    def _blobs(self, n=60, seed=0):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 3, size=n)
        X = rng.standard_normal((n, 4)) * 0.1 + y[:, None]
        return X, y

    def test_mlp_learns_separable_blobs(self):
        X, y = self._blobs()
        cfg = classify.TrainConfig(epochs=60, batch_size=16, seed=0)
        params, history = classify.mlp_train(X, y, cfg, n_classes=3)
        preds = classify.mlp_predict(params, X).argmax(axis=1)
        assert np.mean(preds == y) > 0.95
        assert len(history["loss"]) == 60
        assert history["loss"][-1] < history["loss"][0]

    def test_mlp_deterministic(self):
        X, y = self._blobs()
        cfg = classify.TrainConfig(epochs=5, seed=1)
        a, _ = classify.mlp_train(X, y, cfg, n_classes=3)
        b, _ = classify.mlp_train(X, y, cfg, n_classes=3)
        np.testing.assert_array_equal(a.weights[0], b.weights[0])

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="2 classes"):
            classify.mlp_train(np.zeros((4, 2)), np.zeros(4, int))

    def test_logistic_learns_separable_blobs(self):
        X, y = self._blobs()
        model, losses = classify.logistic_train(X, y, epochs=500, lr=0.5, n_classes=3)
        preds = classify.mlp_predict(model, X).argmax(axis=1)
        assert np.mean(preds == y) > 0.95
        assert losses[-1] < losses[0]

    def test_logistic_l2_matches_full_batch_reference(self):
        X, y = self._blobs()
        l2, lr, epochs = 0.1, 0.5, 50
        params, losses = classify.logistic_train(
            X, y, l2=l2, epochs=epochs, lr=lr, n_classes=3
        )
        # plain full-batch softmax gradient descent, L2 on the weights only
        onehot = np.eye(3)[y]
        W, b, ref = np.zeros((4, 3)), np.zeros(3), []
        for _ in range(epochs):
            z = X @ W + b
            e = np.exp(z - z.max(axis=1, keepdims=True))
            probs = e / e.sum(axis=1, keepdims=True)
            loss = -np.mean(np.sum(onehot * np.log(probs + 1e-30), axis=1))
            ref.append(float(loss + 0.5 * l2 * np.sum(W**2)))
            delta = (probs - onehot) / len(y)
            W -= lr * (X.T @ delta + l2 * W)
            b -= lr * delta.sum(axis=0)
        np.testing.assert_array_equal(losses, ref)
        np.testing.assert_array_equal(params.weights[0], W)
        np.testing.assert_array_equal(params.biases[0], b)

    def test_logistic_divergence_advice(self):
        X, y = self._blobs()
        with pytest.raises(fracdyn.NumericalError, match="lower lr"):
            classify.logistic_train(X * 100, y, lr=1e3, n_classes=3)

    def test_prediction_input_width_checked(self):
        params = classify.init_mlp(4, hidden=(5,), n_classes=3)
        with pytest.raises(ValueError, match="features"):
            classify.mlp_predict(params, np.zeros((2, 7)))


class TestKfold:
    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(10, 60),
        k=st.integers(2, 6),
        seed=st.integers(0, 1000),
    )
    def test_partition_properties(self, n, k, seed):
        cases = _toy_cases(n)
        splits = classify.kfold(cases, k, seed)
        assert len(splits) == k
        all_test = np.concatenate([test for _, test in splits])
        assert sorted(all_test) == list(range(n))  # disjoint and exhaustive
        for train, test in splits:
            assert np.intersect1d(train, test).size == 0
            assert len(train) + len(test) == n

    def test_by_subject_keeps_subjects_whole(self):
        cases = _toy_cases(30)
        # two records per subject
        doubled = cases + [
            classify.LabeledCase(c.features + 1, c.stage, c.institution, c.subject_id)
            for c in cases
        ]
        splits = classify.kfold(doubled, 3, 0, by_subject=True)
        for _, test in splits:
            test_subjects = {doubled[i].subject_id for i in test}
            outside = {
                doubled[i].subject_id
                for i in range(len(doubled))
                if i not in set(test)
            }
            assert not (test_subjects & outside)

    def test_by_subject_needs_a_subject_per_fold(self):
        cases = [
            classify.LabeledCase([float(i)], i % 5, subject_id=f"s{i % 3}")
            for i in range(12)
        ]
        with pytest.raises(ValueError, match="3 subjects cannot fill 5 folds"):
            classify.kfold(cases, 5, by_subject=True)

    def test_too_few_cases(self):
        with pytest.raises(ValueError, match="at least"):
            classify.kfold(_toy_cases(3), 5)


class TestHoldout:
    def test_test_set_is_pure_and_untouched(self):
        cases = _toy_cases(40)
        train, test = classify.holdout(cases, "inst-2")
        assert all(c.institution == "inst-2" for c in test)
        assert all(c.institution != "inst-2" for c in train)
        assert len(test) == 10

    def test_train_set_rebalanced(self):
        cases = _toy_cases(41)  # stage counts now unequal
        train, _ = classify.holdout(cases, "inst-0")
        counts = np.bincount([c.stage for c in train], minlength=5)
        assert counts.min() == counts.max()

    def test_unknown_institution_lists_available(self):
        with pytest.raises(ValueError, match="inst-0"):
            classify.holdout(_toy_cases(10), "nope")


class TestMetrics:
    def test_hand_confusion_matrix(self):
        # 3 classes, 10 samples, hand-counted rates
        y = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2, 2])
        probs = np.zeros((10, 3))
        hits = [0, 0, 1, 1, 1, 2, 2, 2, 2, 0]  # predictions
        probs[np.arange(10), hits] = 1.0
        m = classify.evaluate(y, probs, n_classes=3)
        assert m.accuracy == 0.7
        np.testing.assert_allclose(m.sensitivity, [2 / 3, 2 / 3, 3 / 4])
        np.testing.assert_allclose(m.specificity, [6 / 7, 6 / 7, 5 / 6])
        np.testing.assert_allclose(m.precision, [2 / 3, 2 / 3, 3 / 4])

    def test_absent_class_rates_are_nan(self):
        y = np.array([0, 0, 1])
        probs = np.eye(3)[[0, 0, 1]]
        m = classify.evaluate(y, probs, n_classes=3)
        assert np.isnan(m.sensitivity[2])
        assert m.to_dict()["sensitivity"][2] is None

    def test_perfect_scores(self):
        y = np.array([0, 1, 2, 3, 4])
        probs = np.eye(5)
        m = classify.evaluate(y, probs)
        assert m.accuracy == 1.0
        assert m.macro_auroc == 1.0

    def test_random_scores_auroc_near_half(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 5, size=1000)
        probs = rng.random((1000, 5))
        probs /= probs.sum(axis=1, keepdims=True)
        m = classify.evaluate(y, probs)
        assert abs(m.macro_auroc - 0.5) <= 0.05

    def test_reversed_scores_auroc_zero(self):
        scores = np.array([0.1, 0.2, 0.3, 0.4])
        positives = np.array([True, True, False, False])
        assert classify._binary_auroc(scores, positives) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            classify.evaluate(np.array([]), np.zeros((0, 5)))


class TestModelIo:
    def test_round_trip(self, tmp_path):
        params = classify.init_mlp(6, hidden=(4,), n_classes=3, seed=2)
        path = tmp_path / "model.txt"
        classify.save_model(params, path)
        back, _ = classify.load_model(path)
        assert back.sizes == params.sizes
        for w1, w2 in zip(back.weights, params.weights):
            np.testing.assert_array_equal(w1, w2)
        X = np.random.default_rng(0).standard_normal((3, 6))
        np.testing.assert_array_equal(
            classify.mlp_predict(back, X), classify.mlp_predict(params, X)
        )
