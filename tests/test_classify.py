import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fracsig import classify, fracdyn, records, synth


def _toy_labels(n=40, n_institutions=4):
    """Institution names and stages of ``n`` cases, both cycling."""
    institutions = [f"inst-{i % n_institutions}" for i in range(n)]
    return institutions, np.arange(n) % classify.N_STAGES


class TestExtractFeatures:
    def test_feature_count_is_channels_squared(self):
        model = synth.random_stable_model(4, 0, noise_scale=1.0)
        record = records.MultichannelRecord(fracdyn.simulate(model, 1500, seed=0))
        features = classify.extract_features(record)
        assert features.shape == (16,)
        assert features.dtype == np.float64

    def test_one_order_estimate_per_record(self, monkeypatch):
        model = synth.random_stable_model(5, 1, noise_scale=1.0)
        record = records.MultichannelRecord(fracdyn.simulate(model, 1500, seed=1))
        X = record.channels
        Z = (X - X.mean(axis=1, keepdims=True)) / X.std(axis=1, keepdims=True)
        per_channel = np.array([fracdyn.estimate_alphas(row)[0] for row in Z])
        expected = fracdyn.estimate_coupling(Z, per_channel).ravel()
        calls = []
        original = fracdyn.estimate_alphas
        monkeypatch.setattr(fracdyn, "estimate_alphas", lambda X: calls.append(X) or original(X))
        np.testing.assert_array_equal(classify.extract_features(record), expected)
        assert [c.shape for c in calls] == [(5, 1500)]

    def test_constant_channel_named_before_dividing(self):
        model = synth.random_stable_model(3, 0, noise_scale=1.0)
        channels = fracdyn.simulate(model, 1500, seed=0)
        channels[1] = 3.0
        record = records.MultichannelRecord(channels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValueError, match=rf"channel '{record.labels[1]}' is constant"
            ):
                classify.extract_features(record)

    @pytest.mark.parametrize("scale", [1e-300, 1e200], ids=["tiny", "huge"])
    def test_channel_beyond_float64_variance_named_before_dividing(self, scale):
        channels = np.random.default_rng(0).standard_normal((3, 1500))
        channels[2] *= scale
        record = records.MultichannelRecord(channels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=(
                rf"^channel '{record.labels[2]}' has a variance outside the float64 range; "
                "cannot z-score it$"
            )):
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

    @settings(max_examples=40, deadline=None)
    @given(
        fit=hnp.arrays(np.float64, (6, 3), elements=st.floats(-1e6, 1e6)),
        test=hnp.arrays(np.float64, (5, 3), elements=st.floats(-1e12, 1e12)),
    )
    @example(  # a subnormal span overflows the affine map
        fit=np.vstack([np.full((1, 3), 5e-324), np.zeros((5, 3))]),
        test=np.full((5, 3), 1e12),
    )
    def test_output_in_unit_interval_outside_fit_range(self, fit, test):
        scaler = classify.MinMaxScaler().fit(fit)
        for X in (fit, test):
            out = scaler.transform(X)
            assert out.shape == X.shape
            assert np.all((out >= 0.0) & (out <= 1.0))

    def test_range_wider_than_float64_rejected_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaler = classify.MinMaxScaler()
            with pytest.raises(ValueError, match="feature column 1"):
                scaler.fit([[0.0, -1e308], [1.0, 1e308]])
            assert scaler.lo is None
            out = scaler.fit([[-1e308], [0.0]]).transform([[0.0], [-1e308]])
            np.testing.assert_array_equal(out, [[1.0], [0.0]])

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
        # not argmax equality: logits + shift can round a gap of 1e-16 away
        shifted = classify._softmax(logits + shift)
        np.testing.assert_allclose(shifted, probs, rtol=1e-12)


class TestGradients:
    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    def test_matches_allocating_backprop(self, dropout):
        # reference: forward and backward passes that allocate every step
        rng = np.random.default_rng(3)
        params = classify.init_mlp(7, hidden=(9, 6), n_classes=4, seed=1)
        X = rng.standard_normal((11, 7))
        y = rng.integers(0, 4, size=11)
        loss, grad = classify.mlp_gradients(params, X, y, dropout, np.random.default_rng(5))

        drop_rng = np.random.default_rng(5)
        acts, masks, h = [X], [], X
        for i, (w, b) in enumerate(zip(params.weights, params.biases)):
            z = h @ w + b
            if i < len(params.weights) - 1:
                h = np.maximum(z, 0.0)
                mask = None
                if dropout > 0.0:
                    mask = (drop_rng.random(h.shape) >= dropout) / (1.0 - dropout)
                    h = h * mask
                masks.append(mask)
            else:
                e = np.exp(z - z.max(axis=1, keepdims=True))
                h = e / e.sum(axis=1, keepdims=True)
            acts.append(h)
        onehot = np.eye(4)[y]
        delta = (acts[-1] - onehot) / len(y)
        expected = classify.MLPParams(params.sizes)
        for i in reversed(range(len(params.weights))):
            expected.weights[i][...] = acts[i].T @ delta
            expected.biases[i][...] = delta.sum(axis=0)
            if i > 0:
                delta = delta @ params.weights[i].T
                if masks[i - 1] is not None:
                    delta = delta * masks[i - 1]
                delta = delta * (acts[i] > 0)
        np.testing.assert_array_equal(grad.flat, expected.flat)
        assert loss == -np.mean(np.sum(onehot * np.log(acts[-1] + 1e-30), axis=1))

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

    @pytest.mark.parametrize("batch_size", [64, 16])
    def test_mlp_matches_allocating_rmsprop(self, batch_size):
        # reference: the same loop with the rmsprop step written out allocating
        X, y = self._blobs(n=90)
        cfg = classify.TrainConfig(epochs=4, batch_size=batch_size, seed=2)
        params, history = classify.mlp_train(X, y, cfg, hidden=(20, 10), n_classes=3)

        ref = classify.init_mlp(X.shape[1], (20, 10), 3, cfg.seed)
        rng = np.random.default_rng(cfg.seed + 1)
        flat = ref.flat
        cache = np.zeros_like(flat)
        losses_by_epoch, accuracy = [], []
        for _ in range(cfg.epochs):
            order = rng.permutation(len(y))
            losses = []
            for start in range(0, len(y), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                loss, grad = classify.mlp_gradients(ref, X[idx], y[idx], cfg.dropout_rate, rng)
                losses.append(loss)
                g = grad.flat
                cache *= classify.RMSPROP_DECAY
                cache += (1 - classify.RMSPROP_DECAY) * g**2
                flat -= 0.001 * g / (np.sqrt(cache) + classify.RMSPROP_EPSILON)
            losses_by_epoch.append(float(np.mean(losses)))
            preds = classify.mlp_predict(ref, X).argmax(axis=1)
            accuracy.append(float(np.mean(preds == y)))
        assert np.array_equal(params.flat, flat)
        assert history == {"loss": losses_by_epoch, "accuracy": accuracy}

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="2 classes"):
            classify.mlp_train(np.zeros((4, 2)), np.zeros(4, int))

    @pytest.mark.parametrize("y", [np.zeros(6), np.full(6, 3), np.zeros(0)],
                             ids=["zeros", "threes", "empty"])
    def test_logistic_single_class_rejected(self, y):
        X = np.zeros((y.size, 2))
        with pytest.raises(ValueError, match="^training set must contain at least 2 classes$"):
            classify.logistic_train(X, y)

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

    @pytest.mark.parametrize("epochs", [1, 3])
    @pytest.mark.parametrize("model", ["mlp", "logistic"])
    def test_diverging_step_raises_without_warning(self, model, epochs):
        # the first update overflows the next forward pass; with one epoch,
        # only the check after that update can see it
        X, y = self._blobs()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(fracdyn.NumericalError, match="diverged at epoch"):
                if model == "mlp":
                    cfg = classify.TrainConfig(epochs=epochs, learning_rate=1e300)
                    classify.mlp_train(X, y, cfg, n_classes=3)
                else:
                    classify.logistic_train(X, y, epochs=epochs, lr=1e300, n_classes=3)

    def test_fit_split_steps_by_the_config_learning_rate(self):
        X, y = self._blobs()
        train, test = np.arange(40), np.arange(40, 60)
        scaler = classify.MinMaxScaler().fit(X[train])

        def split(model, **kwargs):
            """The split's metrics and per-epoch losses (logistic accuracies are NaN)."""
            cfg = classify.TrainConfig(epochs=6, seed=3, **kwargs)
            metrics, history = classify.fit_split(X, y, train, test, cfg, model=model)
            return metrics.to_dict(), history["loss"]

        fast, default = split("logistic", learning_rate=0.5), split("logistic")
        assert fast != default
        params, losses = classify.logistic_train(scaler.transform(X[train]), y[train],
                                                 epochs=6, lr=0.5)
        probs = classify.mlp_predict(params, scaler.transform(X[test]))
        assert fast == (classify.evaluate(y[test], probs).to_dict(), losses)
        # unset is each trainer's own default step size, bit for bit
        assert split("mlp") == split("mlp", learning_rate=0.001)
        assert default == split("logistic", learning_rate=0.01)
        cfg = classify.TrainConfig(epochs=3, seed=3)
        explicit = classify.TrainConfig(epochs=3, seed=3, learning_rate=0.001)
        a, b = classify.mlp_train(X, y, cfg)[0], classify.mlp_train(X, y, explicit)[0]
        assert np.array_equal(a.flat, b.flat)
        a, b = classify.logistic_train(X, y)[0], classify.logistic_train(X, y, lr=0.01)[0]
        assert np.array_equal(a.flat, b.flat)

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
        splits = classify.kfold(n, k, seed)
        assert len(splits) == k
        all_test = np.concatenate([test for _, test in splits])
        assert sorted(all_test) == list(range(n))  # disjoint and exhaustive
        for train, test in splits:
            assert np.intersect1d(train, test).size == 0
            assert len(train) + len(test) == n

    def test_too_few_cases(self):
        with pytest.raises(ValueError, match="at least"):
            classify.kfold(3, 5)

    @pytest.mark.parametrize("k", [1, 0, -2])
    def test_fewer_than_two_folds(self, k):
        with pytest.raises(ValueError, match=f"need at least 2 folds, got k={k}"):
            classify.kfold(10, k)

    @staticmethod
    def _reference_kfold(n, k, seed):
        """Reference: fold f holds every k-th case of one seeded permutation."""
        if n < k:
            raise ValueError(f"need at least {k} cases, got {n}")
        order = np.random.default_rng(seed).permutation(n)
        folds = [order[f::k] for f in range(k)]
        return [
            (
                np.sort(np.concatenate([folds[g] for g in range(k) if g != f])),
                np.sort(folds[f]),
            )
            for f in range(k)
        ]

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 40),
        k=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference_builders(self, n, k, seed):
        try:
            expected = self._reference_kfold(n, k, seed)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                classify.kfold(n, k, seed)
            assert str(got.value) == str(exc)
            return
        splits = classify.kfold(n, k, seed)
        assert len(splits) == len(expected)
        for (train, test), (ref_train, ref_test) in zip(splits, expected):
            assert np.array_equal(train, ref_train)
            assert np.array_equal(test, ref_test)


class TestHoldout:
    def test_test_set_is_pure_and_untouched(self):
        institutions, stages = _toy_labels(40)
        train, test = classify.holdout(institutions, stages, "inst-2")
        assert all(institutions[i] == "inst-2" for i in test)
        assert all(institutions[i] != "inst-2" for i in train)
        assert len(test) == 10

    def test_train_set_rebalanced(self):
        institutions, stages = _toy_labels(41)  # stage counts now unequal
        train, _ = classify.holdout(institutions, stages, "inst-0")
        counts = np.bincount(stages[train], minlength=5)
        assert counts.min() == counts.max()

    def test_no_training_cases_left(self):
        institutions, stages = _toy_labels(10, n_institutions=1)
        with pytest.raises(ValueError, match="'inst-0' leaves no training cases"):
            classify.holdout(institutions, stages, "inst-0")

    def test_unknown_institution_lists_available(self):
        with pytest.raises(ValueError, match="inst-0"):
            classify.holdout(*_toy_labels(10), "nope")

    @staticmethod
    def _reference_holdout(cases, institution, seed):
        """Reference: the case-list builder, on (index, institution, stage) cases."""
        tags = sorted({c[1] for c in cases})
        if institution not in tags:
            raise ValueError(f"institution {institution!r} not present; available: {tags}")
        test = [c for c in cases if c[1] == institution]
        train = [c for c in cases if c[1] != institution]
        if not train:
            raise ValueError(f"holding out institution {institution!r} leaves no training cases")
        rng = np.random.default_rng(seed)
        by_stage = {}
        for c in train:
            by_stage.setdefault(c[2], []).append(c)
        target = max(len(v) for v in by_stage.values())
        balanced = list(train)
        for stage in sorted(by_stage):
            pool = by_stage[stage]
            deficit = target - len(pool)
            if deficit > 0:
                picks = rng.integers(0, len(pool), size=deficit)
                balanced.extend(pool[i] for i in picks)
        return [c[0] for c in balanced], [c[0] for c in test]

    @settings(max_examples=300, deadline=None)
    @given(
        labels=st.lists(
            st.tuples(st.sampled_from(["VB", "MD1", "MD2", "CP"]),
                      st.integers(0, classify.N_STAGES - 1)),
            min_size=1, max_size=40,
        ),
        institution=st.sampled_from(["VB", "MD1", "MD2", "CP"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference_builder(self, labels, institution, seed):
        cases = [(i, site, stage) for i, (site, stage) in enumerate(labels)]
        institutions = [site for site, _ in labels]
        stages = np.array([stage for _, stage in labels])
        try:
            ref_train, ref_test = self._reference_holdout(cases, institution, seed)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                classify.holdout(institutions, stages, institution, seed)
            assert str(got.value) == str(exc)
            return
        train, test = classify.holdout(institutions, stages, institution, seed)
        assert train.tolist() == ref_train  # repeats included, in order
        assert test.tolist() == ref_test


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
