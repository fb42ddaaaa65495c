"""Stage classification on coupling-matrix features.

Features are flattened coupling matrices (n^2 per record).  The main
classifier is a from-scratch feedforward network (two ReLU hidden
layers of 300 and 100 units, softmax output, inverted dropout, rmsprop)
with a multinomial logistic-regression baseline, k-fold and
institution hold-out harnesses, and a confusion-matrix metrics suite.
A training step adds biases, applies ReLU and dropout and writes its
gradients in place, in the same operations and order as allocating
code, so trained parameters do not depend on the buffering.

A cohort is one (m, d) feature matrix, one stage vector and one list
of institution names.  Both split builders return (train, test) index
arrays, so a caller stacks the features once and takes ``X[train]``,
``y[train]``, ``X[test]`` and ``y[test]`` for every split;
:func:`fit_split` scales, trains and evaluates one such split.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fracdyn, mfdfa
from .records import N_STAGES

__all__ = [
    "TrainConfig",
    "MLPParams",
    "Metrics",
    "N_STAGES",
    "extract_features",
    "init_mlp",
    "mlp_train",
    "mlp_predict",
    "mlp_gradients",
    "logistic_train",
    "fit_split",
    "kfold",
    "holdout",
    "evaluate",
]

# rmsprop running-average decay and denominator guard
RMSPROP_DECAY = 0.9
RMSPROP_EPSILON = 1e-7


def extract_features(
    record,
    *,
    horizon: int = fracdyn.DEFAULT_HORIZON,
    ridge: float = fracdyn.DEFAULT_RIDGE,
) -> np.ndarray:
    """Estimate per-channel orders, fit the coupling matrix, flatten it.

    Reads the record's channels and labels and returns the n^2 float64
    features.  Channels are z-scored before the coupling fit so feature
    magnitudes are comparable across subjects.  The per-channel orders
    come from one :func:`fracsig.fracdyn.estimate_alphas` call over every
    channel.  A channel that is constant, that float64 cannot square (see
    ``mfdfa._centred``) or that cannot be fitted is named by its label.
    """
    X = record.channels
    constant = np.flatnonzero(np.ptp(X, axis=1) == 0)
    if constant.size:
        raise ValueError(
            f"channel {record.labels[constant[0]]!r} is constant; cannot z-score it"
        )
    try:
        X = mfdfa._centred(X) / X.std(axis=1, keepdims=True)
        alpha = fracdyn.estimate_alphas(X)
    except mfdfa._RowError as exc:
        raise exc.naming(record.labels) from None
    return fracdyn.estimate_coupling(X, alpha, horizon=horizon, ridge=ridge).ravel()


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 500
    batch_size: int = 64
    learning_rate: float | None = None  # None: each trainer's default, mlp 0.001, logistic 0.01
    dropout_rate: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate is not None and not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError("dropout_rate must lie in [0, 1)")


@dataclass(frozen=True)
class MLPParams:
    """All weights and biases of a network in one flat float64 buffer.

    For each layer transition the buffer holds the row-major
    (fan_in, fan_out) weight matrix followed by its bias vector;
    ``weights`` and ``biases`` are views into it, so an in-place update
    of ``flat`` updates every layer.  A float64 ``flat`` is used as
    given, not copied; ``flat=None`` gives an all-zero network.
    """

    sizes: tuple[int, ...]
    flat: np.ndarray | None = None
    weights: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    biases: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        layers = list(zip(sizes[:-1], sizes[1:]))
        count = sum((fan_in + 1) * fan_out for fan_in, fan_out in layers)
        flat = np.zeros(count) if self.flat is None else np.asarray(self.flat, dtype=float)
        if flat.shape != (count,):
            raise ValueError(
                f"weight count {flat.size} does not match sizes {list(sizes)} "
                f"({count} expected)"
            )
        weights, biases, pos = [], [], 0
        for fan_in, fan_out in layers:
            weights.append(flat[pos : pos + fan_in * fan_out].reshape(fan_in, fan_out))
            pos += fan_in * fan_out
            biases.append(flat[pos : pos + fan_out])
            pos += fan_out
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "weights", tuple(weights))
        object.__setattr__(self, "biases", tuple(biases))

    def parameter_count(self) -> int:
        return self.flat.size


def init_mlp(
    d_in: int, hidden: tuple[int, ...] = (300, 100), n_classes: int = N_STAGES, seed: int = 0
) -> MLPParams:
    """Fan-scaled uniform (Glorot) weights and zero biases, seeded."""
    params = MLPParams((d_in, *hidden, n_classes))
    rng = np.random.default_rng(seed)
    for w in params.weights:
        limit = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return params


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _forward(params, X, dropout_rate=0.0, rng=None):
    """Forward pass; returns (activations per layer, dropout masks)."""
    acts = [X]
    masks = []
    h = X
    n_layers = len(params.weights)
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w
        z += b
        if i < n_layers - 1:
            h = np.maximum(z, 0.0, out=z)
            if dropout_rate > 0.0 and rng is not None:
                mask = (rng.random(h.shape) >= dropout_rate) / (1.0 - dropout_rate)
                h *= mask
                masks.append(mask)
            else:
                masks.append(None)
        else:
            h = _softmax(z)
        acts.append(h)
    return acts, masks


def mlp_predict(params: MLPParams, X: np.ndarray) -> np.ndarray:
    """Class probabilities with dropout disabled."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != params.sizes[0]:
        raise ValueError(
            f"expected {params.sizes[0]} features, got {X.shape[1]}"
        )
    acts, _ = _forward(params, X)
    return acts[-1]


def _one_hot(y: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((y.size, n_classes))
    out[np.arange(y.size), y] = 1.0
    return out


def _loss(probs: np.ndarray, onehot: np.ndarray) -> float:
    """Mean cross-entropy of predicted probabilities against one-hot labels."""
    return -np.mean(np.sum(onehot * np.log(probs + 1e-30), axis=1))


def mlp_gradients(params, X, y, dropout_rate=0.0, rng=None):
    """Mean cross-entropy loss and its gradient for one batch.

    Returns ``(loss, grad)``; ``grad`` is an :class:`MLPParams` of the
    same sizes holding d(loss)/d(parameter).
    """
    n = X.shape[0]
    onehot = _one_hot(y, params.sizes[-1])
    acts, masks = _forward(params, X, dropout_rate, rng)
    probs = acts[-1]
    grad = MLPParams(params.sizes, np.empty(params.flat.size))  # every entry written below
    delta = (probs - onehot) / n  # softmax + cross-entropy shortcut
    for i in reversed(range(len(params.weights))):
        np.matmul(acts[i].T, delta, out=grad.weights[i])
        np.sum(delta, axis=0, out=grad.biases[i])
        if i > 0:
            delta = delta @ params.weights[i].T
            if masks[i - 1] is not None:
                delta *= masks[i - 1]
            delta *= acts[i] > 0
    return _loss(probs, onehot), grad


def _check_classes(y) -> None:
    """Reject training labels ``y`` that hold fewer than 2 distinct classes."""
    y = np.asarray(y)
    # not np.unique, which imports numpy.ma (15-19 ms) on first use
    if y.size == 0 or np.all(y == y[0]):
        raise ValueError("training set must contain at least 2 classes")


@np.errstate(over="ignore", invalid="ignore")  # a blow-up raises below, not a warning
def mlp_train(X, y, cfg: TrainConfig | None = None, *, hidden=(300, 100), n_classes=N_STAGES):
    """Mini-batch rmsprop training; returns (params, history).

    ``history`` holds per-epoch mean training loss and accuracy.
    Deterministic under a fixed config seed.  A NaN loss, or an epoch
    that ends with a non-finite parameter or training output, raises
    ``fracdyn.NumericalError`` with the epoch index.
    """
    cfg = cfg or TrainConfig()
    lr = 1e-3 if cfg.learning_rate is None else cfg.learning_rate
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    _check_classes(y)
    params = init_mlp(X.shape[1], hidden, n_classes, cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    flat = params.flat
    cache = np.zeros_like(flat)
    work = np.empty_like(flat)  # the update's only temporary, reused every step
    history = {"loss": [], "accuracy": []}
    n = X.shape[0]
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grad = mlp_gradients(params, X[idx], y[idx], cfg.dropout_rate, rng)
            if not np.isfinite(loss):
                raise fracdyn.NumericalError(f"NaN loss at epoch {epoch}")
            losses.append(loss)
            g = grad.flat
            cache *= RMSPROP_DECAY
            np.multiply(g, g, out=work)
            work *= 1 - RMSPROP_DECAY
            cache += work
            np.sqrt(cache, out=work)
            work += RMSPROP_EPSILON
            g *= lr
            g /= work
            flat -= g
        probs = mlp_predict(params, X)
        if not (np.isfinite(flat).all() and np.isfinite(probs).all()):
            raise fracdyn.NumericalError(
                f"training diverged at epoch {epoch}; lower the learning rate"
            )
        history["loss"].append(float(np.mean(losses)))
        history["accuracy"].append(float(np.mean(probs.argmax(axis=1) == y)))
    return params, history


@np.errstate(over="ignore", invalid="ignore")  # a blow-up raises below, not a warning
def logistic_train(X, y, *, epochs=500, lr=None, n_classes=N_STAGES):
    """Multinomial softmax regression by full-batch gradient descent.

    The model is a network with no hidden layer, started at zero, so
    :func:`mlp_predict` applies it.  ``lr`` is the step size, 0.01 if
    None.  Returns (params, loss_history).  The loss is convex; a loss
    that is not finite or grows tenfold, after any update the last
    included, raises with advice to lower the learning rate.
    """
    lr = 1e-2 if lr is None else lr
    if not 0 < lr < np.inf:
        raise ValueError("lr must be positive and finite")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    _check_classes(y)
    params = MLPParams((X.shape[1], n_classes))
    flat = params.flat
    history = []
    for epoch in range(epochs + 1):  # the extra pass checks the last update
        loss, grad = mlp_gradients(params, X, y)
        if not np.isfinite(loss) or (history and loss > history[0] * 10):
            raise fracdyn.NumericalError(
                f"logistic training diverged at epoch {epoch}; lower lr"
            )
        if epoch == epochs:
            return params, history
        history.append(float(loss))
        flat -= lr * grad.flat


def _minmax(X_train, X_test):
    """Both row sets mapped to [0, 1] by the per-feature range of the training rows.

    A constant feature maps to 0.5.  Values are clamped, so test rows
    outside the training range stay inside [0, 1].
    """
    X_train, X_test = np.asarray(X_train, dtype=float), np.asarray(X_test, dtype=float)
    lo = X_train.min(axis=0)
    with np.errstate(over="ignore"):  # a range past float64's is refused below
        span = X_train.max(axis=0) - lo
    wide = np.flatnonzero(~np.isfinite(span))
    if wide.size:
        raise ValueError(f"feature column {wide[0]}: range is wider than float64 holds")
    good = span != 0

    def scale(X):
        out = np.full_like(X, 0.5)
        with np.errstate(over="ignore"):  # far outside a tiny span: +-inf, clamped below
            out[:, good] = (X[:, good] - lo[good]) / span[good]
        return np.clip(out, 0.0, 1.0)

    return scale(X_train), scale(X_test)


def fit_split(X, y, train, test, cfg: TrainConfig | None = None, *, model="mlp"):
    """Scale, train and evaluate one split; returns (metrics, history).

    ``train`` and ``test`` index the rows of ``X`` and ``y``, as
    :func:`kfold` and :func:`holdout` give them.  Features are min-max
    scaled by the training rows only.  ``model="mlp"`` trains by
    :func:`mlp_train` under ``cfg``; ``model="logistic"`` trains by
    :func:`logistic_train` for ``cfg.epochs`` epochs at step size
    ``cfg.learning_rate``.  ``history`` holds per-epoch loss and accuracy;
    the logistic trainer tracks no accuracy, so its accuracies are NaN.
    """
    cfg = cfg or TrainConfig()
    X_train, X_test = _minmax(X[train], X[test])
    if model == "mlp":
        params, history = mlp_train(X_train, y[train], cfg)
    elif model == "logistic":
        params, losses = logistic_train(X_train, y[train], epochs=cfg.epochs, lr=cfg.learning_rate)
        history = {"loss": losses, "accuracy": [float("nan")] * len(losses)}
    else:
        raise ValueError(f"unknown model {model!r}; expected 'mlp' or 'logistic'")
    return evaluate(y[test], mlp_predict(params, X_test)), history


def kfold(n: int, k: int = 5, seed: int = 0):
    """Shuffled disjoint exhaustive k-fold splits of ``n`` cases.

    Returns one (train, test) pair of sorted index arrays per fold: the
    case at position i of a seeded permutation falls in fold i % k.
    """
    if k < 2:
        raise ValueError(f"need at least 2 folds, got k={k}")
    if n < k:
        raise ValueError(f"need at least {k} cases, got {n}")
    fold = np.empty(n, dtype=int)
    fold[np.random.default_rng(seed).permutation(n)] = np.arange(n) % k
    return [(np.flatnonzero(fold != f), np.flatnonzero(fold == f)) for f in range(k)]


def holdout(institutions, stages, institution: str, seed: int = 0):
    """Hold one institution out as the test set; rebalance the train set.

    ``institutions`` and ``stages`` label each case.  Returns (train,
    test) index arrays: ``train`` holds the other institutions' cases
    in order, then seeded random repeats that bring each minority stage
    up to the majority count, one stage after another in sorted order.
    The test set is left untouched.
    """
    institutions = np.asarray(institutions, dtype=str)
    stages = np.asarray(stages, dtype=int)
    tags = sorted(set(institutions.tolist()))
    if institution not in tags:
        raise ValueError(
            f"institution {institution!r} not present; available: {tags}"
        )
    held = institutions == institution
    train, test = np.flatnonzero(~held), np.flatnonzero(held)
    if not train.size:
        raise ValueError(f"holding out institution {institution!r} leaves no training cases")
    # sorted(set()), not np.unique, which imports numpy.ma on first use
    pools = [train[stages[train] == s] for s in sorted(set(stages[train].tolist()))]
    target = max(pool.size for pool in pools)
    rng = np.random.default_rng(seed)
    repeats = [
        pool[rng.integers(0, pool.size, size=target - pool.size)]
        for pool in pools
        if pool.size < target
    ]
    return np.concatenate([train, *repeats]), test


@dataclass(frozen=True)
class Metrics:
    """Confusion matrix and derived one-vs-rest rates.

    Rates for classes absent from the test set are NaN, not 0.
    """

    confusion: np.ndarray
    accuracy: float
    sensitivity: np.ndarray
    specificity: np.ndarray
    precision: np.ndarray
    macro_auroc: float
    loss: float

    def to_dict(self) -> dict:
        def clean(arr):
            return [None if not np.isfinite(v) else float(v) for v in arr]

        return {
            "confusion": [[int(v) for v in row] for row in self.confusion],
            "accuracy": float(self.accuracy),
            "sensitivity": clean(self.sensitivity),
            "specificity": clean(self.specificity),
            "precision": clean(self.precision),
            "macro_auroc": None if not np.isfinite(self.macro_auroc) else float(self.macro_auroc),
            "loss": float(self.loss),
        }


def _binary_auroc(scores: np.ndarray, positives: np.ndarray) -> float:
    """Trapezoid area under the ROC traced over score thresholds."""
    order = np.argsort(-scores, kind="stable")
    pos = positives[order]
    tp = np.cumsum(pos)
    fp = np.cumsum(~pos)
    n_pos = tp[-1]
    n_neg = fp[-1]
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    # merge ties: keep the last point of each distinct score
    distinct = np.flatnonzero(np.diff(scores[order]) != 0)
    idx = np.concatenate([distinct, [scores.size - 1]])
    tpr = np.concatenate([[0.0], tp[idx] / n_pos])
    fpr = np.concatenate([[0.0], fp[idx] / n_neg])
    return float(np.trapezoid(tpr, fpr))


def evaluate(y_true, probs) -> Metrics:
    """Confusion matrix, per-class rates, macro AUROC, cross-entropy loss.

    The classes are the columns of ``probs``; a label outside them raises.
    """
    y_true = np.asarray(y_true, dtype=int)
    probs = np.atleast_2d(np.asarray(probs, dtype=float))
    if y_true.size == 0:
        raise ValueError("empty test set")
    n_classes = probs.shape[1]
    outside = y_true[(y_true < 0) | (y_true >= n_classes)]
    if outside.size:
        raise ValueError(f"label {outside[0]} is not one of the {n_classes} classes of probs")
    preds = probs.argmax(axis=1)
    confusion = np.zeros((n_classes, n_classes), dtype=int)
    np.add.at(confusion, (y_true, preds), 1)
    total = confusion.sum()
    accuracy = float(np.trace(confusion)) / total
    sensitivity = np.full(n_classes, np.nan)
    specificity = np.full(n_classes, np.nan)
    precision = np.full(n_classes, np.nan)
    aurocs = []
    for c in range(n_classes):
        tp = confusion[c, c]
        fn = confusion[c].sum() - tp
        fp = confusion[:, c].sum() - tp
        tn = total - tp - fn - fp
        if tp + fn > 0:
            sensitivity[c] = tp / (tp + fn)
        if tn + fp > 0 and (tp + fn) > 0:
            specificity[c] = tn / (tn + fp)
        if tp + fp > 0 and (tp + fn) > 0:
            precision[c] = tp / (tp + fp)
        auc = _binary_auroc(probs[:, c], y_true == c)
        if np.isfinite(auc):
            aurocs.append(auc)
    loss = float(_loss(probs, _one_hot(y_true, n_classes)))
    macro = float(np.mean(aurocs)) if aurocs else float("nan")
    return Metrics(confusion, accuracy, sensitivity, specificity, precision, macro, loss)
