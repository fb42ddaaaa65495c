"""Reference computations the tests check the package against."""

from fracsig import classify


def numerical_gradients(params, X, y, eps=1e-5):
    """Central finite differences of the mean cross-entropy loss of ``params``.

    The gradient-check oracle of :func:`fracsig.classify.mlp_gradients`:
    returns a :class:`fracsig.classify.MLPParams` of the same sizes.
    """
    onehot = classify._one_hot(y, params.sizes[-1])

    def loss_at(flat):
        probs = classify.mlp_predict(classify.MLPParams(params.sizes, flat), X)
        return classify._loss(probs, onehot)

    grad = classify.MLPParams(params.sizes)
    for i in range(params.flat.size):
        plus, minus = params.flat.copy(), params.flat.copy()
        plus[i] += eps
        minus[i] -= eps
        grad.flat[i] = (loss_at(plus) - loss_at(minus)) / (2 * eps)
    return grad
