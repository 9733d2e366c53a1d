"""One-hidden-layer tanh network with exact hand-derived gradients.

Supports three head configurations: a single sigmoid head, k routed heads
(each sample's loss flows only through its group's head), and an optional
per-class adversary bank predicting group from the hidden representation.
Logits are [B, k] for every model, k = 1 included.
Everything is plain numpy; gradients are validated against central finite
differences in the test suite.

Parameters live in one contiguous float64 vector, ``ModelParams.flat``, in
the block order w1, b1, w_heads, b_heads[, w_adv, b_adv]; the named blocks
are reshaped views into it. Gradients share the layout: each loss function
writes its blocks into a zeroed ``params.like(...)`` buffer through those
views. Both loss functions share one backward through heads and encoder,
and Adam updates the vector and its two moments in place, with one
expression each.

Batch loss convention: loss = (1/B) * sum_i weight_i * bce_i. The batch
size, not the weight total, normalizes, so scaling all weights scales the
loss and every gradient by the same factor.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "ModelParams",
    "init_params",
    "forward",
    "row_blocks",
    "expit",
    "bce_loss_and_grad",
    "cfair_loss_and_grad",
    "sgd_adam_step",
]

_FIELDS = ("w1", "b1", "w_heads", "b_heads", "w_adv", "b_adv")

# Adam's moment decay rates and denominator guard, the published defaults.
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


class ModelParams:
    """Named blocks stored back to back in one contiguous float64 vector.

    ``flat`` holds every parameter; w1, b1, w_heads, b_heads and, when the
    model has an adversary, w_adv and b_adv are reshaped views into it, so
    writing into a block writes into ``flat``. The adversary blocks are None
    otherwise.
    """

    __slots__ = ("flat", "_layout") + _FIELDS

    def __init__(self, w1, b1, w_heads, b_heads, w_adv=None, b_adv=None):
        given = (w1, b1, w_heads, b_heads, w_adv, b_adv)
        blocks = [(f, a) for f, a in zip(_FIELDS, given) if a is not None]
        self._bind(
            np.concatenate([np.asarray(a, dtype=float).ravel() for _, a in blocks]),
            tuple((f, np.shape(a)) for f, a in blocks),
        )

    def _bind(self, flat: np.ndarray, layout: tuple) -> None:
        self.flat, self._layout = flat, layout
        self.w_adv = self.b_adv = None
        start = 0
        for f, shape in layout:
            size = math.prod(shape)
            setattr(self, f, flat[start : start + size].reshape(shape))
            start += size

    def like(self, flat: np.ndarray) -> "ModelParams":
        """The same block layout over another vector of equal length, not copied."""
        out = ModelParams.__new__(ModelParams)
        out._bind(flat, self._layout)
        return out


def init_params(
    dim: int,
    hidden: int = 16,
    n_heads: int = 1,
    adv_groups: int = 0,
    seed: int = 0,
) -> ModelParams:
    rng = np.random.default_rng(seed)
    w1 = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(dim, hidden))
    w_heads = rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(n_heads, hidden))
    w_adv = b_adv = None
    if adv_groups > 0:  # one adversary per class of the binary label
        w_adv = rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(2, adv_groups, hidden))
        b_adv = np.zeros((2, adv_groups))
    return ModelParams(
        w1=w1,
        b1=np.zeros(hidden),
        w_heads=w_heads,
        b_heads=np.zeros(n_heads),
        w_adv=w_adv,
        b_adv=b_adv,
    )


def forward(params: ModelParams, x: np.ndarray):
    """Return (logits, hidden): logits are [B, k] for k heads, k = 1 included."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != params.w1.shape[0]:
        raise DimensionMismatch(f"{x.shape[1]} features vs {params.w1.shape[0]} input weights")
    hidden = x @ params.w1
    hidden += params.b1
    np.tanh(hidden, out=hidden)
    return hidden @ params.w_heads.T + params.b_heads, hidden


def row_blocks(n: int, size: int):
    """Yield (start, stop) row ranges of size rows that cover range(n).

    Each product over the blocks rounds as one product over all n rows
    would: every block starts at a multiple of size, where BLAS's row
    unrolling lines up as it does over the whole range, and a lone last row,
    which numpy would multiply as a matrix-vector product, joins the block
    before it, which then has size + 1 rows.
    """
    for start in range(0, n, size):
        stop = start + size
        if stop >= n - 1:
            yield start, n
            return
        yield start, stop


@np.errstate(over="ignore")  # cheaper per call as a decorator than as a with block
def expit(z):
    """Logistic sigmoid 1 / (1 + exp(-z)).

    Saturates to exactly 0.0 for z below about -709.8, where exp(-z)
    overflows to inf, and to exactly 1.0 for large z, without a warning.
    """
    return 1.0 / (1.0 + np.exp(-z))


def _bce(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z) - y * z


def _head_encoder_backward(params: ModelParams, grads: ModelParams, x, hidden, dlogits, d_hidden_off=None):
    """Write grads' head and encoder blocks; d_hidden_off is subtracted at the hidden layer."""
    grads.w_heads[...] = dlogits.T @ hidden
    grads.b_heads[...] = dlogits.sum(axis=0)
    d_hidden = dlogits @ params.w_heads
    if d_hidden_off is not None:
        d_hidden -= d_hidden_off
    dz1 = d_hidden * (1.0 - hidden**2)
    grads.w1[...] = x.T @ dz1
    grads.b1[...] = dz1.sum(axis=0)


def bce_loss_and_grad(params: ModelParams, x, y, sample_weights=None, head_ids=None):
    """Weighted batch BCE and exact gradients for encoder plus heads.

    sample_weights is an array of per-sample weights, or a function that
    maps the batch's per-sample BCE, taken from this call's forward pass, to
    that array. head_ids routes each sample through one head; required when
    the model has several. Adversary parameters, if present, receive zero
    gradient.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    b = len(y)
    logits, hidden = forward(params, x)
    if head_ids is None and logits.shape[1] > 1:
        raise DimensionMismatch("multi-head model needs head_ids")
    rows = (slice(None), 0) if head_ids is None else (np.arange(b), np.asarray(head_ids))
    z = logits[rows]

    bce = _bce(z, y)
    if callable(sample_weights):
        sample_weights = sample_weights(bce)
    w = np.ones(b) if sample_weights is None else np.asarray(sample_weights, dtype=float)
    loss = float(np.sum(w * bce) / b)
    dz = w * (expit(z) - y) / b

    if head_ids is None:
        dlogits = dz[:, None]
    else:
        dlogits = np.zeros_like(logits)
        dlogits[rows] = dz

    g = params.like(np.zeros_like(params.flat))
    _head_encoder_backward(params, g, x, hidden, dlogits)
    return loss, g


def cfair_loss_and_grad(params: ModelParams, x, y, g_ids, mu: float):
    """Joint step for the adversarial configuration.

    The main head minimizes BCE. Each class's adversary minimizes softmax
    cross-entropy predicting the group among that class's samples (batch-mean
    normalized). The encoder receives the BCE gradient minus mu times the
    adversary gradient (reversal); adversaries receive their own gradient.
    Returns (bce_loss, adversary_loss, grads).
    """
    if params.w_adv is None:
        raise DimensionMismatch("model has no adversary parameters")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=int)
    g_ids = np.asarray(g_ids, dtype=int)
    b = len(y)

    logits, hidden = forward(params, x)
    z = logits[:, 0]
    yf = y.astype(float)
    bce = float(np.sum(_bce(z, yf)) / b)
    dz = (expit(z) - yf) / b

    grads = params.like(np.zeros_like(params.flat))
    adv_loss = 0.0
    d_hidden_adv = np.zeros_like(hidden)
    for c in range(params.w_adv.shape[0]):
        idx = np.nonzero(y == c)[0]
        h_c = hidden[idx]
        za = h_c @ params.w_adv[c].T + params.b_adv[c]
        za = za - za.max(axis=1, keepdims=True)
        p = np.exp(za)
        p /= p.sum(axis=1, keepdims=True)
        targets = g_ids[idx]
        adv_loss += float(-np.sum(np.log(p[np.arange(len(idx)), targets])) / b)
        dza = p.copy()
        dza[np.arange(len(idx)), targets] -= 1.0
        dza /= b
        grads.w_adv[c] = dza.T @ h_c
        grads.b_adv[c] = dza.sum(axis=0)
        d_hidden_adv[idx] += dza @ params.w_adv[c]

    _head_encoder_backward(params, grads, x, hidden, dz[:, None], mu * d_hidden_adv)
    return bce, adv_loss, grads


def sgd_adam_step(
    params: ModelParams, grads: ModelParams, moments: tuple, t: int, lr: float, weight_decay: float = 0.0
) -> None:
    """Adam step number t (counting from 1) with decoupled weight decay.

    Updates ``params.flat`` and the moment vectors ``moments = (m, v)``,
    laid out like it, in place. Every expression acts on the whole flat
    vector; the arithmetic per element is that of a block-by-block update.
    """
    m, v = moments
    g = grads.flat
    m[:] = _ADAM_BETA1 * m + (1.0 - _ADAM_BETA1) * g
    v[:] = _ADAM_BETA2 * v + (1.0 - _ADAM_BETA2) * g**2
    bc1 = 1.0 - _ADAM_BETA1**t
    bc2 = 1.0 - _ADAM_BETA2**t
    step = lr * (m / bc1) / (np.sqrt(v / bc2) + _ADAM_EPS)
    p = params.flat
    p[:] = p - step - lr * weight_decay * p
