"""Toy differentiable detectors and the selector's LSTM gate.

All networks here are deliberately small: a frozen per-cell backbone, a
two-layer per-cell decoder head (the only trainable detection component),
and a single-cell LSTM gate with a scalar readout.  Gradients are written out
analytically.  The finite-difference tests check the decoder's training step
itself (train_decoder, as distill_step runs it), reading the gradient off one
step at a tiny learning rate.  A trained decoder's four arrays are views into
one flat buffer, updated and checked for finiteness as a whole.  The gate's
state advances and its weights train in place; its score is read on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection import GridShape, sigmoid


class Backbone:
    """Frozen per-cell affine + tanh transform, fixed at construction.

    Stands in for a pretrained feature extractor: deterministic given the
    seed, never updated.  Also produces the pooled feature summary consumed
    by the key-frame selector (per-channel mean and max over the grid).
    """

    def __init__(self, feature_dim: int, seed: int):
        rng = np.random.default_rng(seed)
        self.w = rng.normal(0.0, 1.0 / np.sqrt(feature_dim), size=(feature_dim, feature_dim))
        self.b = rng.normal(0.0, 0.1, size=feature_dim)

    def forward(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        out = np.tanh(features @ self.w + self.b)
        summary = np.concatenate([out.mean(axis=(0, 1)), out.max(axis=(0, 1))])
        return out, summary


@dataclass(frozen=True)
class DecoderParams:
    """Two-layer per-cell head: d -> hidden (tanh) -> 5 + c logits.

    version counts the SGD steps behind these weights: each committed
    distillation event adds steps_per_event; a frozen copy keeps version 0.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    version: int = 0


def init_decoder(feature_dim: int, hidden: int, shape: GridShape, seed: int,
                 scale: float = 0.1) -> DecoderParams:
    rng = np.random.default_rng(seed)
    return DecoderParams(
        w1=rng.normal(0.0, scale, size=(feature_dim, hidden)),
        b1=np.zeros(hidden),
        w2=rng.normal(0.0, scale, size=(hidden, shape.channels)),
        b2=np.zeros(shape.channels),
        version=0,
    )


def decoder_forward(params: DecoderParams, features: np.ndarray) -> np.ndarray:
    """Apply the head to every cell of (s, s, d) features; returns an (s, s, 5 + c) logit tensor."""
    if features.shape[-1] != params.w1.shape[0]:
        raise ValueError(
            f"feature dim {features.shape[-1]} does not match decoder input {params.w1.shape[0]}"
        )
    hidden = np.tanh(features @ params.w1 + params.b1)
    return hidden @ params.w2 + params.b2


def train_decoder(params: DecoderParams, features: np.ndarray, target: np.ndarray,
                  weights: np.ndarray, lr: float,
                  steps: int) -> tuple[float, float, tuple[np.ndarray, ...]]:
    """`steps` plain SGD steps on sum(weights * (head(features) - target)^2).

    weights is an (s, s, 1) per-cell map.  Returns (loss_before, loss_after,
    (w1, b1, w2, b2)); params is left untouched and no step is taken from a
    non-finite loss.  The four arrays are views into one fresh flat buffer,
    w1.base, so a caller can check all of them with one call.  This is the
    training step distill_step runs, so its gradient is the one the
    finite-difference tests check.

    Every key frame runs it on the inference thread, between two frames,
    so it counts numpy calls: gradients go into views of a
    second flat buffer, the update is two calls over all of it, and each
    step's forward pass also serves the next step or the final loss.  At
    these shapes np.dot with out= costs less than np.matmul for the same
    bits, and scalars enter the step loop as 0-d arrays, which the ufuncs
    take without converting them again on every call.
    """
    x = features.reshape(-1, params.w1.shape[0])
    n = x.shape[0]
    d, hidden_dim = params.w1.shape
    channels = params.w2.shape[1]
    k1, k2 = d * hidden_dim, (d + 1) * hidden_dim
    k3 = k2 + hidden_dim * channels

    def views(buf):
        return (buf[:k1].reshape(d, hidden_dim), buf[k1:k2],
                buf[k2:k3].reshape(hidden_dim, channels), buf[k3:])

    flat = np.concatenate([params.w1.ravel(), params.b1, params.w2.ravel(), params.b2])
    grad = np.empty_like(flat)
    w1, b1, w2, b2 = views(flat)
    gw1, gb1, gw2, gb2 = views(grad)
    # the weight map spelled out per channel: same-shape products skip broadcasting
    w_flat = np.empty((n, channels))
    w_flat[...] = weights.reshape(n, 1)
    w_twice = w_flat * 2.0  # d(diff^2)/d(diff) = 2 * diff; doubling is exact
    target_flat = target.reshape(-1, channels)
    one, step = np.array(1.0), np.array(lr)

    a = np.empty((n, hidden_dim))
    out = np.empty((n, channels))
    g = np.empty((n, channels))
    dz = np.empty((n, hidden_dim))
    ones = np.empty((n, hidden_dim))
    a_t, x_t, w2_t = a.T, x.T, w2.T  # views: they follow every in-place update

    def forward():
        np.dot(x, w1, out=a)
        np.add(a, b1, out=a)
        np.tanh(a, out=a)
        np.dot(a, w2, out=out)
        np.add(out, b2, out=out)

    def loss():
        np.subtract(out, target_flat, out=g)
        np.multiply(g, g, out=g)
        np.multiply(g, w_flat, out=g)
        return float(np.add.reduce(g, axis=None))  # g.sum() without its Python wrapper

    forward()
    loss_before = loss()
    for _ in range(steps if math.isfinite(loss_before) else 0):
        np.subtract(out, target_flat, out=g)
        np.multiply(g, w_twice, out=g)
        # backprop through the two-layer head, then the SGD update in place
        np.dot(a_t, g, out=gw2)
        np.add.reduce(g, axis=0, out=gb2)  # np.sum without its Python wrapper
        np.dot(g, w2_t, out=dz)
        np.multiply(a, a, out=ones)
        np.subtract(one, ones, out=ones)
        np.multiply(dz, ones, out=dz)
        np.dot(x_t, dz, out=gw1)
        np.add.reduce(dz, axis=0, out=gb1)
        np.multiply(grad, step, out=grad)
        np.subtract(flat, grad, out=flat)
        forward()
    return loss_before, loss(), (w1, b1, w2, b2)


class LstmGate:
    """Single LSTM cell plus scalar sigmoid readout, built and owned by one
    AdaptiveSelector.

    w_gates stacks the input, forget, output and candidate gates, each of
    size hidden, applied to [x, h_prev].  h and c are the recurrent state,
    reset only at stream start.  The readout starts at zero: score 0.5.
    """

    def __init__(self, input_dim: int, hidden: int, seed: int):
        rng = np.random.default_rng(seed)
        self.w_gates = rng.normal(0.0, 0.1, size=(4 * hidden, input_dim + hidden))
        self.b_gates = np.zeros(4 * hidden)
        self.w_out = np.zeros(hidden)
        self.b_out = 0.0
        self.h = np.zeros(hidden)
        self.c = np.zeros(hidden)

    def _cell(self, x: np.ndarray):
        """(z, ifo, g, c_new, tanh(c_new), h_new) of the cell on [x, h], changing
        nothing; ifo stacks the input, forget and output gate activations.

        Runs on every frame, so the activations are computed in place: ifo
        and g are the two ends of one pre-activation buffer, and each array
        is the same product, sum or activation the textbook cell computes.
        """
        n = self.h.shape[0]
        z = np.concatenate([x, self.h])
        pre = np.dot(self.w_gates, z)
        pre += self.b_gates
        ifo, g = pre[:3 * n], pre[3 * n:]
        np.negative(ifo, out=ifo)  # sigmoid(v) = 1 / (1 + exp(-v)), in place
        np.exp(ifo, out=ifo)
        ifo += 1.0
        np.divide(1.0, ifo, out=ifo)
        np.tanh(g, out=g)
        c_new = ifo[n:2 * n] * self.c
        c_new += ifo[:n] * g
        th = np.tanh(c_new)
        return z, ifo, g, c_new, th, ifo[2 * n:] * th

    def step(self, summary: np.ndarray) -> None:
        """Advance h and c by one cell update; the arrays they held are not written."""
        if summary.shape[0] + self.h.shape[0] != self.w_gates.shape[1]:
            raise ValueError(
                f"summary dim {summary.shape[0]} does not match LSTM input "
                f"{self.w_gates.shape[1] - self.h.shape[0]}"
            )
        *_, self.c, _, self.h = self._cell(summary)

    def score(self) -> float:
        """The sigmoid readout of the current hidden state."""
        return float(sigmoid(self.w_out @ self.h + self.b_out))

    def train(self, summary: np.ndarray, label: int, lr: float) -> None:
        """One SGD step on binary cross-entropy between label and the score
        of the cell applied to [summary, h]; h and c stay constant.

        The selector trains after step() ran on the key frame, so on
        [summary_f, h_f], not the [summary_f, h_{f-1}] that voted; in
        parallel mode h is later still.  ROADMAP item 8, step 2 mends this.
        """
        if label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {label}")
        n = self.h.shape[0]
        z, ifo, g, c_new, th, h_new = self._cell(summary)
        score = sigmoid(self.w_out @ h_new + self.b_out)

        d_u = score - label  # d BCE / d readout-logit
        dh = d_u * self.w_out
        dc = dh * ifo[2 * n:] * (1.0 - th * th)
        # d loss / d activation of the input, forget, output and candidate gates,
        # then through each activation: sigmoid' = a * (1 - a), tanh' = 1 - a^2
        d_pre = np.concatenate([dc * g, dc * self.c, dh * th, dc * ifo[:n] * (1.0 - g * g)])
        d_sigmoid = d_pre[:3 * n]
        d_sigmoid *= ifo
        d_sigmoid *= 1.0 - ifo

        self.w_gates -= lr * (d_pre[:, None] * z)
        self.b_gates -= lr * d_pre
        self.w_out -= lr * (d_u * h_new)
        self.b_out -= lr * d_u
