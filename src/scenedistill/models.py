"""Toy differentiable detectors and the selector's LSTM gate.

All networks here are deliberately small: a frozen per-cell backbone, a
two-layer per-cell decoder head (the only trainable detection component),
and a single-cell LSTM gate with a scalar readout.  Gradients are written out
analytically.  The frame and the training step (train_decoder, as
distill_step runs it) share one decoder forward, in a Workspace a session
sizes once, and the finite-difference tests check that step through that
forward.  A decoder's four arrays are views into one flat buffer, copied,
updated and checked as a whole; DecoderParams copies given arrays into a new
buffer or adopts the one a training step filled.  The gate's state advances
and its weights train in place; its score is read on demand.
"""

from __future__ import annotations

import math

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


class DecoderParams:
    """Two-layer per-cell head: d -> hidden (tanh) -> 5 + c logits.

    The weights are two blocks, [w1; b1] and [w2; b2], of one flat buffer;
    they multiply inputs that carry a ones row, and w1, b1, w2 and b2 are
    views of them.  The constructor copies its four arrays into a new buffer;
    of_blocks adopts blocks as train_decoder makes them.  version counts the
    SGD steps behind these weights: each committed distillation event adds
    steps_per_event; a frozen copy keeps version 0.  Instances are not
    frozen, but nothing writes to one: training returns new params.
    """

    def __init__(self, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray,
                 version: int = 0):
        if not (w1.ndim == w2.ndim == 2 and b1.shape == w1.shape[1:]
                and w2.shape[0] == w1.shape[1] and b2.shape == w2.shape[1:]):
            raise ValueError(f"w1 {w1.shape}, b1 {b1.shape}, w2 {w2.shape}, b2 {b2.shape}")
        flat = np.concatenate([w1.ravel(), b1, w2.ravel(), b2], dtype=float)
        k = b1.size * (w1.shape[0] + 1)
        self._adopt(flat, (flat[:k].reshape(-1, b1.size), flat[k:].reshape(-1, b2.size)), version)

    @classmethod
    def of_blocks(cls, flat: np.ndarray, blocks: tuple, version: int) -> DecoderParams:
        """Params over blocks [w1; b1] and [w2; b2] that are views of flat, in
        that order and filling it; nothing is copied or checked."""
        params = cls.__new__(cls)
        params._adopt(flat, blocks, version)
        return params

    def _adopt(self, flat: np.ndarray, blocks: tuple, version: int) -> None:
        w1b1, w2b2 = blocks
        self.w1, self.b1, self.w2, self.b2 = w1b1[:-1], w1b1[-1], w2b2[:-1], w2b2[-1]
        self.flat, self.blocks, self.version = flat, blocks, version


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


class Workspace:
    """The buffers of decoder_forward and train_decoder for cells and the
    params' (d, hidden, channels), reused by every frame and event: nothing
    read from them outlives the call that wrote it.  Cells run along the last
    axis, under a ones row in x1_t (features) and a1_t (activations), so one
    product with a block adds its bias and elementwise work runs on rows."""

    def __init__(self, params: DecoderParams, cells: int):
        (d, hidden), channels = params.w1.shape, params.b2.size
        self.x1_t, self.a1_t = np.ones((d + 1, cells)), np.ones((hidden + 1, cells))
        self.x_t, self.a_t, self.a1 = self.x1_t[:d], self.a1_t[:hidden], self.a1_t.T
        self.z_t, self.dz_t = np.empty((hidden, cells)), np.empty((hidden, cells))
        self.out, self.g, self.sq = (np.empty((cells, channels)) for _ in range(3))
        self.weights, self.step = np.empty((cells, channels)), np.empty((cells, channels))
        self.grad = np.empty((d + 1) * hidden + (hidden + 1) * channels)
        self.g1 = self.grad[:(d + 1) * hidden].reshape(d + 1, hidden)
        self.g2 = self.grad[(d + 1) * hidden:].reshape(hidden + 1, channels)
        self.one = np.array(1.0)  # a 0-d array, which a ufunc takes without converting it again


def _forward(ws: Workspace, blocks: tuple, out: np.ndarray | None = None) -> np.ndarray:
    """The logits of ws.x1_t's features, into out or a new array."""
    np.dot(blocks[0].T, ws.x1_t, out=ws.z_t)
    np.tanh(ws.z_t, out=ws.a_t)
    return np.dot(ws.a1, blocks[1], out=out)


def decoder_forward(params: DecoderParams, features: np.ndarray,
                    ws: Workspace | None = None) -> np.ndarray:
    """A new (s, s, 5 + c) logit tensor of (s, s, d) features, computed in ws
    (or a new Workspace): the bits of train_decoder's first forward."""
    d = params.w1.shape[0]
    if features.shape[-1] != d:
        raise ValueError(f"feature dim {features.shape[-1]} does not match decoder input {d}")
    ws = ws if ws is not None else Workspace(params, features.size // d)
    np.copyto(ws.x_t, features.reshape(-1, d).T)
    return _forward(ws, params.blocks).reshape(*features.shape[:-1], -1)


def train_decoder(params: DecoderParams, features: np.ndarray, target: np.ndarray,
                  weights: np.ndarray, lr: float, steps: int,
                  ws: Workspace | None = None) -> tuple[float, float, DecoderParams]:
    """`steps` plain SGD steps on sum(weights * (head(features) - target)^2).

    weights is an (s, s, 1) per-cell map, ws a Workspace or None.  Returns
    (loss_before, loss_after, trained): trained is new DecoderParams over a
    fresh buffer, its version params.version plus the steps taken; params is
    untouched and no step is taken from a non-finite loss.  distill_step runs
    this step, so the finite-difference tests check its gradient.

    It runs between two frames, so it counts numpy calls: 9 per step and 3
    per forward.  One product gives a block's weight and bias gradients into
    a buffer laid out as flat, so one subtraction updates all, and lr enters
    the weight map: g = (out - target) * (2 * lr * weights).
    """
    d = params.w1.shape[0]
    ws = ws if ws is not None else Workspace(params, features.size // d)
    n, channels = ws.out.shape
    np.copyto(ws.x_t, features.reshape(n, d).T)
    np.copyto(ws.weights, weights.reshape(n, -1))
    np.multiply(ws.weights, 2.0 * lr, out=ws.step)  # d(diff^2)/d(diff) = 2 * diff
    target_flat = target.reshape(n, channels)
    flat = params.flat.copy()
    blocks = flat[:ws.g1.size].reshape(ws.g1.shape), flat[ws.g1.size:].reshape(ws.g2.shape)
    a_t, z_t, dz_t, out, g, sq, w2 = ws.a_t, ws.z_t, ws.dz_t, ws.out, ws.g, ws.sq, blocks[1][:-1]

    def loss():  # of the difference in g, which the next step reads
        np.subtract(out, target_flat, out=g)
        np.multiply(g, g, out=sq)
        np.multiply(sq, ws.weights, out=sq)
        return float(np.add.reduce(sq, axis=None))  # sq.sum() without its Python wrapper

    _forward(ws, blocks, out)
    loss_before = loss()
    taken = steps if math.isfinite(loss_before) else 0
    for i in range(taken):
        if i:
            np.subtract(out, target_flat, out=g)
        np.multiply(g, ws.step, out=g)
        # backprop through the two-layer head, tanh' = 1 - a^2, then the
        # SGD update of every block in place
        np.dot(ws.a1_t, g, out=ws.g2)
        np.dot(w2, g.T, out=dz_t)
        np.multiply(a_t, a_t, out=z_t)
        np.subtract(ws.one, z_t, out=z_t)
        np.multiply(dz_t, z_t, out=dz_t)
        np.dot(ws.x1_t, dz_t.T, out=ws.g1)
        np.subtract(flat, ws.grad, out=flat)
        _forward(ws, blocks, out)
    return loss_before, loss(), DecoderParams.of_blocks(flat, blocks, params.version + taken)


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
