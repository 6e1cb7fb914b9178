"""Models: frozen backbone, the decoder training step, LSTM cell."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenedistill.detection import GridShape, sigmoid
from scenedistill.distill import DistillConfig, cell_weights, distill_step
from scenedistill.models import (
    Backbone,
    DecoderParams,
    LstmParams,
    advance_lstm,
    decoder_forward,
    init_decoder,
    init_lstm,
    lstm_train_step,
    train_decoder,
)

GRID = GridShape(s=3, c=2)
D = 5
HIDDEN = 4


def frame(values):
    return np.asarray(values, dtype=float)


def random_frame(rng, s=GRID.s, d=D):
    return frame(rng.normal(0, 1, size=(s, s, d)))


def bce(score: float, label: int, eps: float = 1e-12) -> float:
    """Binary cross-entropy of one score: the loss lstm_train_step descends."""
    p = min(max(score, eps), 1.0 - eps)
    return -(label * np.log(p) + (1 - label) * np.log(1.0 - p))


class TestBackbone:
    def test_deterministic_on_zero_frame(self):
        bb = Backbone(D, seed=5)
        zero = frame(np.zeros((GRID.s, GRID.s, D)))
        out1, sum1 = bb.forward(zero)
        out2, sum2 = bb.forward(zero)
        assert np.array_equal(out1, out2)
        assert np.array_equal(sum1, sum2)

    def test_same_frame_twice_bitwise_identical(self):
        rng = np.random.default_rng(0)
        bb = Backbone(D, seed=5)
        f = random_frame(rng)
        out1, sum1 = bb.forward(f)
        out2, sum2 = bb.forward(f)
        assert np.array_equal(out1, out2)
        assert np.array_equal(sum1, sum2)

    def test_same_seed_same_transform(self):
        rng = np.random.default_rng(1)
        f = random_frame(rng)
        a, _ = Backbone(D, seed=9).forward(f)
        b, _ = Backbone(D, seed=9).forward(f)
        assert np.array_equal(a, b)

    def test_summary_matches_scalar_pooling(self):
        rng = np.random.default_rng(2)
        bb = Backbone(D, seed=3)
        f = random_frame(rng)
        out, summary = bb.forward(f)
        assert summary.shape == (2 * D,)
        for ch in range(D):
            mean = sum(out[r, c, ch] for r in range(GRID.s) for c in range(GRID.s)) / GRID.s ** 2
            mx = max(out[r, c, ch] for r in range(GRID.s) for c in range(GRID.s))
            assert summary[ch] == pytest.approx(mean)
            assert summary[D + ch] == pytest.approx(mx)

    def test_hot_cell_dominates_max_channel(self):
        bb = Backbone(D, seed=3)
        vals = np.zeros((GRID.s, GRID.s, D))
        vals[1, 1] = 5.0
        out, summary = bb.forward(frame(vals))
        hot = out[1, 1]
        for ch in range(D):
            if hot[ch] == out[:, :, ch].max():
                assert summary[D + ch] == pytest.approx(hot[ch])


class TestDecoder:
    def test_zero_params_zero_output(self):
        rng = np.random.default_rng(0)
        p = DecoderParams(
            w1=np.zeros((D, HIDDEN)), b1=np.zeros(HIDDEN),
            w2=np.zeros((HIDDEN, GRID.channels)), b2=np.zeros(GRID.channels),
        )
        out = decoder_forward(p, random_frame(rng))
        assert np.array_equal(out, np.zeros((GRID.s, GRID.s, GRID.channels)))

    def test_single_cell_matches_hand_affine(self):
        shape = GridShape(s=1, c=1)
        w1 = np.array([[0.5], [-0.25]])          # d=2 -> hidden=1
        b1 = np.array([0.1])
        w2 = np.array([[1.0, -1.0, 0.5, 0.0, 2.0, 0.3]])  # hidden=1 -> 6 channels
        b2 = np.array([0.01, 0.02, 0.03, 0.04, 0.05, 0.06])
        p = DecoderParams(w1=w1, b1=b1, w2=w2, b2=b2)
        x = np.array([[[2.0, 4.0]]])
        a = math.tanh(2.0 * 0.5 + 4.0 * -0.25 + 0.1)
        want = a * w2[0] + b2
        out = decoder_forward(p, frame(x))
        assert np.allclose(out[0, 0], want)

    def test_frozen_params_identical_outputs(self):
        rng = np.random.default_rng(1)
        p = init_decoder(D, HIDDEN, GRID, seed=4)
        f = random_frame(rng)
        assert np.array_equal(decoder_forward(p, f), decoder_forward(p, f))

    def test_dimension_mismatch_raises(self):
        p = init_decoder(D, HIDDEN, GRID, seed=4)
        bad = frame(np.zeros((GRID.s, GRID.s, D + 1)))
        with pytest.raises(ValueError):
            decoder_forward(p, bad)


def loss_and_grad(params, feat, target):
    """Plain half-SSE loss used to exercise the chain rule in tests."""
    out = decoder_forward(params, feat)
    return 0.5 * float(np.sum((out - target) ** 2)), out - target


def numeric_decoder_grad(params, feat, target, eps=1e-5):
    """Central finite differences through the full forward pass."""
    grads = {}
    for name in ("w1", "b1", "w2", "b2"):
        base = getattr(params, name)
        g = np.zeros_like(base)
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            for sign in (+1, -1):
                perturbed = base.copy()
                perturbed[idx] += sign * eps
                p2 = DecoderParams(**{**{n: getattr(params, n) for n in ("w1", "b1", "w2", "b2")},
                                      name: perturbed})
                val, _ = loss_and_grad(p2, feat, target)
                g[idx] += sign * val
            g[idx] /= 2 * eps
        grads[name] = g
    return grads


HALF = np.full((GRID.s, GRID.s, 1), 0.5)  # weights that make the step's loss half-SSE


def step_gradient(params, feat, target, weights=HALF, lr=1e-4):
    """Parameter gradient of one train_decoder step, as (params - new) / lr."""
    _, _, new = train_decoder(params, feat, target, weights, lr, steps=1)
    return {name: (getattr(params, name) - arr) / lr
            for name, arr in zip(("w1", "b1", "w2", "b2"), new)}


class TestDecoderGrad:
    def test_zero_out_grad_gives_zero_param_grad(self):
        rng = np.random.default_rng(0)
        p = init_decoder(D, HIDDEN, GRID, seed=1)
        feat = random_frame(rng)
        target = rng.normal(0, 1, size=(GRID.s, GRID.s, GRID.channels))
        _, _, new = train_decoder(p, feat, target, np.zeros_like(HALF), lr=0.1, steps=3)
        for name, arr in zip(("w1", "b1", "w2", "b2"), new):
            assert np.array_equal(arr, getattr(p, name))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        p = init_decoder(D, HIDDEN, GRID, seed=seed, scale=0.5)
        feat = random_frame(rng)
        target = rng.normal(0, 1, size=(GRID.s, GRID.s, GRID.channels))
        analytic = step_gradient(p, feat, target)
        numeric = numeric_decoder_grad(p, feat, target)
        for name in ("w1", "b1", "w2", "b2"):
            a, n = analytic[name], numeric[name]
            denom = np.maximum(np.abs(n), 1e-6)
            assert np.max(np.abs(a - n) / denom) < 1e-4, name

    def test_final_layer_gradient_is_column_sparse(self):
        # a target off the head's output on one channel only touches that w2
        # column; the target repeats the step's own flat forward pass, so the
        # other channels' error is exactly zero
        rng = np.random.default_rng(5)
        p = init_decoder(D, HIDDEN, GRID, seed=5)
        feat = random_frame(rng)
        x = feat.reshape(-1, D)
        target = (np.tanh(x @ p.w1 + p.b1) @ p.w2 + p.b2).reshape(GRID.s, GRID.s, -1)
        target[:, :, 2] += 1.0
        g = step_gradient(p, feat, target)
        others = np.delete(g["w2"], 2, axis=1)
        assert np.array_equal(others, np.zeros_like(others))
        assert np.any(g["w2"][:, 2] != 0)


class TestSgdStep:
    """The update rule of the training step: params - lr * gradient."""

    def _frame(self, seed=0):
        return random_frame(np.random.default_rng(seed))

    def test_zero_grad_keeps_weights_bumps_version(self):
        # lam = 1 and no confident oracle cell: every cell weighs zero
        p = init_decoder(D, HIDDEN, GRID, seed=0)
        oracle = np.full((GRID.s, GRID.s, GRID.channels), -5.0)
        cfg = DistillConfig(lam=1.0, lr=0.1, steps_per_event=3)
        p2, fb = distill_step(p, self._frame(), oracle, cfg)
        assert fb.error is None
        assert np.array_equal(p2.w1, p.w1)
        assert p2.version == p.version + cfg.steps_per_event

    def test_lr_one_grad_equals_params_zeroes_weights(self):
        # an input-blind head (w1 = w2 = 0) outputs b2 on every cell; against
        # a zero target with weights 1 / (2 * cells) its gradient is b2 itself
        p = DecoderParams(w1=np.zeros((D, HIDDEN)), b1=np.zeros(HIDDEN),
                          w2=np.zeros((HIDDEN, GRID.channels)),
                          b2=np.linspace(-1.0, 1.0, GRID.channels))
        cells = GRID.s * GRID.s
        _, _, new = train_decoder(p, self._frame(), np.zeros((GRID.s, GRID.s, GRID.channels)),
                                  np.full((GRID.s, GRID.s, 1), 0.5 / cells), lr=1.0, steps=1)
        for arr in new:
            assert np.allclose(arr, 0.0)

    def test_non_finite_grad_rejected(self):
        # a step so large it overflows: the event is rejected, params kept
        p = init_decoder(D, HIDDEN, GRID, seed=0)
        oracle = np.random.default_rng(1).normal(0, 1, size=(GRID.s, GRID.s, GRID.channels))
        with np.errstate(all="ignore"):
            p2, fb = distill_step(p, self._frame(), oracle,
                                  DistillConfig(lr=1e300, steps_per_event=2))
        assert fb.error is not None
        assert p2 is p

    def test_overflow_with_finite_losses_rejected(self):
        # an input-blind head meets a target symmetric about its output, so
        # every gradient but w1's sums to exactly zero; lr 1e300 sends w1 to
        # -inf while tanh saturates and keeps both losses finite, so only the
        # check over the trained buffer catches the event
        p = DecoderParams(w1=np.zeros((1, 1)), b1=np.zeros(1),
                          w2=np.full((1, 6), 0.5), b2=np.full(6, -5.0), version=3)
        before = [arr.copy() for arr in (p.w1, p.b1, p.w2, p.b2)]
        feat = frame(np.array([1e10, 2e10, 3e10, 4e10]).reshape(2, 2, 1))
        oracle = p.b2 + np.array([1.0, -1.0, 1.0, -1.0]).reshape(2, 2, 1)
        cfg = DistillConfig(lr=1e300, steps_per_event=1)
        with np.errstate(all="ignore"):
            loss_before, loss_after, trained = train_decoder(
                p, feat, oracle, cell_weights(oracle, cfg), cfg.lr, cfg.steps_per_event)
            p2, fb = distill_step(p, feat, oracle, cfg)
        assert np.isfinite(loss_before) and np.isfinite(loss_after)
        assert not np.all(np.isfinite(trained[0]))
        assert fb.error == "non-finite loss"
        assert fb.loss_before == loss_before == fb.loss_after
        assert p2 is p and p2.version == 3
        for arr, old, new in zip((p.w1, p.b1, p.w2, p.b2), before, trained):
            assert np.array_equal(arr, old)  # nothing written through
            assert not np.shares_memory(arr, new)

    def test_descent_on_fixed_target_is_monotone(self):
        rng = np.random.default_rng(7)
        p = init_decoder(D, HIDDEN, GRID, seed=7)
        feat = random_frame(rng)
        target = rng.normal(0, 0.5, size=(GRID.s, GRID.s, GRID.channels))
        losses = []
        for _ in range(50):
            val, _, new = train_decoder(p, feat, target, HALF, lr=1e-3, steps=1)
            assert val == pytest.approx(loss_and_grad(p, feat, target)[0], rel=1e-12)
            losses.append(val)
            p = DecoderParams(*new)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]


def scalar_lstm_oracle(params: LstmParams, x):
    """Element-by-element re-implementation of the cell equations."""
    n = params.hidden
    z = list(x) + list(params.h)
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    pre = [sum(params.w_gates[r][k] * z[k] for k in range(len(z))) + params.b_gates[r]
           for r in range(4 * n)]
    i = [sig(pre[r]) for r in range(n)]
    f = [sig(pre[n + r]) for r in range(n)]
    o = [sig(pre[2 * n + r]) for r in range(n)]
    g = [math.tanh(pre[3 * n + r]) for r in range(n)]
    c_new = [f[r] * params.c[r] + i[r] * g[r] for r in range(n)]
    h_new = [o[r] * math.tanh(c_new[r]) for r in range(n)]
    score = sig(sum(params.w_out[r] * h_new[r] for r in range(n)) + params.b_out)
    return score, h_new, c_new


class TestLstm:
    def test_zero_weights_score_exactly_half(self):
        p = LstmParams(
            w_gates=np.zeros((4 * 3, D + 3)), b_gates=np.zeros(4 * 3),
            w_out=np.zeros(3), b_out=0.0, h=np.zeros(3), c=np.zeros(3),
        )
        score, _ = advance_lstm(p, np.ones(D))
        assert score == 0.5

    def test_initial_score_half_from_init(self):
        p = init_lstm(D, 4, seed=0)
        score, _ = advance_lstm(p, np.random.default_rng(0).normal(size=D))
        assert score == 0.5  # readout starts at zero

    def test_hidden_state_bounded_under_repeated_input(self):
        p = init_lstm(D, 4, seed=1)
        x = np.random.default_rng(1).normal(size=D)
        for _ in range(100):
            _, p = advance_lstm(p, x)
            assert np.all(np.abs(p.h) <= 1.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        p = init_lstm(D, 3, seed=seed, scale=0.7)
        p = LstmParams(
            w_gates=p.w_gates, b_gates=rng.normal(0, 0.3, size=p.b_gates.shape),
            w_out=rng.normal(0, 1, size=3), b_out=float(rng.normal()),
            h=rng.normal(0, 0.5, size=3), c=rng.normal(0, 0.5, size=3),
        )
        x = rng.normal(size=D)
        score, advanced = advance_lstm(p, x)
        want_score, want_h, want_c = scalar_lstm_oracle(p, x)
        assert score == pytest.approx(want_score)
        assert np.allclose(advanced.h, want_h)
        assert np.allclose(advanced.c, want_c)

    def test_dim_mismatch_raises(self):
        p = init_lstm(D, 3, seed=0)
        with pytest.raises(ValueError):
            advance_lstm(p, np.zeros(D + 2))


def numeric_lstm_grad(params, x, label, eps=1e-5):
    grads = {}
    arrays = {"w_gates": params.w_gates, "b_gates": params.b_gates, "w_out": params.w_out}
    for name, base in arrays.items():
        g = np.zeros_like(base)
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            vals = []
            for sign in (+1, -1):
                perturbed = base.copy()
                perturbed[idx] += sign * eps
                p2 = LstmParams(**{
                    "w_gates": params.w_gates, "b_gates": params.b_gates,
                    "w_out": params.w_out, "b_out": params.b_out,
                    "h": params.h, "c": params.c, name: perturbed,
                })
                score, _ = advance_lstm(p2, x)
                vals.append(bce(score, label))
            g[idx] = (vals[0] - vals[1]) / (2 * eps)
        grads[name] = g
    vals = []
    for sign in (+1, -1):
        p2 = LstmParams(w_gates=params.w_gates, b_gates=params.b_gates,
                        w_out=params.w_out, b_out=params.b_out + sign * eps,
                        h=params.h, c=params.c)
        score, _ = advance_lstm(p2, x)
        vals.append(bce(score, label))
    grads["b_out"] = (vals[0] - vals[1]) / (2 * eps)
    return grads


class TestLstmTraining:
    def test_saturated_correct_prediction_barely_moves(self):
        p = init_lstm(D, 3, seed=0)
        p = LstmParams(w_gates=p.w_gates, b_gates=p.b_gates,
                       w_out=np.ones(3), b_out=12.0, h=p.h, c=p.c)
        x = np.random.default_rng(0).normal(size=D)
        score, _ = advance_lstm(p, x)
        assert score > 0.999
        p2 = lstm_train_step(p, x, label=1, lr=0.5)
        assert np.max(np.abs(p2.w_gates - p.w_gates)) < 1e-4
        assert abs(p2.b_out - p.b_out) < 1e-4

    @pytest.mark.parametrize("seed,label", [(0, 1), (1, 0), (2, 1)])
    def test_gradient_matches_finite_differences(self, seed, label):
        rng = np.random.default_rng(seed)
        p = init_lstm(D, 3, seed=seed, scale=0.5)
        p = LstmParams(
            w_gates=p.w_gates, b_gates=p.b_gates,
            w_out=rng.normal(0, 0.8, size=3), b_out=float(rng.normal(0, 0.5)),
            h=rng.normal(0, 0.4, size=3), c=rng.normal(0, 0.4, size=3),
        )
        x = rng.normal(size=D)
        lr = 1.0
        p2 = lstm_train_step(p, x, label, lr)
        numeric = numeric_lstm_grad(p, x, label)
        for name in ("w_gates", "b_gates", "w_out"):
            analytic = (getattr(p, name) - getattr(p2, name)) / lr
            denom = np.maximum(np.abs(numeric[name]), 1e-5)
            assert np.max(np.abs(analytic - numeric[name]) / denom) < 1e-4, name
        analytic_b = (p.b_out - p2.b_out) / lr
        assert abs(analytic_b - numeric["b_out"]) / max(abs(numeric["b_out"]), 1e-5) < 1e-4

    def test_learns_linearly_separable_mapping(self):
        rng = np.random.default_rng(42)
        p = init_lstm(D, 6, seed=42)
        w_true = rng.normal(size=D)
        samples = [(x, int(x @ w_true > 0)) for x in rng.normal(size=(40, D))]
        for _ in range(5):
            for x, label in samples:
                p = lstm_train_step(p, x, label, lr=0.3)
        correct = 0
        for x, label in samples:
            score, _ = advance_lstm(p, x)
            correct += (score >= 0.5) == bool(label)
        assert correct / len(samples) >= 0.95

    def test_rejects_bad_label(self):
        p = init_lstm(D, 3, seed=0)
        with pytest.raises(ValueError):
            lstm_train_step(p, np.zeros(D), label=2, lr=0.1)


# Reference implementations: the decoder training step and the LSTM updates
# as written before their numpy calls were cut (one copy per array, separate
# gate activations, dataclasses.replace).  The arithmetic is unchanged, so
# results must be equal, not close.

def reference_train_decoder(params, features, target, weights, lr, steps):
    x = features.reshape(-1, params.w1.shape[0])
    n = x.shape[0]
    hidden_dim = params.w1.shape[1]
    channels = params.w2.shape[1]
    w1, b1 = params.w1.copy(), params.b1.copy()
    w2, b2 = params.w2.copy(), params.b2.copy()
    w_flat = weights.reshape(-1, 1)
    target_flat = target.reshape(-1, channels)

    a = np.empty((n, hidden_dim))
    out = np.empty((n, channels))
    g = np.empty((n, channels))
    dz = np.empty((n, hidden_dim))
    ones = np.empty((n, hidden_dim))

    def forward():
        np.matmul(x, w1, out=a)
        np.add(a, b1, out=a)
        np.tanh(a, out=a)
        np.matmul(a, w2, out=out)
        np.add(out, b2, out=out)

    def loss():
        np.subtract(out, target_flat, out=g)
        np.multiply(g, g, out=g)
        np.multiply(g, w_flat, out=g)
        return float(g.sum())

    forward()
    loss_before = loss()
    for _ in range(steps if np.isfinite(loss_before) else 0):
        forward()
        np.subtract(out, target_flat, out=g)
        g *= w_flat
        g *= 2.0
        gw2 = a.T @ g
        gb2 = g.sum(axis=0)
        np.matmul(g, w2.T, out=dz)
        np.multiply(a, a, out=ones)
        np.subtract(1.0, ones, out=ones)
        dz *= ones
        gw1 = x.T @ dz
        gb1 = dz.sum(axis=0)
        gw1 *= lr
        gb1 *= lr
        gw2 *= lr
        gb2 *= lr
        w1 -= gw1
        b1 -= gb1
        w2 -= gw2
        b2 -= gb2

    forward()
    return loss_before, loss(), (w1, b1, w2, b2)


def reference_lstm_cell(params, x):
    n = params.hidden
    z = np.concatenate([x, params.h])
    pre = params.w_gates @ z + params.b_gates
    i = sigmoid(pre[0:n])
    f = sigmoid(pre[n:2 * n])
    o = sigmoid(pre[2 * n:3 * n])
    g = np.tanh(pre[3 * n:4 * n])
    c_new = f * params.c + i * g
    h_new = o * np.tanh(c_new)
    return z, i, f, o, g, c_new, h_new


def reference_advance_lstm(params, summary):
    _, _, _, _, _, c_new, h_new = reference_lstm_cell(params, summary)
    score = float(sigmoid(params.w_out @ h_new + params.b_out))
    return score, replace(params, h=h_new, c=c_new)


def reference_lstm_train_step(params, summary, label, lr):
    z, i, f, o, g, c_new, h_new = reference_lstm_cell(params, summary)
    th = np.tanh(c_new)
    score = sigmoid(params.w_out @ h_new + params.b_out)
    d_u = score - label
    gw_out = d_u * h_new
    gb_out = d_u
    dh = d_u * params.w_out
    do = dh * th
    dc = dh * o * (1.0 - th * th)
    df = dc * params.c
    di = dc * g
    dg = dc * i
    d_pre = np.concatenate([
        di * i * (1.0 - i),
        df * f * (1.0 - f),
        do * o * (1.0 - o),
        dg * (1.0 - g * g),
    ])
    return replace(
        params,
        w_gates=params.w_gates - lr * np.outer(d_pre, z),
        b_gates=params.b_gates - lr * d_pre,
        w_out=params.w_out - lr * gw_out,
        b_out=params.b_out - lr * gb_out,
    )


HIDDEN_SIZES = st.sampled_from([1, 16, 32])
LEARNING_RATES = st.sampled_from([1e-4, 0.01, 0.05, 0.3, 1.0])


def random_lstm(rng, input_dim, hidden):
    return LstmParams(
        w_gates=rng.normal(0, 0.5, size=(4 * hidden, input_dim + hidden)),
        b_gates=rng.normal(0, 0.3, size=4 * hidden),
        w_out=rng.normal(0, 1, size=hidden), b_out=float(rng.normal()),
        h=rng.normal(0, 0.5, size=hidden), c=rng.normal(0, 0.5, size=hidden),
    )


def assert_lstm_equal(got, want):
    for name in ("w_gates", "b_gates", "w_out", "h", "c"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.b_out == want.b_out


class TestBitIdentity:
    """The decoder step and the LSTM updates against their references."""

    @given(seed=st.integers(0, 2**32 - 1), hidden=HIDDEN_SIZES, steps=st.sampled_from([1, 2, 10]),
           lr=LEARNING_RATES, s=st.integers(1, 6), d=st.integers(1, 12), c=st.integers(1, 4),
           zero_frac=st.sampled_from([0.0, 0.5, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_train_decoder_matches_reference(self, seed, hidden, steps, lr, s, d, c, zero_frac):
        rng = np.random.default_rng(seed)
        p = init_decoder(d, hidden, GridShape(s=s, c=c), seed=seed % 1000, scale=0.5)
        p = DecoderParams(p.w1, rng.normal(0, 0.1, size=hidden), p.w2,
                          rng.normal(0, 0.1, size=5 + c))
        feat = frame(rng.normal(0, 1, size=(s, s, d)))
        target = rng.normal(0, 1, size=(s, s, 5 + c))
        weights = rng.uniform(0, 1, size=(s, s, 1)) / (s * s)
        weights[rng.random(size=(s, s, 1)) < zero_frac] = 0.0
        before = [arr.copy() for arr in (p.w1, p.b1, p.w2, p.b2)]
        got = train_decoder(p, feat, target, weights, lr, steps)
        want = reference_train_decoder(p, feat, target, weights, lr, steps)
        assert got[0] == want[0] and got[1] == want[1]
        for new, ref, old, arr in zip(got[2], want[2], before, (p.w1, p.b1, p.w2, p.b2)):
            assert np.array_equal(new, ref)
            assert np.array_equal(arr, old)  # params untouched

    @given(seed=st.integers(0, 2**32 - 1), hidden=HIDDEN_SIZES, input_dim=st.integers(1, 24))
    @settings(max_examples=100, deadline=None)
    def test_advance_lstm_matches_reference(self, seed, hidden, input_dim):
        rng = np.random.default_rng(seed)
        got = want = random_lstm(rng, input_dim, hidden)
        for x in rng.normal(size=(3, input_dim)):
            score, got = advance_lstm(got, x)
            want_score, want = reference_advance_lstm(want, x)
            assert score == want_score
            assert_lstm_equal(got, want)

    @given(seed=st.integers(0, 2**32 - 1), hidden=HIDDEN_SIZES, input_dim=st.integers(1, 24),
           label=st.sampled_from([0, 1]), lr=LEARNING_RATES)
    @settings(max_examples=100, deadline=None)
    def test_lstm_train_step_matches_reference(self, seed, hidden, input_dim, label, lr):
        rng = np.random.default_rng(seed)
        got = want = random_lstm(rng, input_dim, hidden)
        for x in rng.normal(size=(3, input_dim)):
            got = lstm_train_step(got, x, label, lr)
            want = reference_lstm_train_step(want, x, label, lr)
            assert_lstm_equal(got, want)
