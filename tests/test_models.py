"""Models: frozen backbone, the decoder training step, the LSTM gate."""

import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenedistill.detection import GridShape, sigmoid
from scenedistill.distill import DistillConfig, cell_weights, distill_step
from scenedistill.models import (
    Backbone,
    DecoderParams,
    LstmGate,
    Workspace,
    decoder_forward,
    init_decoder,
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
    """Binary cross-entropy of one score: the loss LstmGate.train descends."""
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

    def test_params_copy_their_arrays_into_two_blocks(self):
        rng = np.random.default_rng(2)
        given_arrays = (rng.normal(size=(D, HIDDEN)), rng.normal(size=HIDDEN),
                        rng.normal(size=(HIDDEN, GRID.channels)), rng.normal(size=GRID.channels))
        kept = [a.copy() for a in given_arrays]
        p = DecoderParams(*given_arrays, version=4)
        for a in given_arrays:
            a += 1.0  # the caller's arrays are not the params'
        w1b1, w2b2 = p.blocks
        assert np.array_equal(w1b1, np.vstack(kept[:2])) and np.array_equal(w2b2, np.vstack(kept[2:]))
        assert p.flat.tobytes() == np.concatenate([k.ravel() for k in kept]).tobytes()
        for a, k in zip(arrays(p), kept):
            assert np.array_equal(a, k) and np.shares_memory(a, p.flat)
        assert p.version == 4

    def test_params_of_blocks_adopt_them(self):
        p = init_decoder(D, HIDDEN, GRID, seed=4)
        flat = p.flat.copy()
        w1b1 = flat[:(D + 1) * HIDDEN].reshape(D + 1, HIDDEN)
        w2b2 = flat[(D + 1) * HIDDEN:].reshape(HIDDEN + 1, GRID.channels)
        q = DecoderParams.of_blocks(flat, (w1b1, w2b2), 7)
        assert q.flat is flat and q.blocks[0] is w1b1 and q.version == 7
        flat[:] = 0.5  # nothing was copied
        for a in arrays(q):
            assert np.all(a == 0.5)

    def test_params_reject_disagreeing_shapes(self):
        with pytest.raises(ValueError, match="w1"):
            DecoderParams(np.zeros((D, HIDDEN)), np.zeros(HIDDEN + 1),
                          np.zeros((HIDDEN, GRID.channels)), np.zeros(GRID.channels))


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


def arrays(params):
    return params.w1, params.b1, params.w2, params.b2


def step_gradient(params, feat, target, weights=HALF, lr=1e-4):
    """Parameter gradient of one train_decoder step, as (params - new) / lr."""
    _, _, new = train_decoder(params, feat, target, weights, lr, steps=1)
    return {name: (getattr(params, name) - arr) / lr
            for name, arr in zip(("w1", "b1", "w2", "b2"), arrays(new))}


class TestDecoderGrad:
    def test_zero_out_grad_gives_zero_param_grad(self):
        rng = np.random.default_rng(0)
        p = init_decoder(D, HIDDEN, GRID, seed=1)
        feat = random_frame(rng)
        target = rng.normal(0, 1, size=(GRID.s, GRID.s, GRID.channels))
        _, _, new = train_decoder(p, feat, target, np.zeros_like(HALF), lr=0.1, steps=3)
        for name, arr in zip(("w1", "b1", "w2", "b2"), arrays(new)):
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
        for arr in arrays(new):
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
        # every gradient but w1's sums to exactly zero; features of the
        # gradient's alternating sign make every cell's w1 term the same
        # sign, so lr 1e300 sends w1 to inf, not NaN, while tanh saturates and
        # keeps both losses finite: only the check over the trained buffer
        # catches the event
        p = DecoderParams(w1=np.zeros((1, 1)), b1=np.zeros(1),
                          w2=np.full((1, 6), 0.5), b2=np.full(6, -5.0), version=3)
        before = [arr.copy() for arr in (p.w1, p.b1, p.w2, p.b2)]
        feat = frame(np.array([1e10, -2e10, 3e10, -4e10]).reshape(2, 2, 1))
        oracle = p.b2 + np.array([1.0, -1.0, 1.0, -1.0]).reshape(2, 2, 1)
        cfg = DistillConfig(lr=1e300, steps_per_event=1)
        with np.errstate(all="ignore"):
            loss_before, loss_after, trained = train_decoder(
                p, feat, oracle, cell_weights(oracle, cfg), cfg.lr, cfg.steps_per_event)
            p2, fb = distill_step(p, feat, oracle, cfg)
        assert np.isfinite(loss_before) and np.isfinite(loss_after)
        assert not np.all(np.isfinite(trained.w1))
        assert fb.error == "non-finite loss"
        assert fb.loss_before == loss_before == fb.loss_after
        assert p2 is p and p2.version == 3
        for arr, old, new in zip(arrays(p), before, arrays(trained)):
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
            p = new
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]


@dataclass(frozen=True)
class LstmRecord:
    """The gate as a frozen record: what the references below take and return."""

    w_gates: np.ndarray
    b_gates: np.ndarray
    w_out: np.ndarray
    b_out: float
    h: np.ndarray
    c: np.ndarray

    @property
    def hidden(self) -> int:
        return self.h.shape[0]


def make_gate(src) -> LstmGate:
    """A gate holding copies of src's weights and state, so that its in-place
    updates never reach src (a record or another gate)."""
    hidden = src.h.shape[0]
    gate = LstmGate(src.w_gates.shape[1] - hidden, hidden, seed=0)
    for name in ("w_gates", "b_gates", "w_out", "b_out", "h", "c"):
        value = getattr(src, name)
        setattr(gate, name, value.copy() if isinstance(value, np.ndarray) else value)
    return gate


def score_after_step(src, x) -> float:
    """The score a step on x would read out, leaving src as it is."""
    gate = make_gate(src)
    gate.step(x)
    return gate.score()


def scalar_lstm_oracle(params, x):
    """Element-by-element re-implementation of the cell equations."""
    n = len(params.h)
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
        gate = LstmGate(D, 3, seed=0)
        gate.w_gates = np.zeros((4 * 3, D + 3))
        gate.step(np.ones(D))
        assert gate.score() == 0.5

    def test_initial_score_half_from_init(self):
        gate = LstmGate(D, 4, seed=0)
        gate.step(np.random.default_rng(0).normal(size=D))
        assert gate.score() == 0.5  # readout starts at zero

    def test_hidden_state_bounded_under_repeated_input(self):
        gate = LstmGate(D, 4, seed=1)
        x = np.random.default_rng(1).normal(size=D)
        for _ in range(100):
            gate.step(x)
            assert np.all(np.abs(gate.h) <= 1.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        gate = LstmGate(D, 3, seed=seed)
        gate.w_gates = np.random.default_rng(seed).normal(0.0, 0.7, size=gate.w_gates.shape)
        gate.b_gates = rng.normal(0, 0.3, size=gate.b_gates.shape)
        gate.w_out, gate.b_out = rng.normal(0, 1, size=3), float(rng.normal())
        gate.h, gate.c = rng.normal(0, 0.5, size=3), rng.normal(0, 0.5, size=3)
        x = rng.normal(size=D)
        want_score, want_h, want_c = scalar_lstm_oracle(gate, x)
        gate.step(x)
        assert gate.score() == pytest.approx(want_score)
        assert np.allclose(gate.h, want_h)
        assert np.allclose(gate.c, want_c)

    def test_step_leaves_the_arrays_it_replaces_alone(self):
        gate = make_gate(random_lstm(np.random.default_rng(2), D, 3))
        h, c = gate.h, gate.c
        h_before, c_before = h.copy(), c.copy()
        gate.step(np.random.default_rng(3).normal(size=D))
        assert not np.array_equal(gate.h, h_before)
        assert np.array_equal(h, h_before) and np.array_equal(c, c_before)

    def test_dim_mismatch_raises(self):
        gate = LstmGate(D, 3, seed=0)
        with pytest.raises(ValueError):
            gate.step(np.zeros(D + 2))
        assert not gate.h.any() and not gate.c.any()  # the state did not move


def numeric_lstm_grad(params, x, label, eps=1e-5):
    grads = {}
    for name in ("w_gates", "b_gates", "w_out"):
        base = getattr(params, name)
        g = np.zeros_like(base)
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            vals = []
            for sign in (+1, -1):
                perturbed = base.copy()
                perturbed[idx] += sign * eps
                score = score_after_step(replace(params, **{name: perturbed}), x)
                vals.append(bce(score, label))
            g[idx] = (vals[0] - vals[1]) / (2 * eps)
        grads[name] = g
    vals = []
    for sign in (+1, -1):
        score = score_after_step(replace(params, b_out=params.b_out + sign * eps), x)
        vals.append(bce(score, label))
    grads["b_out"] = (vals[0] - vals[1]) / (2 * eps)
    return grads


class TestLstmTraining:
    def test_saturated_correct_prediction_barely_moves(self):
        gate = LstmGate(D, 3, seed=0)
        gate.w_out, gate.b_out = np.ones(3), 12.0
        x = np.random.default_rng(0).normal(size=D)
        assert score_after_step(gate, x) > 0.999
        w_before = gate.w_gates.copy()
        gate.train(x, label=1, lr=0.5)
        assert np.max(np.abs(gate.w_gates - w_before)) < 1e-4
        assert abs(gate.b_out - 12.0) < 1e-4

    @pytest.mark.parametrize("seed,label", [(0, 1), (1, 0), (2, 1)])
    def test_gradient_matches_finite_differences(self, seed, label):
        rng = np.random.default_rng(seed)
        p = LstmRecord(
            w_gates=np.random.default_rng(seed).normal(0.0, 0.5, size=(4 * 3, D + 3)),
            b_gates=np.zeros(4 * 3),
            w_out=rng.normal(0, 0.8, size=3), b_out=float(rng.normal(0, 0.5)),
            h=rng.normal(0, 0.4, size=3), c=rng.normal(0, 0.4, size=3),
        )
        x = rng.normal(size=D)
        lr = 1.0
        gate = make_gate(p)
        gate.train(x, label, lr)
        numeric = numeric_lstm_grad(p, x, label)
        for name in ("w_gates", "b_gates", "w_out"):
            analytic = (getattr(p, name) - getattr(gate, name)) / lr
            denom = np.maximum(np.abs(numeric[name]), 1e-5)
            assert np.max(np.abs(analytic - numeric[name]) / denom) < 1e-4, name
        analytic_b = (p.b_out - gate.b_out) / lr
        assert abs(analytic_b - numeric["b_out"]) / max(abs(numeric["b_out"]), 1e-5) < 1e-4

    def test_learns_linearly_separable_mapping(self):
        rng = np.random.default_rng(42)
        gate = LstmGate(D, 6, seed=42)
        w_true = rng.normal(size=D)
        samples = [(x, int(x @ w_true > 0)) for x in rng.normal(size=(40, D))]
        for _ in range(5):
            for x, label in samples:
                gate.train(x, label, lr=0.3)
        correct = 0
        for x, label in samples:
            correct += (score_after_step(gate, x) >= 0.5) == bool(label)
        assert correct / len(samples) >= 0.95

    def test_rejects_bad_label(self):
        gate = LstmGate(D, 3, seed=0)
        with pytest.raises(ValueError):
            gate.train(np.zeros(D), label=2, lr=0.1)

    def test_train_leaves_state_unchanged(self):
        rng = np.random.default_rng(5)
        gate = make_gate(random_lstm(rng, D, 3))
        h, c, w_before = gate.h.copy(), gate.c.copy(), gate.w_gates.copy()
        gate.train(rng.normal(size=D), label=1, lr=0.3)
        assert np.array_equal(gate.h, h) and np.array_equal(gate.c, c)
        assert not np.array_equal(gate.w_gates, w_before)  # the weights did move


# Reference implementations: the decoder training step and the LSTM updates
# as written before their numpy calls were cut (one copy per array, separate
# gate activations) and before the gate changed in place: the LSTM references
# take an LstmRecord and return a new one with dataclasses.replace.  The
# arithmetic is unchanged, so results must be equal, not close.

def reference_train_decoder(params, features, target, weights, lr, steps):
    """The step with the biases and lr folded in, written plainly: the
    features and activations carry a ones row, each layer is one block
    [w; b], and lr scales the doubled weight map."""
    d, hidden_dim = params.w1.shape
    x1_t = np.ascontiguousarray(np.vstack([features.reshape(-1, d).T,
                                           np.ones((1, features.size // d))]))
    n = x1_t.shape[1]
    channels = params.w2.shape[1]
    w1b1 = np.vstack([params.w1, params.b1])
    w2b2 = np.vstack([params.w2, params.b2])
    w = np.broadcast_to(weights.reshape(n, -1), (n, channels))
    step = w * (2.0 * lr)
    t = target.reshape(n, channels)

    def forward():
        a_t = np.tanh(np.dot(w1b1.T, x1_t))
        a1_t = np.vstack([a_t, np.ones((1, n))])
        return a_t, a1_t, np.dot(a1_t.T, w2b2)

    def loss(out):
        return float((((out - t) ** 2) * w).sum())

    a_t, a1_t, out = forward()
    loss_before = loss(out)
    for _ in range(steps if np.isfinite(loss_before) else 0):
        g = (out - t) * step
        g2 = np.dot(a1_t, g)
        dz_t = np.dot(w2b2[:-1], g.T) * (1.0 - a_t * a_t)
        g1 = np.dot(x1_t, dz_t.T)
        w1b1, w2b2 = w1b1 - g1, w2b2 - g2
        a_t, a1_t, out = forward()
    return loss_before, loss(out), (w1b1[:-1], w1b1[-1], w2b2[:-1], w2b2[-1])


def textbook_train_decoder(params, features, target, weights, lr, steps):
    """The step as written before the biases and lr were folded in: separate
    bias gradients, lr applied to the gradient.  It differs from the folded
    step in the last bits only."""
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


def reference_score(params):
    return float(sigmoid(params.w_out @ params.h + params.b_out))


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
    return LstmRecord(
        w_gates=rng.normal(0, 0.5, size=(4 * hidden, input_dim + hidden)),
        b_gates=rng.normal(0, 0.3, size=4 * hidden),
        w_out=rng.normal(0, 1, size=hidden), b_out=float(rng.normal()),
        h=rng.normal(0, 0.5, size=hidden), c=rng.normal(0, 0.5, size=hidden),
    )


def assert_lstm_equal(got, want):
    """got is a gate, want a reference record."""
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
        p, feat, target, weights = self.draw(seed, hidden, s, d, c, zero_frac)
        before = [arr.copy() for arr in (p.w1, p.b1, p.w2, p.b2)]
        got = train_decoder(p, feat, target, weights, lr, steps)
        want = reference_train_decoder(p, feat, target, weights, lr, steps)
        assert got[0] == want[0] and got[1] == want[1]
        assert got[2].version == p.version + steps
        for new, ref, old, arr in zip(arrays(got[2]), want[2], before, arrays(p)):
            assert np.array_equal(new, ref)
            assert np.array_equal(arr, old)  # params untouched

    @staticmethod
    def draw(seed, hidden, s, d, c, zero_frac):
        rng = np.random.default_rng(seed)
        p = init_decoder(d, hidden, GridShape(s=s, c=c), seed=seed % 1000, scale=0.5)
        p = DecoderParams(p.w1, rng.normal(0, 0.1, size=hidden), p.w2,
                          rng.normal(0, 0.1, size=5 + c))
        feat = frame(rng.normal(0, 1, size=(s, s, d)))
        target = rng.normal(0, 1, size=(s, s, 5 + c))
        weights = rng.uniform(0, 1, size=(s, s, 1)) / (s * s)
        weights[rng.random(size=(s, s, 1)) < zero_frac] = 0.0
        return p, feat, target, weights

    @given(seed=st.integers(0, 2**32 - 1), hidden=HIDDEN_SIZES, lr=LEARNING_RATES,
           s=st.integers(1, 6), d=st.integers(1, 12), c=st.integers(1, 4),
           zero_frac=st.sampled_from([0.0, 0.5, 1.0]))
    @settings(max_examples=300, deadline=None)
    def test_train_decoder_close_to_textbook_step(self, seed, hidden, lr, s, d, c, zero_frac):
        # folding the biases and lr into the blocks moves one step's result
        # in the last bits only (over many steps at lr 1 they grow, as any
        # rounding difference does on a diverging run)
        p, feat, target, weights = self.draw(seed, hidden, s, d, c, zero_frac)
        got = train_decoder(p, feat, target, weights, lr, 1)
        want = textbook_train_decoder(p, feat, target, weights, lr, 1)
        for g, w in zip((got[0], got[1], *arrays(got[2])), (want[0], want[1], *want[2])):
            w = np.asarray(w)
            assert np.allclose(g, w, rtol=1e-12, atol=1e-12 * max(1.0, np.abs(w).max(initial=0)))

    def test_frame_logits_are_the_first_training_forward(self):
        # the frame and train_decoder run one forward: after no steps, the
        # workspace holds train_decoder's first logits, the bits the frame
        # decoded, and the loss before is read off them
        rng = np.random.default_rng(4)
        p = init_decoder(D, HIDDEN, GRID, seed=4, scale=0.5)
        p = DecoderParams(p.w1, rng.normal(0, 0.1, size=HIDDEN), p.w2,
                          rng.normal(0, 0.1, size=GRID.channels))
        feat, target = random_frame(rng), rng.normal(0, 1, size=(GRID.s, GRID.s, GRID.channels))
        ws = Workspace(p, feat.size // D)
        logits = decoder_forward(p, feat, ws)
        loss_before, _, _ = train_decoder(p, feat, target, HALF, 0.1, 0, ws)
        assert logits.tobytes() == ws.out.tobytes() == decoder_forward(p, feat).tobytes()
        diff = logits - target
        assert loss_before == float(np.add.reduce(diff * diff * HALF, axis=None))

    @given(seed=st.integers(0, 2**32 - 1), hidden=HIDDEN_SIZES, input_dim=st.integers(1, 24))
    @settings(max_examples=100, deadline=None)
    def test_advance_lstm_matches_reference(self, seed, hidden, input_dim):
        rng = np.random.default_rng(seed)
        want = random_lstm(rng, input_dim, hidden)
        gate = make_gate(want)
        for x in rng.normal(size=(3, input_dim)):
            gate.step(x)
            want_score, want = reference_advance_lstm(want, x)
            assert gate.score() == want_score
            assert_lstm_equal(gate, want)

    @given(seed=st.integers(0, 2**32 - 1), hidden=HIDDEN_SIZES, input_dim=st.integers(1, 24),
           label=st.sampled_from([0, 1]), lr=LEARNING_RATES)
    @settings(max_examples=100, deadline=None)
    def test_lstm_train_step_matches_reference(self, seed, hidden, input_dim, label, lr):
        rng = np.random.default_rng(seed)
        want = random_lstm(rng, input_dim, hidden)
        gate = make_gate(want)
        for x in rng.normal(size=(3, input_dim)):
            gate.train(x, label, lr)
            want = reference_lstm_train_step(want, x, label, lr)
            assert_lstm_equal(gate, want)

    @given(seed=st.integers(0, 2**32 - 1), hidden=HIDDEN_SIZES, input_dim=st.integers(1, 24),
           ops=st.lists(st.sampled_from(["step", "score", "train 0", "train 1"]),
                        min_size=1, max_size=12),
           lr=LEARNING_RATES)
    @settings(max_examples=100, deadline=None)
    def test_interleaved_gate_calls_match_references(self, seed, hidden, input_dim, ops, lr):
        # one gate through any order of calls: an in-place update that aliased
        # the state or the weights would show here and not in the tests above
        rng = np.random.default_rng(seed)
        want = random_lstm(rng, input_dim, hidden)
        gate = make_gate(want)
        for op, x in zip(ops, rng.normal(size=(len(ops), input_dim))):
            if op == "step":
                gate.step(x)
                _, want = reference_advance_lstm(want, x)
            elif op == "score":
                assert gate.score() == reference_score(want)
            else:
                gate.train(x, int(op[-1]), lr)
                want = reference_lstm_train_step(want, x, int(op[-1]), lr)
            assert_lstm_equal(gate, want)
