"""Distillation losses: target composition, the gated MSE and its identity,
the decode-and-match baseline, and the online update step."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenedistill.detection import (
    Box,
    Detection,
    GridShape,
    GroundTruthObject,
    decode_tensor,
    encode_objects,
    match_detections,
    partition_cells,
    sigmoid,
)
from scenedistill.distill import (
    DistillConfig,
    _pair_loss,
    bounded_distill_loss,
    compose_target,
    distill_step,
    nms_distill_loss,
)
from scenedistill.models import (
    DecoderParams,
    decoder_forward,
    init_decoder,
)

GRID = GridShape(s=4, c=3)


def random_pair(seed, spread=2.0):
    rng = np.random.default_rng(seed)
    student = rng.normal(0, spread, size=(GRID.s, GRID.s, GRID.channels))
    oracle = rng.normal(0, spread, size=(GRID.s, GRID.s, GRID.channels))
    return student, oracle


class TestComposeTarget:
    def test_lam_zero_target_is_oracle(self):
        student, oracle = random_pair(0)
        target = compose_target(student, oracle, DistillConfig(lam=0.0))
        assert np.allclose(target, oracle)

    def test_lam_one_blends_to_student_on_low_cells(self):
        student, oracle = random_pair(1)
        cfg = DistillConfig(lam=1.0)
        target = compose_target(student, oracle, cfg)
        high, low = partition_cells(oracle, cfg.gate)
        assert np.allclose(target[high], oracle[high])
        assert np.allclose(target[low], student[low])

    def test_matches_elementwise_loop(self):
        student, oracle = random_pair(2)
        cfg = DistillConfig(lam=0.4)  # the operating point used throughout
        target = compose_target(student, oracle, cfg)
        for r in range(GRID.s):
            for c in range(GRID.s):
                high = 1.0 / (1.0 + np.exp(-oracle[r, c, 0])) >= cfg.gate
                for ch in range(GRID.channels):
                    if high:
                        want = oracle[r, c, ch]
                    else:
                        want = 0.4 * student[r, c, ch] + 0.6 * oracle[r, c, ch]
                    assert target[r, c, ch] == pytest.approx(want)

    def test_shape_mismatch_raises(self):
        student, oracle = random_pair(3)
        with pytest.raises(ValueError):
            compose_target(student[:2], oracle, DistillConfig())

    def test_no_aliasing_with_inputs(self):
        student, oracle = random_pair(4)
        target = compose_target(student, oracle, DistillConfig(lam=0.5))
        target += 1.0
        assert not np.shares_memory(target, oracle)


class TestBoundedLoss:
    def test_zero_when_equal(self):
        _, oracle = random_pair(0)
        assert bounded_distill_loss(oracle.copy(), oracle, DistillConfig(lam=0.4)) == 0.0

    def test_lam_zero_is_two_masked_mses(self):
        student, oracle = random_pair(1)
        cfg = DistillConfig(lam=0.0)
        high, low = partition_cells(oracle, cfg.gate)
        want = 0.0
        if high.any():
            want += np.mean((student[high] - oracle[high]) ** 2)
        if low.any():
            want += np.mean((student[low] - oracle[low]) ** 2)
        assert bounded_distill_loss(student, oracle, cfg) == pytest.approx(want)

    def test_two_cell_hand_case(self):
        # one confident cell off by 1 everywhere, one background cell off by 1:
        # confident term = 1, background term = (1 - 0.4)^2 = 0.36
        shape = GridShape(s=1, c=1)
        oracle = np.zeros((1, 2, shape.channels))  # 1x2 grid: one cell per partition
        oracle[0, 0, 0] = 10.0
        oracle[0, 1, 0] = -10.0
        student = oracle + 1.0
        cfg = DistillConfig(lam=0.4)
        high, low = partition_cells(oracle, cfg.gate)
        assert high.sum() == 1 and low.sum() == 1
        loss = bounded_distill_loss(student, oracle, cfg)
        assert loss == pytest.approx(1.0 + 0.36)

    @pytest.mark.parametrize("seed", range(10))
    def test_low_term_identity(self, seed):
        # mean over low cells of (s - blended-target)^2 == (1-lam)^2 * MSE_low
        student, oracle = random_pair(seed)
        lam = float(np.random.default_rng(seed).uniform(0, 1))
        cfg = DistillConfig(lam=lam)
        high, low = partition_cells(oracle, cfg.gate)
        target = compose_target(student, oracle, cfg)
        direct = np.mean((student[low] - target[low]) ** 2) if low.any() else 0.0
        identity = (1 - lam) ** 2 * (np.mean((student[low] - oracle[low]) ** 2) if low.any() else 0.0)
        assert abs(direct - identity) < 1e-10

    @given(seed=st.integers(0, 10_000), lam=st.floats(0, 1))
    @settings(max_examples=60)
    def test_nonnegative(self, seed, lam):
        student, oracle = random_pair(seed)
        assert bounded_distill_loss(student, oracle, DistillConfig(lam=lam)) >= 0.0

    def test_invariant_to_partition_preserving_permutation(self):
        student, oracle = random_pair(5)
        cfg = DistillConfig(lam=0.3)
        perm = np.random.default_rng(5).permutation(GRID.s)
        # permuting rows moves student and oracle cells together, so the
        # partition moves with them and the loss cannot change
        assert bounded_distill_loss(student[perm], oracle[perm], cfg) == pytest.approx(
            bounded_distill_loss(student, oracle, cfg))

    def test_all_high_or_all_low_edges(self):
        student, oracle = random_pair(6)
        oracle[:, :, 0] = 10.0
        cfg = DistillConfig(lam=0.4)
        want = np.mean((student - oracle) ** 2)
        assert bounded_distill_loss(student, oracle, cfg) == pytest.approx(want)
        oracle[:, :, 0] = -10.0
        want = 0.36 * np.mean((student - oracle) ** 2)
        assert bounded_distill_loss(student, oracle, cfg) == pytest.approx(want)


def step_gradient(params, feat, oracle, cfg, lr=1e-4):
    """The parameter gradient the real training step applies, read off one
    distill_step at a tiny learning rate as (params - new_params) / lr."""
    new_params, fb = distill_step(params, feat, oracle,
                                  DistillConfig(lam=cfg.lam, gate=cfg.gate, lr=lr,
                                                steps_per_event=1))
    assert fb.error is None
    return {name: (getattr(params, name) - getattr(new_params, name)) / lr
            for name in ("w1", "b1", "w2", "b2")}


class TestBoundedLossGrad:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences_through_tensor(self, seed):
        # one-hot cell features and an identity first layer give every cell
        # its own hidden unit, so row `cell` of the w2 gradient is
        # tanh(1) * dL/d(student[cell]): the output-tensor gradient the
        # training step uses, readable per element
        student, oracle = random_pair(seed, spread=1.0)
        cfg = DistillConfig(lam=0.4)
        n = GRID.s * GRID.s
        t = np.tanh(1.0)
        params = DecoderParams(w1=np.eye(n), b1=np.zeros(n),
                               w2=student.reshape(n, -1) / t, b2=np.zeros(GRID.channels))
        feat = np.eye(n).reshape(GRID.s, GRID.s, n)
        student = decoder_forward(params, feat)
        grad = (step_gradient(params, feat, oracle, cfg)["w2"] / t).reshape(student.shape)
        eps = 1e-5
        rng = np.random.default_rng(seed)
        for _ in range(20):
            r, c, ch = (rng.integers(GRID.s), rng.integers(GRID.s), rng.integers(GRID.channels))
            plus, minus = student.copy(), student.copy()
            plus[r, c, ch] += eps
            minus[r, c, ch] -= eps
            numeric = (bounded_distill_loss(plus, oracle, cfg)
                       - bounded_distill_loss(minus, oracle, cfg)) / (2 * eps)
            denom = max(abs(numeric), 1e-6)
            assert abs(grad[r, c, ch] - numeric) / denom < 1e-4


def make_det(cx, cy, w, h, class_id, conf):
    return Detection(Box(cx, cy, w, h), class_id, conf)


def make_gt(cx, cy, w, h, class_id, oid=0):
    return GroundTruthObject(Box(cx, cy, w, h), class_id, oid)


class TestPairLoss:
    def test_two_detection_case_matches_hand_matching(self):
        # det0 matches gt0 (same box, same class); det1 is unmatched
        dets = [make_det(0.5, 0.5, 0.2, 0.2, 0, 0.8),
                make_det(0.1, 0.8, 0.1, 0.1, 1, 0.4)]
        gt = [make_gt(0.5, 0.5, 0.2, 0.2, 0)]
        # against gt: matched pair (conf-1)^2 + box 0 + cls 0 -> 0.04; unmatched det 0.4^2
        want_gt = ((0.8 - 1.0) ** 2 + 0.4 ** 2) / 2
        got = _pair_loss(*match_detections(dets, gt, 0.5, class_aware=False))
        assert got == pytest.approx(want_gt)
        # against an empty list both detections are unmatched
        want_empty = (0.8 ** 2 + 0.4 ** 2) / 2
        got_empty = _pair_loss(*match_detections(dets, [], 0.5, class_aware=False))
        assert got_empty == pytest.approx(want_empty)


class TestNmsDistillLoss:
    def test_near_zero_when_student_equals_saturated_oracle(self):
        shape = GridShape(s=4, c=3)
        oracle = np.zeros((4, 4, shape.channels))
        oracle[:, :, 0] = -12.0
        gt = [make_gt(0.3, 0.3, 0.2, 0.2, 1), make_gt(0.72, 0.67, 0.15, 0.2, 2, 1)]
        for obj in gt:
            b = obj.box
            encode_objects(oracle, shape, [(b.cx, b.cy, b.w, b.h)], [obj.class_id], [12.0],
                           class_margin=12.0)
        student = oracle.copy()
        loss = nms_distill_loss(student, oracle, gt, shape)
        assert loss == pytest.approx(0.0, abs=1e-3)

    def test_empty_gt_and_oracle_penalizes_spurious_objectness(self):
        shape = GridShape(s=3, c=2)
        oracle = np.zeros((3, 3, shape.channels))
        oracle[:, :, 0] = -12.0
        student = oracle.copy()
        encode_objects(student, shape, [(0.5, 0.5, 0.2, 0.2)], [0], [6.0])
        loss = nms_distill_loss(student, oracle, [], shape)
        conf = sigmoid(6.0) * float(np.max([sigmoid(0.0)]))  # class prob ~ saturated
        dets = decode_tensor(student, shape, 0.5)
        assert len(dets) == 1
        # detection is unmatched against both empty lists: conf^2 in each term
        assert loss == pytest.approx(2 * dets[0].confidence ** 2)

    def test_more_targets_cost_more(self):
        # sanity check of the scaling direction; the real benchmark lives in
        # the evaluation module
        import time
        shape = GridShape(s=8, c=4)
        rng = np.random.default_rng(0)

        def build(n):
            cells = rng.choice(64, size=n, replace=False)
            gt = []
            t = np.zeros((8, 8, shape.channels))
            t[:, :, 0] = -12.0
            for i, cell in enumerate(cells):
                r, c = divmod(int(cell), 8)
                box = Box((c + 0.5) / 8, (r + 0.5) / 8, 0.1, 0.1)
                gt.append(make_gt(box.cx, box.cy, 0.1, 0.1, int(rng.integers(4)), i))
                encode_objects(t, shape, [(box.cx, box.cy, box.w, box.h)], [gt[-1].class_id], [8.0])
            return t, gt

        t1, gt1 = build(2)
        t50, gt50 = build(50)

        def timed(t, gt, reps=20):
            best = []
            for _ in range(reps):
                t0 = time.perf_counter()
                nms_distill_loss(t + 0.01, t, gt, shape)
                best.append(time.perf_counter() - t0)
            return np.median(best)

        timed(t1, gt1, reps=2)  # warm-up
        assert timed(t50, gt50) > timed(t1, gt1)


class TestDistillStep:
    GRID1 = GridShape(s=2, c=2)

    def _setup(self, seed=0):
        rng = np.random.default_rng(seed)
        params = init_decoder(4, 6, self.GRID1, seed=seed)
        feat = rng.normal(0, 1, size=(2, 2, 4))
        oracle = rng.normal(0, 1, size=(2, 2, self.GRID1.channels))
        return params, feat, oracle

    def test_student_equal_oracle_no_change(self):
        params, feat, _ = self._setup()
        oracle = decoder_forward(params, feat)
        cfg = DistillConfig(lam=0.4, lr=0.01, steps_per_event=5)
        new_params, fb = distill_step(params, feat, oracle, cfg)
        assert fb.loss_before == 0.0
        assert fb.delta_l == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(new_params.w1, params.w1)
        assert new_params.version == params.version + cfg.steps_per_event

    def test_loss_decreases_on_seeded_trials(self):
        cfg = DistillConfig(lam=0.4, lr=1e-2, steps_per_event=25)
        wins = 0
        for seed in range(100):
            params, feat, _ = self._setup(seed)
            rng = np.random.default_rng(1000 + seed)
            oracle = np.zeros((2, 2, self.GRID1.channels))
            oracle[:, :, 0] = rng.choice([-6.0, 4.0], size=(2, 2))
            oracle[:, :, 1:] = rng.normal(0, 2, size=(2, 2, self.GRID1.channels - 1))
            _, fb = distill_step(params, feat, oracle, cfg)
            wins += fb.loss_after < fb.loss_before
        assert wins >= 95

    def test_scalar_head_matches_closed_form_descent(self):
        # zero first layer: only b2 moves, each channel descends independently
        shape = GridShape(s=1, c=1)
        params = DecoderParams(
            w1=np.zeros((1, 1)), b1=np.zeros(1),
            w2=np.zeros((1, shape.channels)), b2=np.zeros(shape.channels),
        )
        feat = np.ones((1, 1, 1))
        oracle = np.full((1, 1, shape.channels), 2.0)  # one confident cell
        lr, n = 0.1, shape.channels
        cfg = DistillConfig(lam=0.4, lr=lr, steps_per_event=3)
        b = np.zeros(shape.channels)
        for _ in range(3):
            b = b - lr * 2.0 * (b - 2.0) / n
        new_params, fb = distill_step(params, feat, oracle, cfg)
        assert np.allclose(new_params.b2, b)
        assert np.allclose(new_params.w2, 0.0)
        assert fb.loss_before == pytest.approx(4.0)

    def test_non_finite_oracle_aborts_with_record(self):
        params, feat, oracle = self._setup()
        oracle[0, 0, 0] = np.nan
        new_params, fb = distill_step(params, feat, oracle, DistillConfig())
        assert fb.error is not None
        assert new_params is params

    def test_gradient_through_params_matches_finite_differences(self):
        params, feat, oracle = self._setup(3)
        cfg = DistillConfig(lam=0.4)
        analytic = step_gradient(params, feat, oracle, cfg)
        eps = 1e-5
        for name in ("w1", "b1", "w2", "b2"):
            base = getattr(params, name)
            num = np.zeros_like(base)
            it = np.nditer(base, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                for sign in (+1, -1):
                    pert = base.copy()
                    pert[idx] += sign * eps
                    p2 = DecoderParams(**{**{k: getattr(params, k)
                                             for k in ("w1", "b1", "w2", "b2")}, name: pert})
                    val = bounded_distill_loss(decoder_forward(p2, feat), oracle, cfg)
                    num[idx] += sign * val
                num[idx] /= 2 * eps
            a = analytic[name]
            denom = np.maximum(np.abs(num), 1e-6)
            assert np.max(np.abs(a - num) / denom) < 1e-4, name


class TestDistillConfig:
    @pytest.mark.parametrize("kwargs", [
        {"lam": -0.1}, {"lam": 1.1}, {"gate": 0.0}, {"gate": 1.0},
        {"lr": 0.0}, {"steps_per_event": 0},
    ])
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            DistillConfig(**kwargs)


# (seed, lam, steps_per_event, loss_before, loss_after, SHA-256 of w1|b1|w2|b2):
# exact values, so any change to the step's arithmetic or its order shows.
DISTILL_PINS = [
    (0, 0.0, 1, 9.636264255159382, 9.55290388864355, "6b418b6490ab016a83ee5e0953bccb2b20486140827a8147f78a5887a5591367"),
    (0, 0.0, 10, 9.636264255159382, 8.917349807134482, "f0d7e200fc05e3398529675810f70a64eca679403e84f4cb04a832a6a4970dc2"),
    (0, 0.4, 1, 6.2269232718483405, 6.164172586704993, "1fe15d7c953dd594da11239592ce7559d80be45764a34cf305b89675f4954d8c"),
    (0, 0.4, 10, 6.2269232718483405, 5.680655024398211, "f5c02ead7055a86e4a005c2d87aa8592d20d66719cfcc4ba3930a73bf2be1795"),
    (0, 1.0, 1, 4.3091689687358805, 4.226038504509162, "81afb6ce205a8033c6460eab178570d142881910951f03383e86c45b9b32c641"),
    (0, 1.0, 10, 4.3091689687358805, 3.565444331278174, "2d7f0b9eea4a20d29dc05613ac1b42b6fe3eb1089ab7b604ab2a5242e37d4ad5"),
    (1, 0.0, 1, 10.700795154122645, 10.617507187822532, "badd64b595a72e571800af414c90bb9978b1e02f959738775ebce3f0922a3dc0"),
    (1, 0.0, 10, 10.700795154122645, 10.004415990480974, "807dbec2faf7805a958848d0d38649bee86a47af5ee1572009c2c6ca6f1c264d"),
    (1, 0.4, 1, 6.868018096560378, 6.796864041952761, "c99fca6a3cd5c5915ee6b3d142925bb13ec0c8211297f4310e9fa49843797c8d"),
    (1, 0.4, 10, 6.868018096560378, 6.297416416832112, "6cf637edb58f9dd3303fabb360fbf3759ba0cd0a0b8cd9f6cd51a9e8c94879f6"),
    (1, 1.0, 1, 4.712081001681601, 4.613543105630905, "3a355e0e679d9b06fbed83386f3af49a7906b78a631f49c67c1ec616feda4dcf"),
    (1, 1.0, 10, 4.712081001681601, 3.888003522450853, "09db1d2d42ca91c9748bfb68c7df4a03a5f4923803c7c326fc7061778a83cff1"),
    (2, 0.0, 1, 9.705168275030415, 9.610500580536185, "bf6ed0fc1485ada3d1bcd6ee847b738be8450e99ca3cb496686ef0eac6a295db"),
    (2, 0.0, 10, 9.705168275030415, 8.89043597359106, "58cebae669711799df3699729bd183615d8aeb6f885c47c2c81e0bd09c56ab14"),
    (2, 0.4, 1, 6.147960026388461, 6.0976638512933015, "508be5594f21e596bb9acea47ac8262538f15ea01971c212cd0ee9b87a770049"),
    (2, 0.4, 10, 6.147960026388461, 5.702549703453816, "7e604017678f54f4dc18e43399c84e4c076cdffc1a768477aaa4fd3e6c4e1b4a"),
    (2, 1.0, 1, 4.147030386527361, 4.086976859325872, "d7b3b46c3a7d75c99e9116dd31df67683b6579dd0cce9fb353b1635559847ea7"),
    (2, 1.0, 10, 4.147030386527361, 3.6094478230390283, "ff77280a563ccdf2618dea8aa8848f78808a622ba9f28a9e98a1841ce1b261bb"),
]


class TestDistillStepPins:
    GRID6 = GridShape(s=6, c=4)

    @pytest.mark.parametrize("seed,lam,steps,loss_before,loss_after,digest", DISTILL_PINS)
    def test_bit_identical_to_pinned_values(self, seed, lam, steps, loss_before, loss_after, digest):
        rng = np.random.default_rng(seed)
        params = init_decoder(12, 32, self.GRID6, seed=seed)
        feat = rng.normal(0, 1, size=(6, 6, 12))
        oracle = rng.normal(0, 2, size=(6, 6, self.GRID6.channels))
        oracle[:, :, 0] = rng.choice([-4.0, 3.0], size=(6, 6))
        cfg = DistillConfig(lam=lam, lr=0.05, steps_per_event=steps)
        new_params, fb = distill_step(params, feat, oracle, cfg)
        got = hashlib.sha256(b"".join(getattr(new_params, n).tobytes()
                                      for n in ("w1", "b1", "w2", "b2"))).hexdigest()
        assert (fb.loss_before, fb.loss_after, got) == (loss_before, loss_after, digest)
        assert new_params.version == steps
