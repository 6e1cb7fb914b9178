"""Evaluation harness: matching, average precision, loss-cost benchmark,
key-frame histogram."""

import hashlib
import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scenedistill.evaluate as evaluate_module
from scenedistill.detection import (
    CONF_THRESHOLD,
    GridShape,
    decode_tensor,
    detections,
    iou,
)
from scenedistill.distill import DistillConfig
from scenedistill.evaluate import (
    EvalConfig,
    ThresholdMetrics,
    average_precision,
    bench_loss_cost,
    evaluate_frames,
    evaluate_report,
    evaluate_thresholds,
    ground_truth_for,
    keyframe_histogram,
    match_detections,  # evaluation's name for detection.match_detections
    sweep,
)
from scenedistill.pipeline import PipelineConfig, PipelineReport, run_pipeline
from scenedistill.simstream import (
    OracleNoiseSpec,
    SceneSpec,
    StreamConfig,
    generate_stream,
    oracle_for_frame,
)


def det(cx, cy, w, h, cls, conf):
    """A detection as the row [cx, cy, w, h, class, conf]."""
    return [cx, cy, w, h, cls, conf]


def gt(cx, cy, w, h, cls, oid=0):
    """A labelled object as the row [cx, cy, w, h, class, object_id]."""
    return [cx, cy, w, h, cls, oid]


def gt_rows(frames_gt):
    """Per-frame labelled objects as the (g, 6) arrays ground_truth_for
    returns."""
    return [np.array(objects, dtype=float).reshape(-1, 6) for objects in frames_gt]


def report_dets(frames_dets):
    """Per-frame detection rows as a report holds them, the form scoring reads."""
    return [detections(rows) for rows in frames_dets]


# Reference implementations: the greedy matcher, the precision envelope and
# the per-threshold scoring as written before they were batched.  The
# arithmetic is unchanged, so results must be equal, not close.

def reference_match(dets, targets, iou_threshold):
    order = sorted(range(len(dets)), key=lambda k: -dets[k][5])
    taken = [False] * len(targets)
    matches = []
    for k in order:
        best_j, best_iou = -1, iou_threshold
        for j, tgt in enumerate(targets):
            if taken[j] or tgt[4] != dets[k][4]:
                continue
            v = iou(dets[k], tgt)
            if v >= best_iou:
                best_j, best_iou = j, v
        if best_j >= 0:
            taken[best_j] = True
        matches.append((dets[k], targets[best_j] if best_j >= 0 else None))
    return matches, [t for j, t in enumerate(targets) if not taken[j]]


def reference_average_precision(tp_flags, n_gt):
    if n_gt == 0:
        return 1.0 if not tp_flags else 0.0
    if not tp_flags:
        return 0.0
    tp = np.cumsum(np.asarray(tp_flags, dtype=float))
    fp = np.cumsum(~np.asarray(tp_flags, dtype=bool))
    recall = tp / n_gt
    precision = tp / (tp + fp)
    mrec = np.concatenate([[0.0], recall, [recall[-1]]])
    mpre = np.concatenate([[0.0], precision, [0.0]])
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    idx = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[idx + 1] - mrec[idx]) * mpre[idx + 1]))


def reference_evaluate_frames(per_frame_dets, per_frame_gt, iou_threshold):
    scored = []  # (confidence, is_tp, class_id)
    n_gt_per_class = {}
    fn_total = 0
    for dets, objects in zip(per_frame_dets, per_frame_gt):
        for obj in objects:
            n_gt_per_class[obj[4]] = n_gt_per_class.get(obj[4], 0) + 1
        matches, missed = reference_match(dets, objects, iou_threshold)
        fn_total += len(missed)
        scored.extend((d[5], tgt is not None, d[4]) for d, tgt in matches)
    tp_total = sum(1 for _, flag, _ in scored if flag)
    fp_total = len(scored) - tp_total
    precision = tp_total / (tp_total + fp_total) if scored else 0.0
    recall = tp_total / (tp_total + fn_total) if tp_total + fn_total else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    ap_per_class = {}
    for cls, n_gt in sorted(n_gt_per_class.items()):
        flags = [flag for conf, flag, c in sorted(scored, key=lambda r: -r[0]) if c == cls]
        ap_per_class[cls] = reference_average_precision(flags, n_gt)
    mean_ap = float(np.mean(list(ap_per_class.values()))) if ap_per_class else 0.0
    return ThresholdMetrics(
        iou=iou_threshold, tp=tp_total, fp=fp_total, fn=fn_total,
        precision=precision, recall=recall, f1=f1,
        ap_per_class=ap_per_class, mean_ap=mean_ap,
    )


# few distinct values, so equal confidences and equal IOUs (duplicate or
# mirrored boxes) come up often
coords = st.sampled_from([0.3, 0.35, 0.4, 0.45, 0.5])
sizes = st.sampled_from([0.1, 0.2])
frame_dets = st.lists(st.builds(det, coords, coords, sizes, sizes, st.integers(0, 1),
                                st.sampled_from([0.3, 0.6, 0.9])), max_size=6)
frame_gt = st.lists(st.builds(gt, coords, coords, sizes, sizes, st.integers(0, 1)), max_size=5)


class TestMatchDetections:
    def test_perfect_detections_all_tp(self):
        objects = [gt(0.2, 0.2, 0.1, 0.1, 0, 0), gt(0.7, 0.7, 0.2, 0.2, 1, 1)]
        dets = [det(*o[:5], 0.9) for o in objects]
        matches, missed = match_detections(dets, objects, 0.5)
        assert matches == list(zip(dets, objects))
        assert missed == []

    def test_empty_detections_all_fn(self):
        objects = [gt(0.2, 0.2, 0.1, 0.1, 0), gt(0.7, 0.7, 0.2, 0.2, 1, 1)]
        matches, missed = match_detections([], objects, 0.5)
        assert matches == []
        assert missed == objects

    def test_class_mismatch_is_fp(self):
        objects = [gt(0.5, 0.5, 0.2, 0.2, 0)]
        dets = [det(0.5, 0.5, 0.2, 0.2, 1, 0.9)]
        matches, missed = match_detections(dets, objects, 0.5)
        assert matches == [(dets[0], None)] and missed == objects

    def test_class_agnostic_matches_across_classes(self):
        objects = [gt(0.5, 0.5, 0.2, 0.2, 0)]
        dets = [det(0.5, 0.5, 0.2, 0.2, 1, 0.9)]
        matches, missed = match_detections(dets, objects, 0.5, class_aware=False)
        assert matches == [(dets[0], objects[0])] and missed == []

    def test_double_detection_one_tp_one_fp(self):
        objects = [gt(0.5, 0.5, 0.2, 0.2, 0)]
        dets = [det(0.5, 0.5, 0.21, 0.2, 0, 0.7), det(0.5, 0.5, 0.2, 0.2, 0, 0.9)]
        matches, missed = match_detections(dets, objects, 0.5)
        # the more confident detection comes first and takes the object
        assert matches == [(dets[1], objects[0]), (dets[0], None)]
        assert missed == []

    def test_greedy_matches_optimal_assignment_on_small_case(self):
        # 5 detections, 3 objects, all same class, well-separated overlaps:
        # exhaustive search over assignments gives the matching max TP count
        objects = [gt(0.2, 0.2, 0.2, 0.2, 0, 0),
                   gt(0.5, 0.5, 0.2, 0.2, 0, 1),
                   gt(0.8, 0.8, 0.2, 0.2, 0, 2)]
        dets = [
            det(0.21, 0.2, 0.2, 0.2, 0, 0.95),
            det(0.5, 0.52, 0.2, 0.2, 0, 0.9),
            det(0.79, 0.8, 0.2, 0.2, 0, 0.85),
            det(0.23, 0.22, 0.2, 0.2, 0, 0.5),
            det(0.1, 0.9, 0.1, 0.1, 0, 0.4),
        ]
        matches, missed = match_detections(dets, objects, 0.5)
        tp = [tgt is not None for _, tgt in matches]

        best = 0
        for perm in itertools.permutations(range(len(dets)), len(objects)):
            score = sum(
                1 for j, k in enumerate(perm)
                if iou(dets[k], objects[j]) >= 0.5
                and dets[k][4] == objects[j][4]
            )
            best = max(best, score)
        assert sum(tp) == best == 3
        assert missed == []

    def test_equal_iou_later_target_wins(self):
        objects = [gt(0.5, 0.5, 0.2, 0.2, 0, 0), gt(0.5, 0.5, 0.2, 0.2, 0, 1)]
        dets = [det(0.52, 0.5, 0.2, 0.2, 0, 0.9)]
        matches, missed = match_detections(dets, objects, 0.5)
        assert matches[0][1] is objects[1]
        assert missed == [objects[0]]

    def test_match_exactly_at_threshold(self):
        objects = [gt(0.5, 0.5, 0.2, 0.2, 0)]
        dets = [det(0.55, 0.47, 0.2, 0.25, 0, 0.9)]
        v = iou(dets[0], objects[0])
        assert 0.0 < v < 1.0
        assert match_detections(dets, objects, v) == ([(dets[0], objects[0])], [])
        above = math.nextafter(v, 1.0)
        assert match_detections(dets, objects, above) == ([(dets[0], None)], objects)

    @given(frame_dets, frame_gt, st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_loop(self, dets, objects, thr):
        assert match_detections(dets, objects, thr) == reference_match(dets, objects, thr)


class TestAveragePrecision:
    def test_all_tp_is_one(self):
        assert average_precision([True, True, True], 3) == pytest.approx(1.0)

    def test_all_fp_is_zero(self):
        assert average_precision([False, False], 2) == 0.0

    def test_hand_computed_envelope(self):
        # flags [TP, FP, TP] with 2 objects:
        # recall 0.5 at precision 1, recall 1.0 at precision 2/3
        assert average_precision([True, False, True], 2) == pytest.approx(0.5 * 1.0 + 0.5 * (2 / 3))
        assert average_precision([True, False, True], 2) == pytest.approx(5 / 6)

    def test_no_gt_conventions(self):
        assert average_precision([], 0) == 1.0
        assert average_precision([False], 0) == 0.0

    def test_injecting_top_fps_never_raises_ap(self):
        flags = [True, True, False, True]
        baseline = average_precision(flags, 3)
        cur = flags
        for _ in range(5):
            cur = [False] + cur
            nxt = average_precision(cur, 3)
            assert nxt <= baseline + 1e-12
            baseline = nxt

    @given(st.lists(st.booleans(), max_size=30), st.integers(0, 40))
    @settings(max_examples=100)
    def test_bounded(self, flags, extra_gt):
        n_gt = sum(flags) + extra_gt
        v = average_precision(flags, n_gt)
        assert 0.0 <= v <= 1.0
        assert v == reference_average_precision(flags, n_gt)


class TestEvaluateFrames:
    def test_counts_and_f1(self):
        objects = [[gt(0.2, 0.2, 0.2, 0.2, 0, 0), gt(0.7, 0.7, 0.2, 0.2, 1, 1)]]
        dets = [[det(0.2, 0.2, 0.2, 0.2, 0, 0.9), det(0.4, 0.9, 0.1, 0.1, 0, 0.8)]]
        m = evaluate_frames(report_dets(dets), gt_rows(objects), 0.5)
        assert (m.tp, m.fp, m.fn) == (1, 1, 1)
        assert m.precision == pytest.approx(0.5)
        assert m.recall == pytest.approx(0.5)
        assert m.f1 == pytest.approx(0.5)
        assert m.tp + m.fn == 2  # all ground truth accounted for

    def test_f1_zero_when_nothing_detected(self):
        m = evaluate_frames([[]], gt_rows([[gt(0.5, 0.5, 0.2, 0.2, 0)]]), 0.5)
        assert m.f1 == 0.0 and m.fn == 1

    def test_per_class_ap_and_mean(self):
        frames_gt = [[gt(0.2, 0.2, 0.2, 0.2, 0, 0)], [gt(0.7, 0.7, 0.2, 0.2, 1, 1)]]
        frames_dets = [[det(0.2, 0.2, 0.2, 0.2, 0, 0.9)], []]
        m = evaluate_frames(report_dets(frames_dets), gt_rows(frames_gt), 0.5)
        assert m.ap_per_class[0] == pytest.approx(1.0)
        assert m.ap_per_class[1] == 0.0
        assert m.mean_ap == pytest.approx(0.5)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_metric_bounds(self, seed):
        rng = np.random.default_rng(seed)
        frames_dets, frames_gt = [], []
        for _ in range(3):
            frames_gt.append([
                gt(float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.2, 0.8)),
                   0.2, 0.2, int(rng.integers(2)), int(rng.integers(1000)))
                for _ in range(rng.integers(0, 4))
            ])
            frames_dets.append([
                det(float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.2, 0.8)),
                    0.2, 0.2, int(rng.integers(2)), float(rng.uniform(0.1, 1)))
                for _ in range(rng.integers(0, 4))
            ])
        m = evaluate_frames(report_dets(frames_dets), gt_rows(frames_gt), 0.5)
        assert 0.0 <= m.precision <= 1.0
        assert 0.0 <= m.recall <= 1.0
        assert 0.0 <= m.f1 <= min(2 * m.precision, 2 * m.recall) + 1e-12
        assert m.tp + m.fn == sum(len(g) for g in frames_gt)


class TestEvaluateThresholds:
    @given(st.lists(st.tuples(frame_dets, frame_gt), max_size=5),
           st.lists(st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 0.6, 0.75, 1.0]),
                    min_size=1, max_size=4, unique=True))
    @settings(max_examples=200, deadline=None)
    def test_equals_per_threshold_reference(self, frames, thresholds):
        dets = [d for d, _ in frames]
        objects = [g for _, g in frames]
        got = [m.to_dict()
               for m in evaluate_thresholds(report_dets(dets), gt_rows(objects), thresholds)]
        want = [reference_evaluate_frames(dets, objects, thr).to_dict() for thr in thresholds]
        assert got == want
        assert [evaluate_frames(report_dets(dets), gt_rows(objects), thr).to_dict()
                for thr in thresholds] == want


class TestArrayScoringMatchesReference:
    """evaluate_thresholds, which scores rows and takes the IOUs of a block of
    frames in one pass, against the object-by-object reference on every
    summary field.  Coordinates are multiples of 1/16, so boxes touch at an
    edge (iw == 0) and products cancel exactly."""

    @staticmethod
    def assert_same(dets, objects, thresholds):
        want = [reference_evaluate_frames(dets, objects, thr).to_dict() for thr in thresholds]
        got = evaluate_thresholds(report_dets(dets), gt_rows(objects), thresholds)
        assert [m.to_dict() for m in got] == want

    def test_edge_cases(self):
        # touching at an edge, iw == 0: IOU 0.0, accepted by no threshold above 0
        touching = ([det(0.25, 0.5, 0.25, 0.25, 0, 0.9)], [gt(0.5, 0.5, 0.25, 0.25, 0)])
        # disjoint with iw == ih == -0.25: iw * ih is exactly the two areas'
        # sum, 2 * 0.25 * 0.125, so the unclamped union would be 0
        cancelling = ([det(0.25, 0.25, 0.25, 0.125, 1, 0.8)],
                      [gt(0.75, 0.625, 0.25, 0.125, 1)])
        mismatch = ([det(0.5, 0.5, 0.25, 0.25, 2, 0.7)], [gt(0.5, 0.5, 0.25, 0.25, 0)])
        # two targets at equal IOU: the later one is taken
        tie = ([det(0.5, 0.5, 0.25, 0.25, 0, 0.6)],
               [gt(0.4375, 0.5, 0.25, 0.25, 0, 0), gt(0.5625, 0.5, 0.25, 0.25, 0, 1)])
        no_gt = ([det(0.5, 0.5, 0.25, 0.25, 0, 0.6)], [])
        no_dets = ([], [gt(0.5, 0.5, 0.25, 0.25, 1)])
        frames = [touching, cancelling, mismatch, tie, no_gt, no_dets, ([], [])]
        dets, objects = [f[0] for f in frames], [f[1] for f in frames]
        self.assert_same(dets, objects, (0.0, 0.25, 0.5, 0.75, 1.0))
        m = evaluate_thresholds(report_dets(dets), gt_rows(objects), (0.5,))[0]
        assert (m.tp, m.fp, m.fn) == (1, 4, 5)

    def test_thresholds_at_exact_pair_ious(self):
        # a threshold equal to a pair's scalar IOU takes the pair and the next
        # float above it does not, so the array IOUs must carry iou's bits
        rng = np.random.default_rng(11)
        dets, objects, thresholds = [], [], []
        for _ in range(40):
            d = det(*rng.uniform(0.3, 0.7, 2).tolist(), *rng.uniform(0.1, 0.4, 2).tolist(), 0, 0.9)
            o = gt(*rng.uniform(0.3, 0.7, 2).tolist(), *rng.uniform(0.1, 0.4, 2).tolist(), 0)
            v = iou(d, o)
            if 0.0 < v < 1.0:
                thresholds += [v, math.nextafter(v, 1.0)]
            dets.append([d])
            objects.append([o])
        assert len(thresholds) > 20
        self.assert_same(dets, objects, thresholds)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_frames(self, seed):
        # up to 80 frames: several GT_BLOCK_FRAMES blocks, the last one partial
        rng = np.random.default_rng(seed)
        sixteenths = np.arange(1, 16) / 16

        def boxes(k):
            return zip(rng.choice(sixteenths, k).tolist(), rng.choice(sixteenths, k).tolist(),
                       rng.choice([0.125, 0.25, 0.5], k).tolist(),
                       rng.choice([0.125, 0.25, 0.5], k).tolist(), rng.integers(0, 3, k).tolist())

        dets, objects = [], []
        for _ in range(int(rng.integers(1, 80))):
            confs = rng.choice([0.55, 0.7, 0.9], 6).tolist()
            dets.append([det(*b, conf) for b, conf in zip(boxes(int(rng.integers(0, 6))), confs)])
            objects.append([gt(*b) for b in boxes(int(rng.integers(0, 5)))])
        self.assert_same(dets, objects, (0.0, 1 / 3, 0.5, 0.6, 0.75, 1.0))


PIN_GRID = GridShape(s=6, c=4)
PIN_NOISE = OracleNoiseSpec(empty_cell_noise_rate=0.15, noise_logit_range=(-2.0, -0.4),
                            box_jitter_sigma=0.002, noise_wobble=0.02, class_flip_prob=0.02)


def pin_run(seed, n_frames=300):
    """An adapting sequential run on a fixed four-scene stream."""
    scenes = [SceneSpec(i, tuple(0.7 if j == i else 0.1 for j in range(4)),
                        motion_sigma=0.004, duration_range=(60, 90)) for i in range(4)]
    stream = generate_stream(scenes, n_frames,
                             StreamConfig(grid=PIN_GRID, feature_dim=12, transition_len=4), seed)
    cfg = PipelineConfig(seed=0, oracle_seed=seed, mode="sequential", selector="adaptive",
                         distill=DistillConfig(lam=0.4, lr=0.05, steps_per_event=10),
                         oracle_noise=PIN_NOISE, decoder_hidden=32)
    return stream, run_pipeline(stream, PIN_GRID, cfg)


class TestEvaluateReportPins:
    """SHA-256 of evaluate_report's summary (about 900 detections per run),
    taken when each scene got one oracle noise layout and each frame a
    counter-keyed generator: the run trains on the noisy oracle, so both
    ground-truth sources move with it."""

    @pytest.mark.parametrize("seed,gt_source,digest", [
        (21, "true_gt", "fb24babbc9cec8fe857eea41afc7f9908548bd786453854918af4dc465787603"),
        (21, "oracle_as_gt", "84c26f2e9c0b27490856a2047aef962c1e2ece031ed629eccd598b5a2efdc9eb"),
        (22, "true_gt", "b49922c8b3ecc4e1d2b3c772209b970316c58e90157547db964d0e706c2e3937"),
        (22, "oracle_as_gt", "caf7af270ecb21b22b345049aa6a3469a92fa6072d80154242175e6de393e897"),
    ], ids=["21-true_gt", "21-oracle_as_gt", "22-true_gt", "22-oracle_as_gt"])
    def test_summary_matches_pinned_digest(self, seed, gt_source, digest):
        stream, report = pin_run(seed)
        summary = evaluate_report(report, stream, PIN_GRID,
                                  EvalConfig(gt_source=gt_source, iou_thresholds=(0.5, 0.6, 0.75)),
                                  PIN_NOISE, seed)
        blob = json.dumps(summary.to_dict(), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == digest


class TestEvaluateReportLength:
    def test_longer_report_rejected_shorter_scores_prefix(self):
        stream, report = pin_run(23, n_frames=60)
        eval_cfg = EvalConfig(gt_source="true_gt")
        prefix = evaluate_report(report, stream[:60], PIN_GRID, eval_cfg, PIN_NOISE, 23)
        # the same 60 frames as the start of a longer stream score the same
        longer_stream = stream + stream
        assert evaluate_report(report, longer_stream, PIN_GRID, eval_cfg, PIN_NOISE, 23) == prefix
        with pytest.raises(ValueError, match="60 frames .* only 30"):
            evaluate_report(report, stream[:30], PIN_GRID, eval_cfg, PIN_NOISE, 23)


def reference_ground_truth(stream, grid, noise, seed):
    """oracle_as_gt ground truth built one frame at a time, as
    [cx, cy, w, h, class, conf] rows."""
    return [decode_tensor(oracle_for_frame(rec, noise, grid, seed), CONF_THRESHOLD)
            for rec in stream]


class TestGroundTruthFor:
    def test_blocks_equal_frame_by_frame_reference(self):
        n = 2 * evaluate_module.GT_BLOCK_FRAMES + 5  # a partial last block
        scenes = [SceneSpec(i, tuple(0.7 if j == i else 0.1 for j in range(4)),
                            motion_sigma=0.01, duration_range=(20, 40)) for i in range(4)]
        stream = generate_stream(scenes, n, StreamConfig(grid=PIN_GRID, feature_dim=6), seed=4)
        for rec in stream[::9]:
            rec.oracle_tensor = oracle_for_frame(rec, OracleNoiseSpec(empty_cell_noise_rate=0.5),
                                                 PIN_GRID, 1)
        eval_cfg = EvalConfig(gt_source="oracle_as_gt")
        got = ground_truth_for(stream, PIN_GRID, eval_cfg, PIN_NOISE, 4)
        assert all(g.shape == (len(g), 6) for g in got)
        assert [g.tolist() for g in got] == reference_ground_truth(stream, PIN_GRID, PIN_NOISE, 4)
        assert len(got) == n

    def test_empty_stream(self):
        assert ground_truth_for([], PIN_GRID, EvalConfig(gt_source="oracle_as_gt"), PIN_NOISE) == []

    def test_true_gt_is_the_records_own_rows(self):
        stream, _ = pin_run(23, n_frames=40)
        got = ground_truth_for(stream, PIN_GRID, EvalConfig(gt_source="true_gt"))
        assert len(got) == len(stream)
        assert all(rows is rec.gt for rows, rec in zip(got, stream))


class TestSweep:
    PIPE = PipelineConfig(seed=0, oracle_seed=5, mode="sequential", selector="adaptive",
                          distill=DistillConfig(lam=0.4, lr=0.05, steps_per_event=2),
                          oracle_noise=PIN_NOISE, decoder_hidden=16)

    def test_ground_truth_built_once_per_oracle_rows_match_reference(self, monkeypatch):
        stream, _ = pin_run(5, n_frames=60)
        pipe = self.PIPE
        eval_cfg = EvalConfig(gt_source="oracle_as_gt")
        variants = {
            "lam=0": replace(pipe, distill=replace(pipe.distill, lam=0.0)),
            "lam=1": replace(pipe, distill=replace(pipe.distill, lam=1.0)),
            "frozen": replace(pipe, mode="frozen_student"),
            "oracle seed 6": replace(pipe, oracle_seed=6),
            "mixed": replace(pipe, mode="mixed", p_oracle=0.3),
        }
        want = []
        for name, cfg in variants.items():
            report = run_pipeline(stream, PIN_GRID, cfg)
            gt = ground_truth_for(stream, PIN_GRID, eval_cfg, PIN_NOISE, cfg.oracle_seed)
            row = {"variant": name, "key_frames": report.n_key_frames,
                   "key_fraction": report.key_fraction,
                   "oracle_answer_fraction": report.oracle_answer_fraction}
            for m in evaluate_thresholds(report.detections, gt, eval_cfg.iou_thresholds):
                row.update({f"ap@{m.iou:g}": m.mean_ap, f"f1@{m.iou:g}": m.f1,
                            f"tp@{m.iou:g}": m.tp, f"fp@{m.iou:g}": m.fp})
            want.append(row)
        assert want[2]["key_frames"] == 0 < want[0]["key_frames"]
        # mixed never trains, but the oracle answers some of its frames
        assert want[4]["key_frames"] == 0 < want[4]["oracle_answer_fraction"] < 1
        assert want[0]["oracle_answer_fraction"] == 0

        calls = []
        real = evaluate_module.ground_truth_for
        monkeypatch.setattr(evaluate_module, "ground_truth_for",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        rows = sweep(stream, PIN_GRID, variants, eval_cfg)
        assert [{k: v for k, v in r.items() if k != "fps"} for r in rows] == want
        assert all(r["fps"] > 0 for r in rows)
        assert len(calls) == 2  # oracle seeds 5 and 6

    def test_stopped_run_raises(self, monkeypatch):
        stream, _ = pin_run(5, n_frames=10)

        def stopped(*args):
            report = run_pipeline(*args)
            report.error = "frame 3: non-finite loss"
            return report

        monkeypatch.setattr(evaluate_module, "run_pipeline", stopped)
        with pytest.raises(RuntimeError, match="'bad' stopped: frame 3: non-finite loss"):
            sweep(stream, PIN_GRID, {"bad": self.PIPE}, EvalConfig())


class TestBenchLossCost:
    def test_table_shape_and_zero_targets_ok(self):
        rows = bench_loss_cost([0, 1, 5], trials=3, grid=GridShape(s=8, c=4), seed=0)
        assert [r["n_targets"] for r in rows] == [0, 1, 5]
        for r in rows:
            assert np.isfinite(r["bounded_ms"]) and np.isfinite(r["nms_ms"])

    def test_too_many_targets_rejected(self):
        with pytest.raises(ValueError):
            bench_loss_cost([100], trials=3, grid=GridShape(s=4, c=2))

    def test_nms_cost_grows_with_targets(self):
        rows = bench_loss_cost([1, 25], trials=15, grid=GridShape(s=8, c=4), seed=1)
        assert rows[1]["nms_ms"] > rows[0]["nms_ms"]


def report_with_decisions(flags):
    return PipelineReport(
        mode="sequential", selector="adaptive", n_frames=len(flags), fps=1.0,
        key_fraction=sum(flags) / len(flags),
        decisions=[{"frame_id": i, "train": bool(f), "lstm_vote": False,
                    "random_vote": False, "suppressed": False, "p": 0.0}
                   for i, f in enumerate(flags)],
        latencies=[0.0] * len(flags), feedbacks=[], detections=[[] for _ in flags],
        versions=[0] * len(flags),
    )


class TestKeyframeHistogram:
    def test_all_positive_bins_full(self):
        report = report_with_decisions([1] * 50)
        assert keyframe_histogram(report, 10) == [10] * 5

    def test_random_selector_histogram_is_flat(self):
        rng = np.random.default_rng(0)
        p, bin_size = 0.3, 100
        flags = (rng.random(10_000) < p).astype(int).tolist()
        counts = keyframe_histogram(report_with_decisions(flags), bin_size)
        sigma = np.sqrt(bin_size * p * (1 - p))
        assert all(abs(c - p * bin_size) <= 4 * sigma for c in counts)

    def test_ragged_tail_bin(self):
        report = report_with_decisions([1] * 25)
        assert keyframe_histogram(report, 10) == [10, 10, 5]

    def test_rejects_bad_bin(self):
        with pytest.raises(ValueError):
            keyframe_histogram(report_with_decisions([1]), 0)


class TestEvalConfig:
    def test_rejects_unknown_source(self):
        with pytest.raises(ValueError):
            EvalConfig(gt_source="fantasy")

    def test_rejects_unsorted_thresholds(self):
        with pytest.raises(ValueError):
            EvalConfig(iou_thresholds=(0.6, 0.5))
