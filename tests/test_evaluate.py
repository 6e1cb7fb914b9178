"""Evaluation harness: matching, average precision, loss-cost benchmark,
key-frame histogram."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenedistill.detection import Box, Detection, GridShape, GroundTruthObject, iou
from scenedistill.evaluate import (
    EvalConfig,
    average_precision,
    bench_loss_cost,
    evaluate_frames,
    keyframe_histogram,
    match_detections,  # evaluation's name for detection.match_detections
)
from scenedistill.pipeline import PipelineReport


def det(cx, cy, w, h, cls, conf):
    return Detection(Box(cx, cy, w, h), cls, conf)


def gt(cx, cy, w, h, cls, oid=0):
    return GroundTruthObject(Box(cx, cy, w, h), cls, oid)


class TestMatchDetections:
    def test_perfect_detections_all_tp(self):
        objects = [gt(0.2, 0.2, 0.1, 0.1, 0, 0), gt(0.7, 0.7, 0.2, 0.2, 1, 1)]
        dets = [det(o.box.cx, o.box.cy, o.box.w, o.box.h, o.class_id, 0.9) for o in objects]
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
                if iou(dets[k].box, objects[j].box) >= 0.5 and dets[k].class_id == objects[j].class_id
            )
            best = max(best, score)
        assert sum(tp) == best == 3
        assert missed == []


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


class TestEvaluateFrames:
    def test_counts_and_f1(self):
        objects = [[gt(0.2, 0.2, 0.2, 0.2, 0, 0), gt(0.7, 0.7, 0.2, 0.2, 1, 1)]]
        dets = [[det(0.2, 0.2, 0.2, 0.2, 0, 0.9), det(0.4, 0.9, 0.1, 0.1, 0, 0.8)]]
        m = evaluate_frames(dets, objects, 0.5)
        assert (m.tp, m.fp, m.fn) == (1, 1, 1)
        assert m.precision == pytest.approx(0.5)
        assert m.recall == pytest.approx(0.5)
        assert m.f1 == pytest.approx(0.5)
        assert m.tp + m.fn == 2  # all ground truth accounted for

    def test_f1_zero_when_nothing_detected(self):
        m = evaluate_frames([[]], [[gt(0.5, 0.5, 0.2, 0.2, 0)]], 0.5)
        assert m.f1 == 0.0 and m.fn == 1

    def test_per_class_ap_and_mean(self):
        frames_gt = [[gt(0.2, 0.2, 0.2, 0.2, 0, 0)], [gt(0.7, 0.7, 0.2, 0.2, 1, 1)]]
        frames_dets = [[det(0.2, 0.2, 0.2, 0.2, 0, 0.9)], []]
        m = evaluate_frames(frames_dets, frames_gt, 0.5)
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
        m = evaluate_frames(frames_dets, frames_gt, 0.5)
        assert 0.0 <= m.precision <= 1.0
        assert 0.0 <= m.recall <= 1.0
        assert 0.0 <= m.f1 <= min(2 * m.precision, 2 * m.recall) + 1e-12
        assert m.tp + m.fn == sum(len(g) for g in frames_gt)


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

    def test_oracle_conf_defaults_to_conf(self):
        cfg = EvalConfig(conf_threshold=0.4)
        assert cfg.gt_conf == 0.4
        assert EvalConfig(conf_threshold=0.4, oracle_conf_threshold=0.2).gt_conf == 0.2
