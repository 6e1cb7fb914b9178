"""Detection core: IOU, decoding, NMS, cell partition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenedistill.detection import (
    LOGIT_CLIP,
    Box,
    Detection,
    GridShape,
    decode_tensor,
    decode_tensors,
    encode_objects,
    iou,
    iou_table,
    nms,
    partition_cells,
    sigmoid,
    softmax,
)

boxes = st.builds(
    Box,
    cx=st.floats(0.05, 0.95),
    cy=st.floats(0.05, 0.95),
    w=st.floats(0.01, 0.9),
    h=st.floats(0.01, 0.9),
)


class TestGridShape:
    def test_channels(self):
        assert GridShape(s=4, c=3).channels == 8
        assert GridShape(s=4, c=3).n_values == 4 * 4 * 8

    @pytest.mark.parametrize("s,c", [(0, 3), (4, 0), (-1, 2)])
    def test_rejects_bad_dims(self, s, c):
        with pytest.raises(ValueError):
            GridShape(s=s, c=c)


class TestIou:
    def test_identical_boxes(self):
        b = Box(0.5, 0.5, 0.2, 0.3)
        assert iou(b, b) == pytest.approx(1.0)

    def test_disjoint_boxes(self):
        assert iou(Box(0.2, 0.5, 0.1, 0.1), Box(0.8, 0.5, 0.1, 0.1)) == 0.0

    def test_partial_overlap_matches_area_arithmetic(self):
        # independent closed-form: overlap x = [0.5, 0.7], y = [0.3, 0.7]
        a = Box(0.5, 0.5, 0.4, 0.4)
        b = Box(0.7, 0.5, 0.4, 0.4)
        inter = 0.2 * 0.4
        union = 2 * 0.16 - inter
        assert iou(a, b) == pytest.approx(inter / union)
        assert iou(a, b) == pytest.approx(1.0 / 3.0)

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            Box(0.5, 0.5, 0.0, 0.1)

    @given(a=boxes, b=boxes)
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert v == pytest.approx(iou(b, a))
        assert 0.0 <= v <= 1.0 + 1e-12

    @given(a=boxes)
    def test_self_iou_is_one(self, a):
        assert iou(a, a) == pytest.approx(1.0)

    @given(a=boxes, b=boxes)
    def test_intersection_bounded_by_smaller_area(self, a, b):
        v = iou(a, b)
        inter = v / (1 + v) * (a.area + b.area) if v < 1 else min(a.area, b.area)
        assert inter <= min(a.area, b.area) + 1e-12


def brute_force_decode(tensor, shape, conf_threshold):
    """Independent per-cell decoder using scalar math only."""
    out = []
    for row in range(shape.s):
        for col in range(shape.s):
            cell = tensor[row, col]
            obj = 1.0 / (1.0 + math.exp(-cell[0]))
            logits = [float(v) for v in cell[5:]]
            m = max(logits)
            exps = [math.exp(v - m) for v in logits]
            total = sum(exps)
            probs = [e / total for e in exps]
            best = max(range(len(probs)), key=lambda i: probs[i])
            conf = obj * probs[best]
            if conf < conf_threshold:
                continue
            sig = lambda v: 1.0 / (1.0 + math.exp(-v))
            out.append(Detection(
                box=Box((col + sig(cell[1])) / shape.s, (row + sig(cell[2])) / shape.s,
                        sig(cell[3]), sig(cell[4])),
                class_id=best,
                confidence=conf,
            ))
    out.sort(key=lambda d: -d.confidence)
    return out


class TestIouTable:
    def test_table_rows_follow_detections_none_across_classes(self):
        dets = [Detection(Box(0.5, 0.5, 0.5, 0.5), 0, 0.9),
                Detection(Box(0.1, 0.1, 0.1, 0.1), 1, 0.8)]
        targets = [Detection(Box(0.5, 0.5, 0.5, 0.5), 0, 1.0)]
        assert iou_table(dets, targets) == [[1.0], [None]]
        assert iou_table(dets, targets, class_aware=False) == [[1.0], [0.0]]


class TestDecode:
    def test_all_zero_tensor_below_half_threshold(self):
        shape = GridShape(s=3, c=4)
        assert decode_tensor(np.zeros((shape.s, shape.s, shape.channels)), shape, 0.5) == []

    def test_saturated_single_cell(self):
        shape = GridShape(s=3, c=3)
        t = np.zeros((shape.s, shape.s, shape.channels))
        t[:, :, 0] = -10.0
        t[1, 2, 0] = 10.0
        t[1, 2, 5] = 10.0
        t[1, 2, 6:] = -10.0
        dets = decode_tensor(t, shape, 0.5)
        assert len(dets) == 1
        assert dets[0].class_id == 0
        assert dets[0].confidence == pytest.approx(1.0, abs=1e-3)

    def test_size_logit_that_underflows_decodes_at_the_clip(self):
        # sigmoid(-800) is 0.0 in float64; the size is floored where logit
        # clips, so a finite logit decodes to a valid box, not an error
        shape = GridShape(s=3, c=2)
        t = np.zeros((shape.s, shape.s, shape.channels))
        t[:, :, 0] = -10.0
        t[1, 1, 0] = 10.0
        t[1, 1, 3] = -800.0
        with np.errstate(over="ignore"):
            dets = decode_tensor(t, shape, 0.3)
        assert len(dets) == 1
        assert dets[0].box.w == LOGIT_CLIP
        assert dets[0].box.h == 0.5

    def test_matches_brute_force_on_random_tensor(self):
        shape = GridShape(s=4, c=5)
        rng = np.random.default_rng(0)
        t = rng.normal(0, 2, size=(4, 4, shape.channels))
        got = decode_tensor(t, shape, 0.2)
        want = brute_force_decode(t, shape, 0.2)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.class_id == w.class_id
            assert g.confidence == pytest.approx(w.confidence)
            assert g.box.cx == pytest.approx(w.box.cx)
            assert g.box.w == pytest.approx(w.box.w)

    @pytest.mark.parametrize("tensor_shape", [(4, 4, 7), (6, 6, 8), (6, 4, 9)])
    def test_rejects_tensor_not_matching_grid(self, tensor_shape):
        with pytest.raises(ValueError, match="does not match grid"):
            decode_tensor(np.zeros(tensor_shape), GridShape(s=6, c=4), 0.5)

    @pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("s,c", [(4, 3), (3, 1), (5, 9)])
    def test_stack_matches_one_tensor_at_a_time(self, s, c, threshold):
        shape = GridShape(s=s, c=c)
        rng = np.random.default_rng(s * 10 + c)
        stack = rng.normal(0, 3, size=(20, s, s, shape.channels))
        stack[3, :, :, 0] = stack[3, :, :, 5] = 80.0  # every cell of one tensor at confidence 1
        got = decode_tensors(stack, shape, threshold)
        assert got == [decode_tensor(t, shape, threshold) for t in stack]
        assert sum(map(len, got)) > 0

    def test_stack_of_none_and_wrong_grid(self):
        shape = GridShape(s=4, c=2)
        assert decode_tensors(np.zeros((0, 4, 4, 7)), shape, 0.5) == []
        with pytest.raises(ValueError, match="does not match grid"):
            decode_tensors(np.zeros((2, 4, 4, 8)), shape, 0.5)

    def test_output_sorted_by_confidence(self):
        shape = GridShape(s=4, c=2)
        rng = np.random.default_rng(1)
        t = rng.normal(0, 3, size=(4, 4, shape.channels))
        dets = decode_tensor(t, shape, 0.0)
        confs = [d.confidence for d in dets]
        assert confs == sorted(confs, reverse=True)

    def test_encode_decode_round_trip(self):
        shape = GridShape(s=5, c=3)
        t = np.zeros((shape.s, shape.s, shape.channels))
        t[:, :, 0] = -10.0
        box = Box(0.43, 0.61, 0.2, 0.35)
        encode_objects(t, shape, [(box.cx, box.cy, box.w, box.h)], [2], [10.0])
        dets = decode_tensor(t, shape, 0.5)
        assert len(dets) == 1
        d = dets[0]
        assert d.class_id == 2
        assert d.box.cx == pytest.approx(box.cx, abs=1e-6)
        assert d.box.cy == pytest.approx(box.cy, abs=1e-6)
        assert d.box.w == pytest.approx(box.w, abs=1e-6)
        assert d.box.h == pytest.approx(box.h, abs=1e-6)

    def test_batch_encode_matches_one_at_a_time_reference(self):
        shape = GridShape(s=4, c=3)

        def reference(tensor, box, class_id, obj_logit):
            # the per-object scalar encoder, written out
            s = shape.s
            col, row = min(int(box[0] * s), s - 1), min(int(box[1] * s), s - 1)
            tensor[row, col, 0] = obj_logit
            for k, p in enumerate((box[0] * s - col, box[1] * s - row, box[2], box[3]), start=1):
                p = np.clip(p, 1e-6, 1 - 1e-6)
                tensor[row, col, k] = np.log(p / (1.0 - p))
            tensor[row, col, 5:] = -4.0
            tensor[row, col, 5 + class_id] = 4.0

        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(0, 12))  # 12 boxes on 16 cells: shared cells are common
            boxes = [tuple(b) for b in rng.uniform(0.0, 1.0, size=(n, 4)).tolist()]
            classes = rng.integers(shape.c, size=n).tolist()
            logits = rng.normal(size=n).tolist()
            want = np.zeros((shape.s, shape.s, shape.channels))
            for args in zip(boxes, classes, logits):
                reference(want, *args)
            got = np.zeros((shape.s, shape.s, shape.channels))
            cells = encode_objects(got, shape, boxes, classes, logits)
            assert np.array_equal(got, want)  # later object wins a shared cell
            assert cells == [(min(int(b[1] * 4), 3), min(int(b[0] * 4), 3)) for b in boxes]

    def test_stack_encode_matches_frame_by_frame(self):
        # objects of three frames interleaved, many sharing a cell within a
        # frame and across frames
        shape = GridShape(s=3, c=2)
        rng = np.random.default_rng(6)
        boxes = [tuple(b) for b in rng.uniform(0.05, 0.95, size=(40, 4)).tolist()]
        classes = rng.integers(shape.c, size=40).tolist()
        logits = rng.normal(size=40).tolist()
        frames = rng.integers(3, size=40).tolist()
        want = np.zeros((3, shape.s, shape.s, shape.channels))
        for f in range(3):
            picked = [i for i in range(40) if frames[i] == f]
            encode_objects(want[f], shape, [boxes[i] for i in picked],
                           [classes[i] for i in picked], [logits[i] for i in picked])
        got = np.zeros((3, shape.s, shape.s, shape.channels))
        encode_objects(got, shape, boxes, classes, logits, frames=frames)
        assert np.array_equal(got, want)


def brute_force_nms(dets, iou_threshold):
    """O(n^2) reference: a detection survives iff no higher-confidence
    same-class survivor overlaps it beyond the threshold."""
    ordered = sorted(dets, key=lambda d: -d.confidence)
    survivors = []
    for d in ordered:
        ok = True
        for s in survivors:
            if s.class_id == d.class_id and iou(s.box, d.box) > iou_threshold:
                ok = False
                break
        if ok:
            survivors.append(d)
    return survivors


def random_detections(rng, n, n_classes=3):
    out = []
    for _ in range(n):
        out.append(Detection(
            box=Box(float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.2, 0.8)),
                    float(rng.uniform(0.05, 0.4)), float(rng.uniform(0.05, 0.4))),
            class_id=int(rng.integers(n_classes)),
            confidence=float(rng.uniform(0.1, 1.0)),
        ))
    return out


class TestNms:
    def test_empty(self):
        assert nms([], 0.5) == []

    def test_duplicate_suppressed(self):
        b = Box(0.5, 0.5, 0.2, 0.2)
        hi = Detection(b, 0, 0.9)
        lo = Detection(b, 0, 0.8)
        assert nms([lo, hi], 0.5) == [hi]

    def test_different_class_not_suppressed(self):
        b = Box(0.5, 0.5, 0.2, 0.2)
        out = nms([Detection(b, 0, 0.9), Detection(b, 1, 0.8)], 0.5)
        assert len(out) == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        dets = random_detections(rng, 20)
        assert nms(dets, 0.45) == brute_force_nms(dets, 0.45)

    @pytest.mark.parametrize("seed", range(3))
    def test_survivors_subset_and_separated(self, seed):
        rng = np.random.default_rng(100 + seed)
        dets = random_detections(rng, 30)
        out = nms(dets, 0.5)
        assert all(d in dets for d in out)
        for i, a in enumerate(out):
            for b in out[i + 1:]:
                if a.class_id == b.class_id:
                    assert iou(a.box, b.box) <= 0.5


class TestPartition:
    def test_all_low(self):
        shape = GridShape(s=4, c=2)
        t = np.zeros((shape.s, shape.s, shape.channels))
        t[:, :, 0] = -10.0
        high, low = partition_cells(t, 0.5)
        assert not high.any()
        assert low.all()

    def test_all_high(self):
        shape = GridShape(s=4, c=2)
        t = np.zeros((shape.s, shape.s, shape.channels))
        t[:, :, 0] = 10.0
        high, low = partition_cells(t, 0.5)
        assert high.all()
        assert not low.any()

    def test_matches_per_cell_scalar_check(self):
        shape = GridShape(s=5, c=2)
        rng = np.random.default_rng(3)
        t = rng.normal(0, 2, size=(5, 5, shape.channels))
        high, low = partition_cells(t, 0.37)
        for r in range(5):
            for c in range(5):
                expect = 1.0 / (1.0 + math.exp(-t[r, c, 0])) >= 0.37
                assert high[r, c] == expect
                assert low[r, c] == (not expect)

    @given(theta=st.floats(0.01, 0.99), seed=st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_masks_disjoint_and_exhaustive(self, theta, seed):
        shape = GridShape(s=4, c=2)
        rng = np.random.default_rng(seed)
        t = rng.normal(0, 3, size=(4, 4, shape.channels))
        high, low = partition_cells(t, theta)
        assert not (high & low).any()
        assert (high | low).all()

    def test_rejects_bad_theta(self):
        shape = GridShape(s=2, c=2)
        with pytest.raises(ValueError):
            partition_cells(np.zeros((shape.s, shape.s, shape.channels)), 0.0)


class TestActivations:
    @given(x=st.floats(-30, 30))
    def test_sigmoid_bounds(self, x):
        assert 0.0 < sigmoid(x) < 1.0

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 5, size=(3, 4))
        assert np.allclose(softmax(x, axis=-1).sum(axis=-1), 1.0)
