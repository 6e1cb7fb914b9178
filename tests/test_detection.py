"""Detection core: IOU, decoding, NMS, cell partition, the number checker."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenedistill.detection import (
    CONF_THRESHOLD,
    LOGIT_CLIP,
    NMS_IOU,
    Box,
    Detection,
    GridShape,
    NonFinite,
    check_number,
    check_numbers,
    decode_tensor,
    decode_tensors,
    detection_rows,
    detections,
    encode_objects,
    iou,
    iou_table,
    nms,
    partition_cells,
    rank_match,
    sigmoid,
    softmax,
)
from scenedistill.distill import DistillConfig
from scenedistill.evaluate import EvalConfig
from scenedistill.pipeline import PipelineConfig
from scenedistill.selector import SelectorConfig
from scenedistill.simstream import OracleNoiseSpec, SceneSpec, StreamConfig

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


NAN, INF = float("nan"), float("inf")
SMALL_GRID = GridShape(s=4, c=3)
# each config class built from its defaults and these required fields
CONFIG_BASES = {
    GridShape: {"s": 4, "c": 3},
    SceneSpec: {"scene_id": 0, "class_probs": (0.5, 0.5)},
    StreamConfig: {"grid": SMALL_GRID},
    OracleNoiseSpec: {}, DistillConfig: {}, SelectorConfig: {}, PipelineConfig: {}, EvalConfig: {},
}


def build(cls, **kwargs):
    return cls(**{**CONFIG_BASES[cls], **kwargs})


class TestCheckNumber:
    # every value here was once accepted: it ran with changed or meaningless
    # output, or failed inside the run instead of as a config error
    @pytest.mark.parametrize("cls,field,value", [
        (PipelineConfig, "period", 1.5), (PipelineConfig, "period", True),
        (SelectorConfig, "tau", 1.5), (SelectorConfig, "sigma", NAN),
        (PipelineConfig, "change_threshold", NAN), (OracleNoiseSpec, "box_jitter_sigma", NAN),
        (OracleNoiseSpec, "noise_wobble", NAN), (StreamConfig, "transition_len", 2.5),
        (PipelineConfig, "queue_capacity", 2.5), (PipelineConfig, "oracle_delay", NAN),
        (DistillConfig, "steps_per_event", True), (SceneSpec, "scene_id", 0.5),
        (SceneSpec, "scene_id", -1), (PipelineConfig, "seed", 1.5),
        (PipelineConfig, "seed", 2 ** 64), (GridShape, "s", 6.0), (DistillConfig, "lr", NAN),
        (DistillConfig, "lr", INF), (PipelineConfig, "oracle_delay", INF),
        (SceneSpec, "class_probs", (NAN, 0.5, 0.5)),
        (OracleNoiseSpec, "noise_logit_range", (NAN, -1.0)),
        (PipelineConfig, "decoder_hidden", 2.5), (StreamConfig, "feature_dim", 2.5),
    ])
    def test_bad_value_names_its_field(self, cls, field, value):
        with pytest.raises(ValueError, match=rf"^{field}\b"):
            build(cls, **{field: value})

    def test_numpy_scalars_are_numbers_but_numpy_booleans_are_not(self):
        build(DistillConfig, lam=np.float64(0.4), steps_per_event=np.int64(5))
        build(SceneSpec, scene_id=np.int64(3), class_probs=(np.float64(0.25), np.float64(0.75)))
        build(PipelineConfig, seed=np.uint64(2 ** 64 - 1), oracle_delay=np.float32(0.5))
        # a bound taken from another field is that field's exact value
        build(SelectorConfig, p_min=np.float32(0.7), p_init=np.float32(0.7))
        for field in ("lam", "steps_per_event"):
            with pytest.raises(ValueError, match=field):
                build(DistillConfig, **{field: np.bool_(True)})

    @pytest.mark.parametrize("cls", list(CONFIG_BASES), ids=lambda cls: cls.__name__)
    def test_every_numeric_field_rejects_booleans_and_nan(self, cls):
        # a numeric field added without a check fails here; the error must name
        # the field (or this element of it) and the bad value, so a later check
        # that trips over the value, or one of another element, does not count
        base = build(cls)
        numeric = [f.name for f in dataclasses.fields(cls)
                   if re.search(r"\b(int|float)\b", str(f.type))]
        assert numeric
        for name in numeric:
            value = getattr(base, name)
            for bad in (True, NAN):
                if isinstance(value, tuple):
                    for i in range(len(value)):
                        with pytest.raises(ValueError, match=rf"^{name}(\[{i}\])? {bad!r} "):
                            build(cls, **{name: value[:i] + (bad,) + value[i + 1:]})
                else:
                    with pytest.raises(ValueError, match=rf"^{name} {bad!r} "):
                        build(cls, **{name: bad})

    @pytest.mark.parametrize("value,interval,integer,message", [
        (2 ** 64, f"[0, {2 ** 64})", True, f"x {2 ** 64} is not an integer in [0, {2 ** 64})"),
        (7.0, "[0, inf)", True, "x 7.0 is not an integer >= 0"),
        (0.0, "(0, inf)", False, "x 0.0 is not a number > 0"),
        (INF, "(-inf, inf)", False, "x inf is not a number"),
        ("0.5", "[0, 1]", False, "x '0.5' is not a number in [0, 1]"),
    ])
    def test_rejected_scalar_message(self, value, interval, integer, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_number(value, "x", interval, integer)

    def test_scalar_bounds_are_exact(self):
        assert check_number(2 ** 64 - 1, "x", f"[0, {2 ** 64})", integer=True) == 2 ** 64 - 1
        assert check_number(INF, "x", "[0, inf]") == INF
        assert check_number(1, "x", "[0, 1]") == 1

    def test_list_form(self):
        assert check_numbers([[1, 2.5], [3, 4]], "w").tolist() == [[1.0, 2.5], [3.0, 4.0]]
        assert check_numbers([], "w").shape == (0,)
        for values, message in ([[1, 2], [3, [4]]], "w value [4] is not a number"), \
                ([0.5, True], "w value True is not a number"), \
                ([[1, 2], [3]], "w: setting an array element"), \
                ([1, 10 ** 400], "w: int too large to convert to float"):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}") as info:
                check_numbers(values, "w")
            assert not isinstance(info.value, NonFinite)
        with pytest.raises(NonFinite, match="^non-finite value in w$"):
            check_numbers([[1.0, NAN]], "w")


def box_iou(a: Box, b: Box) -> float:
    """detection.iou of two Boxes, given as its rows."""
    return iou(dataclasses.astuple(a), dataclasses.astuple(b))


class TestIou:
    def test_identical_boxes(self):
        b = Box(0.5, 0.5, 0.2, 0.3)
        assert box_iou(b, b) == pytest.approx(1.0)

    def test_disjoint_boxes(self):
        assert box_iou(Box(0.2, 0.5, 0.1, 0.1), Box(0.8, 0.5, 0.1, 0.1)) == 0.0

    def test_partial_overlap_matches_area_arithmetic(self):
        # independent closed-form: overlap x = [0.5, 0.7], y = [0.3, 0.7]
        a = Box(0.5, 0.5, 0.4, 0.4)
        b = Box(0.7, 0.5, 0.4, 0.4)
        inter = 0.2 * 0.4
        union = 2 * 0.16 - inter
        assert box_iou(a, b) == pytest.approx(inter / union)
        assert box_iou(a, b) == pytest.approx(1.0 / 3.0)

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            Box(0.5, 0.5, 0.0, 0.1)

    @given(a=boxes, b=boxes)
    def test_symmetric_and_bounded(self, a, b):
        v = box_iou(a, b)
        assert v == pytest.approx(box_iou(b, a))
        assert 0.0 <= v <= 1.0 + 1e-12

    @given(a=boxes)
    def test_self_iou_is_one(self, a):
        assert box_iou(a, a) == pytest.approx(1.0)

    @given(a=boxes, b=boxes)
    def test_intersection_bounded_by_smaller_area(self, a, b):
        v = box_iou(a, b)
        areas = a.w * a.h, b.w * b.h
        inter = v / (1 + v) * sum(areas) if v < 1 else min(areas)
        assert inter <= min(areas) + 1e-12


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


def reference_decode_tensors(stack, shape, conf_threshold):
    """decode_tensors as written before it returned arrays: the activations
    over the stack, then per candidate four scalar sigmoids and a stable
    sort by descending confidence; rows [cx, cy, w, h, class, conf]."""
    s = shape.s
    obj = sigmoid(stack[..., 0])
    cls_prob = softmax(stack[..., 5:], axis=-1)
    best_cls = cls_prob.argmax(axis=-1)
    conf = obj * cls_prob.max(axis=-1)
    out = []
    for tensor, frame_keep, frame_conf, frame_cls in zip(stack, conf >= conf_threshold,
                                                         conf, best_cls):
        rows = []
        for r, col in zip(*np.nonzero(frame_keep)):
            tx, ty, tw, th = tensor[r, col, 1:5]
            rows.append([(col + float(sigmoid(tx))) / s, (r + float(sigmoid(ty))) / s,
                         max(float(sigmoid(tw)), LOGIT_CLIP), max(float(sigmoid(th)), LOGIT_CLIP),
                         int(frame_cls[r, col]), float(frame_conf[r, col])])
        rows.sort(key=lambda v: -v[5])
        out.append(rows)
    return out


class TestDecodeMatchesScalarReference:
    """decode_tensors' rows, and decode_tensor's rows tensor by tensor,
    equal the scalar decode's bit for bit: lists of Python floats compare
    equal only when every value does."""

    @staticmethod
    def assert_same(stack, shape, threshold):
        want = reference_decode_tensors(stack, shape, threshold)
        got = decode_tensors(stack, shape, threshold)
        assert len(got) == len(stack)
        assert all(rows.shape == (len(rows), 6) for rows in got)
        assert [rows.tolist() for rows in got] == want
        assert [decode_tensor(t, shape, threshold) for t in stack] == want
        return got

    @pytest.mark.parametrize("seed", range(6))
    def test_random_stacks(self, seed):
        rng = np.random.default_rng(seed)
        shape = GridShape(s=int(rng.integers(1, 8)), c=int(rng.integers(1, 6)))
        stack = rng.normal(0, 3, size=(int(rng.integers(1, 40)), shape.s, shape.s, shape.channels))
        for threshold in (0.0, 0.3, 0.5, 0.9):
            self.assert_same(stack, shape, threshold)

    def test_equal_confidences_keep_cell_order(self):
        shape = GridShape(s=4, c=3)
        rng = np.random.default_rng(7)
        stack = rng.normal(0, 1, size=(5, 4, 4, shape.channels))
        stack[..., 0] = 3.0  # every cell at one of two confidences
        stack[..., 5:] = 0.0
        stack[:, ::2, :, 5] = 2.0
        got = self.assert_same(stack, shape, 0.3)
        confs = got[0][:, 5]
        assert len(set(confs.tolist())) == 2 and len(confs) == 16
        assert list(confs) == sorted(confs, reverse=True)

    def test_sizes_floored_at_the_clip(self):
        shape = GridShape(s=3, c=2)
        stack = np.zeros((4, 3, 3, shape.channels))
        stack[..., 0] = stack[..., 5] = 10.0  # every cell a candidate of class 0
        stack[1, :, :, 3] = -800.0  # sigmoid underflows to 0.0
        stack[2, :, :, 4] = -14.0   # sigmoid below LOGIT_CLIP, above 0.0
        with np.errstate(over="ignore"):
            got = self.assert_same(stack, shape, 0.5)
        assert [len(rows) for rows in got] == [9] * 4
        assert (got[1][:, 2] == LOGIT_CLIP).all() and (got[2][:, 3] == LOGIT_CLIP).all()

    def test_empty_stack_and_partial_last_block(self):
        shape = GridShape(s=4, c=2)
        assert self.assert_same(np.zeros((0, 4, 4, shape.channels)), shape, 0.5) == []
        rng = np.random.default_rng(3)
        stack = rng.normal(0, 3, size=(37, 4, 4, shape.channels))
        stack[-5:, :, :, 0] = -20.0  # the last tensors decode to nothing
        got = self.assert_same(stack, shape, 0.5)
        assert [len(rows) for rows in got[-5:]] == [0] * 5
        for start in range(0, len(stack), 16):  # 16, 16, then a block of 5
            assert ([rows.tolist() for rows in decode_tensors(stack[start:start + 16], shape, 0.5)]
                    == [rows.tolist() for rows in got[start:start + 16]])


class TestIouTable:
    def test_one_frame_minus_inf_across_classes(self):
        dets = np.array([[0.5, 0.5, 0.5, 0.5, 0, 0.9], [0.1, 0.1, 0.1, 0.1, 1, 0.8]])
        targets = np.array([[0.5, 0.5, 0.5, 0.5, 0], [0.12, 0.1, 0.1, 0.1, 0]])
        two = np.array([2])  # one frame of two detections and two targets
        got = iou_table(dets, two, targets, two)
        assert got.tolist() == [1.0, 0.0, -math.inf, -math.inf]
        got = iou_table(dets, two, targets, two, class_aware=False)
        assert got.tolist() == [1.0, 0.0, 0.0, iou([0.1, 0.1, 0.1, 0.1], [0.12, 0.1, 0.1, 0.1])]

    def test_row_major_frame_after_frame_scalar_bits(self):
        rng = np.random.default_rng(8)
        n_dets, n_targets = np.array([3, 0, 2, 4, 0, 1]), np.array([2, 3, 0, 5, 0, 4])
        dets = np.column_stack([rng.uniform(0.05, 0.95, (10, 2)), rng.uniform(0.02, 0.5, (10, 2)),
                                rng.integers(2, size=10), rng.uniform(0.5, 1.0, 10)])
        targets = np.column_stack([rng.uniform(0.05, 0.95, (14, 2)),
                                   rng.uniform(0.02, 0.5, (14, 2)), rng.integers(2, size=14)])
        for class_aware in (True, False):
            want, d0, t0 = [], 0, 0
            for k, g in zip(n_dets, n_targets):  # frames with k = 0 or g = 0 add no entries
                for d in dets[d0:d0 + k]:
                    for t in targets[t0:t0 + g]:
                        want.append(-math.inf if class_aware and d[4] != t[4]
                                    else box_iou(Box(*d[:4]), Box(*t[:4])))
                d0, t0 = d0 + k, t0 + g
            got = iou_table(dets, n_dets, targets, n_targets, class_aware)
            assert len(want) == 3 * 2 + 4 * 5 + 1 * 4
            # bit for bit: +0.0 on disjoint pairs, the scalar's bits on overlapping ones
            assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))
            assert (got > 0).any() and (got == 0).any()
            assert np.isneginf(got).any() == class_aware

    def test_no_pairs(self):
        for k, g in ((0, 0), (2, 0), (0, 3)):
            got = iou_table(np.full((k, 6), 0.5), np.array([k]), np.full((g, 5), 0.5), np.array([g]))
            assert got.shape == (0,)


class TestDecodePrefilter:
    """decode_tensors runs the class softmax only on cells whose objectness
    clears the threshold, since conf <= sigmoid(objectness), and the box
    math only on the candidates left."""

    SHAPE = GridShape(s=3, c=4)

    def stack(self, n=2):
        stack = np.zeros((n, 3, 3, self.SHAPE.channels))
        stack[..., 0] = -10.0
        return stack

    def test_objectness_above_threshold_confidence_below_dropped(self):
        stack = self.stack()
        stack[0, 0, 0, 0] = 10.0                  # flat class logits: conf about 0.25
        stack[0, 1, 1, 0] = stack[0, 1, 1, 6] = 10.0  # conf about 1, class 1
        assert sigmoid(stack[0, 0, 0, 0]) >= 0.5
        got = decode_tensors(stack, self.SHAPE, 0.5)
        assert [len(rows) for rows in got] == [1, 0]
        assert got[0][0, 4] == 1
        assert got[0].tolist() == decode_tensor(stack[0], self.SHAPE, 0.5)

    def test_confidence_exactly_at_threshold_kept(self):
        stack = self.stack(1)
        stack[0, 2, 1, 0] = 1.5
        stack[0, 2, 1, 5:] = [0.3, 1.1, -0.4, 0.9]
        conf = decode_tensors(stack, self.SHAPE, 0.0)[0][0, 5]
        assert decode_tensors(stack, self.SHAPE, conf)[0][:, 5].tolist() == [conf]
        assert len(decode_tensors(stack, self.SHAPE, math.nextafter(conf, 1.0))[0]) == 0

    def test_block_without_candidates(self):
        stack = self.stack(5)
        stack[..., 0] = 0.5  # objectness about 0.62, below the threshold
        got = decode_tensors(stack, self.SHAPE, 0.7)
        assert [rows.shape for rows in got] == [(0, 6)] * 5

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_decode_tensor_frame_by_frame(self, seed):
        rng = np.random.default_rng(seed)
        stack = rng.normal(0, 1, size=(30, 3, 3, self.SHAPE.channels))
        # objectness mostly above the threshold and flat-ish class logits:
        # many cells clear the prefilter and then fall below it
        stack[..., 0] = rng.normal(2.0, 1.5, size=(30, 3, 3))
        for threshold in (0.3, 0.5, 0.7):
            got = decode_tensors(stack, self.SHAPE, threshold)
            assert ([rows.tolist() for rows in got]
                    == [decode_tensor(t, self.SHAPE, threshold) for t in stack])

    def test_no_overflow_warning_from_non_candidate_box_logits(self):
        stack = self.stack(3)
        stack[..., 1:5] = -800.0  # sigmoid overflows exp on any cell it reaches
        stack[0, 0, 0, 0] = 10.0  # objectness clears the threshold, conf does not
        stack[1, 2, 2, 0] = 3.0   # neither does
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = decode_tensors(stack, self.SHAPE, 0.5)
        assert [len(rows) for rows in got] == [0, 0, 0]


def reference_greedy_match(table, iou_threshold):
    """detection.greedy_match, the scalar matcher rank_match replaced: one
    greedy pass over a frame's IOU table, rows as lists, in descending
    confidence order.  Returns each row's target index, or -1."""
    taken = set()
    picks = []
    for row in table:
        best_j, best_iou = -1, iou_threshold
        for j, v in enumerate(row):
            if v >= best_iou and j not in taken:
                best_j, best_iou = j, v
        if best_j >= 0:
            taken.add(best_j)
        picks.append(best_j)
    return picks


def padded_run(frames, extra=0):
    """Per-frame (k, g) IOU tables as rank_match's input: one row per
    detection, padded with -inf to the widest frame plus extra columns."""
    width = max((len(rows[0]) for rows in frames if rows), default=0) + extra
    table = np.full((sum(map(len, frames)), width), -math.inf)
    i = 0
    for rows in frames:
        for row in rows:
            table[i, :len(row)] = row
            i += 1
    return table, np.array([len(rows) for rows in frames], dtype=np.intp)


@st.composite
def iou_runs(draw):
    """Frames of up to 6 detections and 4 targets, from few IOU levels, so
    that ties, -inf class mismatches and IOUs equal to a threshold are
    common; frames with more detections than targets too."""
    levels = st.sampled_from([-math.inf, 0.0, 0.25, 0.5, 0.75, 1.0])
    frames = []
    for k, g in draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 4)), max_size=8)):
        frames.append(draw(st.lists(st.lists(levels, min_size=g, max_size=g),
                                    min_size=k, max_size=k)))
    return frames


class TestRankMatch:
    THRESHOLDS = (0.0, 0.25, 0.5, 0.75, 1.0)

    def assert_same(self, frames, thresholds, extra=0):
        table, n_dets = padded_run(frames, extra)
        got = rank_match(table, n_dets, thresholds)
        assert got.shape == (len(table), len(thresholds))
        for t, thr in enumerate(thresholds):
            want = [j for rows in frames for j in reference_greedy_match(rows, thr)]
            assert got[:, t].tolist() == want

    def test_hand_built_run(self):
        inf = math.inf
        frames = [
            [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]],  # equal IOUs, more detections than targets
            [],                                    # no detections
            [[-inf, 0.0], [0.0, -inf]],            # class mismatches, IOU 0.0
            [[], []],                              # no targets
            [[1.0, 0.75, 0.75], [0.75, 1.0, 0.2]],
        ]
        table, n_dets = padded_run(frames)
        got = rank_match(table, n_dets, self.THRESHOLDS).tolist()
        # threshold 0.0 takes IOU 0.0 and never -inf; the later target wins ties
        assert [row[0] for row in got] == [1, 0, -1, 1, 0, -1, -1, 0, 1]
        assert [row[4] for row in got] == [-1, -1, -1, -1, -1, -1, -1, 0, 1]
        self.assert_same(frames, self.THRESHOLDS)

    def test_no_detections_or_no_targets(self):
        for frames in ([], [[], []], [[[]], [[], []]]):
            table, n_dets = padded_run(frames)
            assert rank_match(table, n_dets, (0.5,)).tolist() == [[-1]] * len(table)

    @given(iou_runs(), st.lists(st.sampled_from(THRESHOLDS), min_size=1, max_size=5, unique=True),
           st.integers(0, 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_reference(self, frames, thresholds, extra):
        self.assert_same(frames, thresholds, extra)


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
        dets = detections(decode_tensor(t, shape, 0.5))
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
            dets = detections(decode_tensor(t, shape, 0.3))
        assert len(dets) == 1
        assert dets[0].box.w == LOGIT_CLIP
        assert dets[0].box.h == 0.5

    def test_matches_brute_force_on_random_tensor(self):
        shape = GridShape(s=4, c=5)
        rng = np.random.default_rng(0)
        t = rng.normal(0, 2, size=(4, 4, shape.channels))
        got = detections(decode_tensor(t, shape, 0.2))
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
        assert all(rows.shape == (len(rows), 6) for rows in got)
        assert ([rows.tolist() for rows in got]
                == [decode_tensor(t, shape, threshold) for t in stack])
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
        dets = detections(decode_tensor(t, shape, 0.0))
        confs = [d.confidence for d in dets]
        assert confs == sorted(confs, reverse=True)

    def test_encode_decode_round_trip(self):
        shape = GridShape(s=5, c=3)
        t = np.zeros((shape.s, shape.s, shape.channels))
        t[:, :, 0] = -10.0
        box = Box(0.43, 0.61, 0.2, 0.35)
        encode_objects(t, shape, [(box.cx, box.cy, box.w, box.h)], [2], [10.0])
        dets = detections(decode_tensor(t, shape, 0.5))
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
            encode_objects(got, shape, boxes, classes, logits)
            assert np.array_equal(got, want)  # later object wins a shared cell

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
            if s.class_id == d.class_id and box_iou(s.box, d.box) > iou_threshold:
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


def nms_of(dets, iou_threshold):
    """detection.nms of Detections in any order: their rows by descending
    confidence, as decode_tensor gives them."""
    return nms(detection_rows(sorted(dets, key=lambda d: -d.confidence)), iou_threshold)


class TestNms:
    def test_empty(self):
        assert nms([], 0.5) == []

    def test_duplicate_suppressed(self):
        b = Box(0.5, 0.5, 0.2, 0.2)
        hi = Detection(b, 0, 0.9)
        lo = Detection(b, 0, 0.8)
        assert nms_of([lo, hi], 0.5) == [hi]

    def test_different_class_not_suppressed(self):
        b = Box(0.5, 0.5, 0.2, 0.2)
        out = nms_of([Detection(b, 0, 0.9), Detection(b, 1, 0.8)], 0.5)
        assert len(out) == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        dets = random_detections(rng, 20)
        assert nms_of(dets, 0.45) == brute_force_nms(dets, 0.45)

    @pytest.mark.parametrize("seed", range(3))
    def test_survivors_subset_and_separated(self, seed):
        rng = np.random.default_rng(100 + seed)
        dets = random_detections(rng, 30)
        out = nms_of(dets, 0.5)
        assert all(d in dets for d in out)
        for i, a in enumerate(out):
            for b in out[i + 1:]:
                if a.class_id == b.class_id:
                    assert box_iou(a.box, b.box) <= 0.5


# The frame loop's decode and NMS as written before they ran on rows: the
# activations over the whole grid, then four scalar sigmoids, a Box and a
# Detection per candidate, and a greedy NMS over Detections with the scalar
# IOU of two Boxes.  The row decode must give the same Detections, bit for bit.

def reference_iou(a: Box, b: Box) -> float:
    ax0, ax1 = a.cx - a.w / 2, a.cx + a.w / 2
    ay0, ay1 = a.cy - a.h / 2, a.cy + a.h / 2
    bx0, bx1 = b.cx - b.w / 2, b.cx + b.w / 2
    by0, by1 = b.cy - b.h / 2, b.cy + b.h / 2
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.w * a.h + b.w * b.h - inter
    return inter / union


def reference_decode_tensor(tensor, shape, conf_threshold):
    obj = sigmoid(tensor[..., 0])
    z = tensor[..., 5:] - np.max(tensor[..., 5:], axis=-1, keepdims=True)
    cls_prob = np.exp(z) / np.sum(np.exp(z), axis=-1, keepdims=True)
    best_cls, conf = cls_prob.argmax(axis=-1), obj * cls_prob.max(axis=-1)
    dets = []
    for r, col in zip(*np.nonzero(conf >= conf_threshold)):
        tx, ty, tw, th = tensor[r, col, 1:5]
        box = Box((col + float(sigmoid(tx))) / shape.s, (r + float(sigmoid(ty))) / shape.s,
                  max(float(sigmoid(tw)), LOGIT_CLIP), max(float(sigmoid(th)), LOGIT_CLIP))
        dets.append(Detection(box, int(best_cls[r, col]), float(conf[r, col])))
    dets.sort(key=lambda d: -d.confidence)
    return dets


def reference_nms(dets, iou_threshold):
    pending = sorted(dets, key=lambda d: -d.confidence)
    keep = []
    while pending:
        best = pending.pop(0)
        keep.append(best)
        pending = [d for d in pending
                   if d.class_id != best.class_id
                   or reference_iou(d.box, best.box) <= iou_threshold]
    return keep


def half_sigmoid_bound():
    """The largest float whose sigmoid rounds to exactly 0.5: a bisection
    over the positive floats' bit patterns, on which sigmoid is monotone."""
    lo, hi = 0, np.float64(1e-10).view(np.int64)
    assert sigmoid(np.int64(hi).view(np.float64)) > 0.5
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if sigmoid(np.int64(mid).view(np.float64)) == 0.5 else (lo, mid)
    return float(np.int64(lo).view(np.float64))


class TestFrameDecodeMatchesReference:
    """nms(decode_tensor(...)), the frame loop's merge, against the scalar
    decode and NMS it replaced."""

    SHAPE = GridShape(s=6, c=4)

    @staticmethod
    def assert_same(tensor, shape, threshold=CONF_THRESHOLD):
        got = nms(decode_tensor(tensor, shape, threshold), NMS_IOU)
        want = reference_nms(reference_decode_tensor(tensor, shape, threshold), NMS_IOU)
        assert detection_rows(got) == detection_rows(want)  # Python floats: every bit
        assert all(type(d.class_id) is int and type(d.confidence) is float for d in got)
        return got

    @given(seed=st.integers(0, 2**32 - 1), s=st.integers(1, 7), c=st.integers(1, 5),
           scale=st.sampled_from([0.5, 2.0, 5.0]), threshold=st.sampled_from([0.0, 0.3, 0.5]))
    @settings(max_examples=200, deadline=None)
    def test_random_tensors(self, seed, s, c, scale, threshold):
        shape = GridShape(s=s, c=c)
        tensor = np.random.default_rng(seed).normal(0, scale, size=(s, s, shape.channels))
        tensor[..., 0] += 2.0  # most cells candidates, many of them overlapping
        self.assert_same(tensor, shape, threshold)

    def test_exact_confidence_ties_keep_cell_order(self):
        tensor = np.full((6, 6, self.SHAPE.channels), -10.0)
        tensor[..., 1:5] = 0.0
        for r, c in ((0, 0), (2, 3), (5, 5), (4, 1)):
            tensor[r, c, 0], tensor[r, c, 6] = 3.0, 4.0  # the same logits, far apart
        got = self.assert_same(tensor, self.SHAPE)
        assert len(got) == 4 and len({d.confidence for d in got}) == 1
        assert [(d.box.cy, d.box.cx) for d in got] == sorted((d.box.cy, d.box.cx) for d in got)

    def test_objectness_at_the_half_rounding_boundary(self):
        bound = half_sigmoid_bound()
        logits = [0.0, -2.0 ** -54, bound, math.nextafter(bound, -math.inf),
                  math.nextafter(bound, math.inf)]
        tensor = np.full((6, 6, self.SHAPE.channels), -10.0)
        tensor[..., 1:5] = 0.0
        for col, logit in enumerate(logits):
            # a certain class: confidence is the objectness, 0.5 or just above
            tensor[col, col, 0], tensor[col, col, 5] = logit, 800.0
            tensor[col, col, 6:] = -800.0
        got = self.assert_same(tensor, self.SHAPE)
        assert sigmoid(np.array(logits)).tolist() == [0.5] * 4 + [math.nextafter(0.5, 1.0)]
        assert len(got) == 5

    def test_size_logits_floored_at_the_clip(self):
        tensor = np.full((6, 6, self.SHAPE.channels), -10.0)
        tensor[..., 1:5] = 0.0
        tensor[1, 2, 0] = tensor[1, 2, 5] = tensor[4, 4, 0] = tensor[4, 4, 7] = 10.0
        tensor[1, 2, 3] = -800.0  # sigmoid underflows to 0.0
        tensor[4, 4, 4] = -14.0   # sigmoid below LOGIT_CLIP, above 0.0
        with np.errstate(over="ignore"):
            got = self.assert_same(tensor, self.SHAPE)
        assert sorted((d.box.w, d.box.h) for d in got) == [(LOGIT_CLIP, 0.5), (0.5, LOGIT_CLIP)]

    def test_same_class_boxes_at_exactly_the_nms_iou(self):
        shape = GridShape(s=2, c=1)
        tensor = np.full((2, 2, shape.channels), -10.0)
        # sigmoid(40) and sigmoid(0) are exactly 1.0 and 0.5, and -40 adds
        # under half an ulp to the column: boxes [0, 1] x [0, 1] and [0.25,
        # 0.75] x [0, 1], whose IOU is 0.5 exactly, which NMS keeps
        tensor[0, 0, :5] = [9.0, 40.0, 40.0, 40.0, 40.0]
        tensor[0, 1, :5] = [8.0, -40.0, 40.0, 0.0, 40.0]
        tensor[..., 5] = 10.0
        got = self.assert_same(tensor, shape)
        assert box_iou(got[0].box, got[1].box) == NMS_IOU
        assert len(got) == 2
        tensor[0, 1, 3] = 0.01  # a wider box overlaps it above NMS_IOU
        assert len(self.assert_same(tensor, shape)) == 1

    def test_empty_frame(self):
        assert self.assert_same(np.full((6, 6, self.SHAPE.channels), -10.0), self.SHAPE) == []


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
