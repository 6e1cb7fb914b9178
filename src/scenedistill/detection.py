"""Grid detection tensors, box geometry, decoding and non-maximum suppression.

A detection tensor is an (s, s, 5 + c) float array of per-cell logits:
channel 0 is objectness, channels 1..4 are box offsets (tx, ty, tw, th),
channels 5.. are class logits.  All activations (sigmoid / softmax) are
applied at decode time; tensors always store pre-activation values.  The
one IOU-table builder (iou_table, an array pass over every same-frame
detection-target pair) and the one greedy matcher, rank_match, used by
evaluation and the reference losses, live here too; iou serves NMS.

One row layout, [cx, cy, w, h, class, x], holds decoded detections
(decode_tensors, decode_tensor, detection_rows), where x is the confidence,
and ground truth, where x is the object id; the matcher's targets are such
rows.  The frame loop decodes one frame to rows and builds Detections only
for those NMS keeps; its report holds them (ROADMAP item 7, step 2).

check_number and check_numbers are the one check for numbers that enter
from outside as JSON: every config's fields, the CLI's, and the values of
checkpoints and reports (read_trace checks a trace's arrays whole).  Each
reader wraps their ValueError in its own error and location.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

LOGIT_CLIP = 1e-6
CONF_THRESHOLD = 0.5  # every decode of a run: student frames, oracle answers, oracle ground truth
NMS_IOU = 0.5         # same-class overlap above which the student's NMS drops a detection


@functools.lru_cache(maxsize=256)
def _interval(text: str) -> tuple:
    """An interval like "[lo, hi)" as (lo, hi, lo_open, hi_open, its wording in messages)."""
    low, high = text[1:-1].split(",")
    lo_open, hi_open = text[0] == "(", text[-1] == ")"
    say = ("" if text == "(-inf, inf)" else f" in {text}" if high.strip() != "inf" or not hi_open
           else f" {'>' if lo_open else '>='} {low}")
    return float(low), float(high), lo_open, hi_open, say


def check_number(value, name: str, interval: str = "(-inf, inf)", integer: bool = False):
    """value, if it is a number of the field's kind in interval, like "[0, 1)";
    else a ValueError naming name and value.  A boolean is never a number, an
    integer field takes only integers (not 6.0), NaN lies in no interval and an
    infinity only in one closed at it; numpy scalars count as numbers."""
    lo, hi, lo_open, hi_open, say = _interval(interval)
    kind = numbers.Integral if integer else numbers.Real  # an int skips this ABC's check
    if (type(value) is int or isinstance(value, kind)) and type(value) is not bool:
        try:  # an integer is exact against the bounds, numpy integers too
            x = int(value) if integer else float(value)
        except OverflowError:  # a float field's integer beyond the float range
            x = float("nan")
        if (lo < x if lo_open else lo <= x) and (x < hi if hi_open else x <= hi):
            return value
    raise ValueError(f"{name} {value!r} is not {'an integer' if integer else 'a number'}{say}")


class NonFinite(ValueError):
    """A NaN or an infinity among numbers read from outside."""


def check_numbers(values, name: str) -> np.ndarray:
    """values, a JSON list of numbers or of such lists, as a float array.  A
    ValueError names the first value that is not a JSON number (a boolean is
    none) or says they do not fit an array; a NonFinite says one is not finite."""
    rows = values if isinstance(values, list) and values and type(values[0]) is list else [values]
    for row in rows:
        if type(row) is not list or not set(map(type, row)) <= {int, float}:  # one pass
            bad = next(v for v in row if type(v) not in (int, float)) if type(row) is list else row
            raise ValueError(f"{name} value {bad!r} is not a number")
    try:  # fromiter takes a flat list about 15% faster than np.array
        array = (np.array(values, dtype=float) if rows is values
                 else np.fromiter(values, float, len(values)))
    except (OverflowError, ValueError) as e:  # an int beyond the float range, ragged rows
        raise ValueError(f"{name}: {e}") from None
    if not np.isfinite(array).all():
        raise NonFinite(f"non-finite value in {name}")
    return array


@dataclass(frozen=True)
class GridShape:
    """Grid geometry: s cells per side, c object classes."""

    s: int
    c: int

    def __post_init__(self):
        check_number(self.s, "s", "[1, inf)", integer=True)
        check_number(self.c, "c", "[1, inf)", integer=True)

    @property
    def channels(self) -> int:
        return 5 + self.c

    @property
    def n_values(self) -> int:
        return self.s * self.s * self.channels


@dataclass(frozen=True)
class Box:
    """Axis-aligned box, center + extent, in normalized image coordinates."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"degenerate box: w={self.w}, h={self.h}")


@dataclass(frozen=True)
class Detection:
    box: Box
    class_id: int
    confidence: float


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def softmax(x, axis=-1):
    # the ndarray methods run np.max/np.sum's reductions without their
    # Python-level wrappers
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def iou(a, b) -> float:
    """Intersection over union of two [cx, cy, w, h, ...] rows; symmetric, in [0, 1]."""
    iw = min(a[0] + a[2] / 2, b[0] + b[2] / 2) - max(a[0] - a[2] / 2, b[0] - b[2] / 2)
    ih = min(a[1] + a[3] / 2, b[1] + b[3] / 2) - max(a[1] - a[3] / 2, b[1] - b[3] / 2)
    if iw <= 0 or ih <= 0:
        return 0.0
    return iw * ih / (a[2] * a[3] + b[2] * b[3] - iw * ih)


def _check_grid(tensor_shape: tuple, shape: GridShape) -> None:
    if tensor_shape != (shape.s, shape.s, shape.channels):
        raise ValueError(f"tensor of shape {tensor_shape} does not match grid "
                         f"{(shape.s, shape.s, shape.channels)}")


def _scores(obj: np.ndarray, class_logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The best class and the confidence, obj (the activated objectness)
    times the best class probability, of each cell's class logits, (..., c)."""
    cls_prob = softmax(class_logits, axis=-1)
    return cls_prob.argmax(axis=-1), obj * cls_prob.max(axis=-1)


def _rows(obj: np.ndarray, logits: np.ndarray, row: np.ndarray, col: np.ndarray,
          shape: GridShape, conf_threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """The rows, in order, of the cells (row, col) with activated objectness
    obj and logits (k, 5 + c) that clear conf_threshold, and the mask of
    those kept; only kept cells reach the box sigmoid."""
    rows = np.empty((len(row), 6))
    rows[:, 0], rows[:, 1] = col, row
    rows[:, 4], rows[:, 5] = _scores(obj, logits[:, 5:])
    keep = rows[:, 5] >= conf_threshold
    rows = rows[keep]
    box = sigmoid(logits[keep, 1:5])
    rows[:, :2] += box[:, :2]
    rows[:, :2] /= shape.s
    np.maximum(box[:, 2:], LOGIT_CLIP, out=rows[:, 2:4])
    return rows, keep


def decode_tensors(stack: np.ndarray, shape: GridShape, conf_threshold: float) -> list[np.ndarray]:
    """Decode a stack of logit tensors, (n, s, s, 5 + c), into each one's
    detections: a (k, 6) float array of rows [cx, cy, w, h, class, conf],
    one candidate per cell.

    Box center is (col + sigmoid(tx)) / s, (row + sigmoid(ty)) / s; box size
    is sigmoid(tw), sigmoid(th), floored at LOGIT_CLIP as logit clips when
    encoding, so a very negative finite logit still decodes to a valid box.
    Candidates below conf_threshold are dropped; each tensor's rows run by
    descending confidence, ties in cell order.  As conf <= sigmoid(objectness),
    only cells whose objectness clears the threshold get the class softmax.
    """
    _check_grid(stack.shape[1:], shape)
    obj = sigmoid(stack[..., 0])
    frame, row, col = np.nonzero(obj >= conf_threshold)
    rows, keep = _rows(obj[frame, row, col], stack[frame, row, col], row, col, shape,
                       conf_threshold)
    frame = frame[keep]
    # one stable sort: by tensor, then by descending confidence, keeping
    # nonzero's cell order on ties
    rows = rows[np.lexsort((-rows[:, 5], frame))]
    ends = np.bincount(frame, minlength=len(stack)).cumsum().tolist()
    return [rows[a:b] for a, b in zip([0] + ends, ends)]


def decode_tensor(tensor: np.ndarray, shape: GridShape, conf_threshold: float) -> list[list]:
    """Decode one logit tensor, (s, s, 5 + c), into decode_tensors' rows for
    it, as lists of Python floats: the frame loop's decode, which nms reads."""
    _check_grid(tensor.shape, shape)
    obj = sigmoid(tensor[..., 0])
    row, col = np.nonzero(obj >= conf_threshold)
    rows = _rows(obj[row, col], tensor[row, col], row, col, shape, conf_threshold)[0].tolist()
    rows.sort(key=lambda r: -r[5])  # stable: ties stay in cell order
    return rows


def detections(rows: list[list]) -> list[Detection]:
    """Rows [cx, cy, w, h, class, conf] as Detections."""
    return [Detection(Box(cx, cy, w, h), int(cls), conf) for cx, cy, w, h, cls, conf in rows]


def detection_rows(dets: list[Detection]) -> list[list]:
    """Detections as [cx, cy, w, h, class, conf] rows, the form reports are
    written and scored in."""
    return [[d.box.cx, d.box.cy, d.box.w, d.box.h, d.class_id, d.confidence] for d in dets]


def encode_objects(tensor: np.ndarray, shape: GridShape, boxes, class_ids, obj_logits,
                   class_margin: float = 4.0, frames=None) -> None:
    """Write objects, given as (cx, cy, w, h), into the cells containing their
    centers.

    tensor is one frame, (s, s, 5 + c), or, with frames giving each object's
    frame index, a stack of them, (n, s, s, 5 + c).  Objects are written in
    order, so where two share a cell of a frame the later one wins.  Inverse
    of decode_tensor's box mapping, so decode(encode(x)) round-trips box
    coordinates up to the logit clip.
    """
    s = shape.s
    geo = np.asarray(boxes, dtype=float).reshape(-1, 4).T
    n = geo.shape[1]
    if not n:
        return
    # one row per channel and per box value: each step below reads and
    # writes whole rows, contiguous in memory, and the rows go into the
    # tensor transposed, one column per object
    scaled = geo[:2] * s
    cells = scaled.astype(np.intp)  # (col, row); truncates like int() on these floats
    np.minimum(cells, s - 1, out=cells)
    block = np.empty((shape.channels, n))
    block[0] = obj_logits
    np.subtract(scaled, cells, out=block[1:3])
    block[3:5] = geo[2:]
    # the inverse sigmoid in place, clipped away from 0/1 so encoding stays
    # finite: np.maximum then np.minimum, np.clip's own rule
    fractions = block[1:5]
    np.maximum(fractions, LOGIT_CLIP, out=fractions)
    np.minimum(fractions, 1.0 - LOGIT_CLIP, out=fractions)
    np.log(fractions / (1.0 - fractions), out=fractions)
    block[5:] = -class_margin
    block[np.add(class_ids, 5), np.arange(n)] = class_margin

    cols, rows = cells
    keys = rows * s + cols
    if frames is not None:
        frames = np.asarray(frames)
        keys += frames * (s * s)
    index = (rows, cols) if frames is None else (frames, rows, cols)
    # writing only each cell's last object leaves the same tensor as writing
    # all of them in order, and keeps the fancy-indexed write below free of
    # repeated indices, whose order numpy does not define
    last = list({k: i for i, k in enumerate(keys.tolist())}.values())
    if len(last) < n:
        block, index = block[:, last], tuple(ix[last] for ix in index)
    tensor[index] = block.T


def nms(rows: list[list], iou_threshold: float) -> list[Detection]:
    """Greedy class-aware non-maximum suppression over rows [cx, cy, w, h,
    class, conf] by descending confidence, as decode_tensor gives them: a row
    is kept unless a kept row of its class overlaps it above iou_threshold.
    Returns the kept rows as Detections."""
    keep = []
    for r in rows:
        if all(k[4] != r[4] or iou(k, r) <= iou_threshold for k in keep):
            keep.append(r)
    return detections(keep)


def iou_table(dets: np.ndarray, n_dets: np.ndarray, targets: np.ndarray, n_targets: np.ndarray,
              class_aware: bool = True) -> np.ndarray:
    """IOU of every same-frame (detection, target) pair of a run of frames,
    frame after frame, each frame's (k, g) table row-major; -inf where
    class_aware and the classes differ, which no threshold accepts.

    dets and targets are the frames' rows [cx, cy, w, h, class, ...], frame
    after frame; n_dets and n_targets are each frame's counts.  The
    arithmetic is iou's, in its order, so overlapping boxes get its bits and
    the rest 0.0; each side is clamped at 0 before the product, so that two
    negative sides cannot cancel the union.
    """
    det_frame = np.repeat(np.arange(len(n_dets)), n_dets)
    per_det = n_targets[det_frame]
    pair_start = np.cumsum(per_det) - per_det
    target_start = np.cumsum(n_targets) - n_targets
    a = np.repeat(dets, per_det, axis=0)
    b = targets[np.arange(len(a)) + np.repeat(target_start[det_frame] - pair_start, per_det)]
    half_a, half_b = a[:, 2:4] / 2, b[:, 2:4] / 2
    side = (np.minimum(a[:, :2] + half_a, b[:, :2] + half_b)
            - np.maximum(a[:, :2] - half_a, b[:, :2] - half_b))
    np.maximum(side, 0.0, out=side)
    inter = side[:, 0] * side[:, 1]
    out = inter / (a[:, 2] * a[:, 3] + b[:, 2] * b[:, 3] - inter)
    if class_aware:
        out[a[:, 4] != b[:, 4]] = -np.inf
    return out


def rank_match(table: np.ndarray, n_dets: np.ndarray, thresholds) -> np.ndarray:
    """Greedy matching of a run of frames at every IOU threshold in one pass.

    table has a row per detection, frame after frame, each frame's by
    descending confidence: its row of the frame's iou_table, padded with
    -inf; n_dets counts each frame's rows.  At each threshold each detection
    in turn takes its frame's highest-IOU untaken target at or above it, the
    later on equal IOU.  Returns (detections, thresholds) target indices, -1
    where none is taken."""
    picks = np.full((len(table), len(thresholds)), -1, dtype=np.intp)
    taken = np.zeros((len(thresholds), len(n_dets), table.shape[1]), dtype=bool)
    first = np.cumsum(n_dets) - n_dets  # each frame's first row
    for rank in range(n_dets.max(initial=0) if table.size else 0):
        frame = np.flatnonzero(n_dets > rank)
        dets = first[frame] + rank
        rows = table[dets]
        for t, level in enumerate(thresholds):  # as fast as all at once, less memory
            free = (rows >= level) & ~taken[t, frame]
            # argmax of the reversed rows finds the last of the highest free IOUs
            best = table.shape[1] - 1 - np.where(free, rows, -np.inf)[:, ::-1].argmax(axis=1)
            d = np.flatnonzero(free.any(axis=1))
            picks[dets[d], t] = best[d]
            taken[t, frame[d], best[d]] = True
    return picks


def match_detections(dets: list[Detection], targets, iou_threshold: float,
                     class_aware: bool = True):
    """Greedy matcher: each detection, highest confidence first, takes the
    highest-IOU untaken target row [cx, cy, w, h, class, ...] at or above
    the threshold (of its own class when class_aware), rank_match's rule.

    Returns (matches, missed): matches pairs every detection, in descending
    confidence order, with its target or None; missed lists the untaken
    targets in their input order.
    """
    order = sorted(dets, key=lambda d: -d.confidence)
    k, g = len(order), len(targets)
    rows = np.array(detection_rows(order), dtype=float).reshape(k, 6)
    boxes = np.array([t[:5] for t in targets], dtype=float).reshape(g, 5)
    table = iou_table(rows, np.array([k]), boxes, np.array([g]), class_aware).reshape(k, g)
    picks = rank_match(table, np.array([k]), (iou_threshold,))[:, 0].tolist()
    taken = set(picks)
    matches = [(det, targets[j] if j >= 0 else None) for det, j in zip(order, picks)]
    return matches, [t for j, t in enumerate(targets) if j not in taken]


def partition_cells(oracle: np.ndarray, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Split grid cells by activated oracle objectness.

    Returns (high, low) boolean masks: high where sigmoid(objectness) >= theta,
    low is the complement.  The masks are disjoint and cover the grid.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must be in (0, 1), got {theta}")
    high = sigmoid(oracle[:, :, 0]) >= theta
    return high, ~high
