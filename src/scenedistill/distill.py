"""Distillation losses and the online decoder update step.

The core loss is an objectness-gated MSE between student and oracle logit
tensors: cells where the oracle is confident are matched exactly, the rest
are pulled toward a blend of the student's own output and the oracle, which
keeps the student from chasing oracle noise in empty regions.  A slower
decode+NMS based loss exists as a compute-cost baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection import (
    CONF_THRESHOLD,
    NMS_IOU,
    check_number,
    decode_tensor,
    match_detections,
    nms,
    partition_cells,
)
from .models import DecoderParams, Workspace, train_decoder


@dataclass(frozen=True)
class DistillConfig:
    lam: float = 0.4          # blend factor for low-confidence cells
    gate: float = 0.5         # activated-objectness split threshold
    lr: float = 0.01
    steps_per_event: int = 5

    def __post_init__(self):
        check_number(self.lam, "lam", "[0, 1]")
        check_number(self.gate, "gate", "(0, 1)")
        check_number(self.lr, "lr", "(0, inf)")
        check_number(self.steps_per_event, "steps_per_event", "[1, inf)", integer=True)


@dataclass(frozen=True)
class FeedbackRecord:
    """Outcome of one distillation event, fed back to the selector that
    chose frame_id; error is set when the event failed or was dropped."""

    frame_id: int
    loss_before: float
    loss_after: float
    error: str | None = None

    @property
    def delta_l(self) -> float:
        return self.loss_after - self.loss_before


def compose_target(student: np.ndarray, oracle: np.ndarray, cfg: DistillConfig) -> np.ndarray:
    """Build the training target: oracle on confident cells, blend elsewhere.

    The student values entering the blend are constants (a copy), so no
    gradient flows into the target.
    """
    if student.shape != oracle.shape:
        raise ValueError(f"shape mismatch: {student.shape} vs {oracle.shape}")
    high, low = partition_cells(oracle, cfg.gate)
    target = oracle.copy()
    target[low] = cfg.lam * student[low] + (1.0 - cfg.lam) * oracle[low]
    return target


def cell_weights(oracle: np.ndarray, cfg: DistillConfig) -> np.ndarray:
    """Per-cell quadratic weights equivalent to the two partition means.

    Confident cells weigh 1/(confident scalars), the rest (1 - lam)^2 /
    (background scalars); contracting these with the squared student-oracle
    difference reproduces the gated loss with plain elementwise arithmetic,
    which keeps each key frame's training step cheap.
    """
    high, _ = partition_cells(oracle, cfg.gate)
    count = np.count_nonzero(high)
    channels = oracle.shape[-1]
    n_high = count * channels
    n_low = (high.size - count) * channels
    w_high = 1.0 / n_high if n_high else 0.0
    w_low = (1.0 - cfg.lam) ** 2 / n_low if n_low else 0.0
    return np.where(high, w_high, w_low)[:, :, None]


def bounded_distill_loss(student: np.ndarray, oracle: np.ndarray, cfg: DistillConfig) -> float:
    """Gated MSE against the composed target, mean-reduced per partition.

    Algebraically the low-confidence term equals (1 - lam)^2 times the plain
    MSE on those cells, so the whole loss is two masked MSEs.  Mean reduction
    keeps the scale independent of grid size.  Empty partitions contribute 0.
    """
    if student.shape != oracle.shape:
        raise ValueError(f"shape mismatch: {student.shape} vs {oracle.shape}")
    diff = student - oracle
    diff *= diff
    diff *= cell_weights(oracle, cfg)
    return float(diff.sum())


def _pair_loss(matches, missed) -> float:
    """Quadratic objectness + box + class penalty over a matching of
    detection rows to target rows, summed over the matched pairs, then the
    unmatched detections, then the misses."""
    total, n = 0.0, 0
    for det, tgt in matches:
        if tgt is None:
            continue
        box_mse = np.mean([(det[i] - tgt[i]) ** 2 for i in range(4)])
        cls = 0.0 if det[4] == tgt[4] else 1.0
        total += (det[5] - 1.0) ** 2 + box_mse + cls
        n += 1
    for det, tgt in matches:
        if tgt is None:
            total += det[5] ** 2
            n += 1
    for _ in missed:
        total += 1.0
        n += 1
    return total / n if n else 0.0


def nms_distill_loss(student: np.ndarray, oracle: np.ndarray, gt) -> float:
    """Decode-and-match distillation loss (box + class + objectness terms).

    Decodes both tensors, suppresses duplicates, then scores the student's
    boxes against ground truth, rows [cx, cy, w, h, class, object_id], and
    against the oracle's boxes.  Exists mainly so its wall-clock cost (which
    grows with the number of decoded targets) can be benchmarked against the
    tensor-space loss.
    """
    student_rows = nms(decode_tensor(student, CONF_THRESHOLD), NMS_IOU)
    oracle_rows = nms(decode_tensor(oracle, CONF_THRESHOLD), NMS_IOU)
    # rows of Python floats: _pair_loss runs 7-17% slower on numpy rows (10-50 targets)
    l_gt = _pair_loss(*match_detections(student_rows, np.asarray(gt).tolist(), 0.5,
                                        class_aware=False))
    l_t = _pair_loss(*match_detections(student_rows, oracle_rows, 0.5, class_aware=False))
    return l_gt + l_t


def distill_step(params: DecoderParams, features: np.ndarray, oracle: np.ndarray,
                 cfg: DistillConfig, frame_id: int = -1,
                 ws: Workspace | None = None) -> tuple[DecoderParams, FeedbackRecord]:
    """Run one distillation event: k gradient steps toward the composed target.

    The target is recomposed from the current student output at every step
    (equivalently, the gated weight map is applied to the fresh difference).
    Returns the updated params and a FeedbackRecord carrying the on-frame
    loss change.  A non-finite loss or update aborts the event with params
    unchanged.  ws is the Workspace train_decoder runs in, or None for a new one.
    """
    weights = cell_weights(oracle, cfg)
    loss_before, loss_after, trained = train_decoder(params, features, oracle, weights,
                                                     cfg.lr, cfg.steps_per_event, ws)
    if not (math.isfinite(loss_before) and math.isfinite(loss_after)
            and np.isfinite(trained.flat).all()):
        return params, FeedbackRecord(frame_id, loss_before, loss_before, error="non-finite loss")
    return trained, FeedbackRecord(frame_id, loss_before, loss_after)
