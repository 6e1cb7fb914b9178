"""Distillation losses and the online decoder update step.

The core loss is an objectness-gated MSE between student and oracle logit
tensors: cells where the oracle is confident are matched exactly, the rest
are pulled toward a blend of the student's own output and the oracle, which
keeps the student from chasing oracle noise in empty regions.  A slower
decode+NMS based loss exists as a compute-cost baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detection import (
    GridShape,
    GroundTruthObject,
    decode_tensor,
    match_detections,
    nms,
    partition_cells,
)
from .models import DecoderParams, train_decoder


@dataclass(frozen=True)
class DistillConfig:
    lam: float = 0.4          # blend factor for low-confidence cells
    gate: float = 0.5         # activated-objectness split threshold
    lr: float = 0.01
    steps_per_event: int = 5

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must be in [0, 1], got {self.lam}")
        if not 0.0 < self.gate < 1.0:
            raise ValueError(f"gate must be in (0, 1), got {self.gate}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.steps_per_event < 1:
            raise ValueError(f"steps_per_event must be >= 1, got {self.steps_per_event}")


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
    high, low = partition_cells(oracle, cfg.gate)
    channels = oracle.shape[-1]
    n_high = int(high.sum()) * channels
    n_low = int(low.sum()) * channels
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
    """Quadratic objectness + box + class penalty over a matching, summed
    over the matched pairs, then the unmatched detections, then the misses."""
    total, n = 0.0, 0
    for det, tgt in matches:
        if tgt is None:
            continue
        box_mse = np.mean([
            (det.box.cx - tgt.box.cx) ** 2,
            (det.box.cy - tgt.box.cy) ** 2,
            (det.box.w - tgt.box.w) ** 2,
            (det.box.h - tgt.box.h) ** 2,
        ])
        cls = 0.0 if det.class_id == tgt.class_id else 1.0
        total += (det.confidence - 1.0) ** 2 + box_mse + cls
        n += 1
    for det, tgt in matches:
        if tgt is None:
            total += det.confidence ** 2
            n += 1
    for _ in missed:
        total += 1.0
        n += 1
    return total / n if n else 0.0


def nms_distill_loss(student: np.ndarray, oracle: np.ndarray, gt: list[GroundTruthObject],
                     shape: GridShape, conf_threshold: float = 0.5,
                     iou_threshold: float = 0.5) -> float:
    """Decode-and-match distillation loss (box + class + objectness terms).

    Decodes both tensors, suppresses duplicates, then scores the student's
    boxes against ground truth and against the oracle's boxes.  Exists mainly
    so its wall-clock cost (which grows with the number of decoded targets)
    can be benchmarked against the tensor-space loss.
    """
    student_dets = nms(decode_tensor(student, shape, conf_threshold), iou_threshold)
    oracle_dets = nms(decode_tensor(oracle, shape, conf_threshold), iou_threshold)
    l_gt = _pair_loss(*match_detections(student_dets, gt, 0.5, class_aware=False))
    l_t = _pair_loss(*match_detections(student_dets, oracle_dets, 0.5, class_aware=False))
    return l_gt + l_t


def distill_step(params: DecoderParams, features: np.ndarray, oracle: np.ndarray,
                 cfg: DistillConfig, frame_id: int = -1) -> tuple[DecoderParams, FeedbackRecord]:
    """Run one distillation event: k gradient steps toward the composed target.

    The target is recomposed from the current student output at every step
    (equivalently, the gated weight map is applied to the fresh difference).
    Returns the updated params and a FeedbackRecord carrying the on-frame
    loss change.  A non-finite loss or update aborts the event with params
    unchanged.
    """
    weights = cell_weights(oracle, cfg)
    loss_before, loss_after, trained = train_decoder(params, features, oracle, weights,
                                                     cfg.lr, cfg.steps_per_event)
    if not (np.isfinite(loss_before) and np.isfinite(loss_after)
            and np.isfinite(trained[0].base).all()):  # one buffer holds all four arrays
        return params, FeedbackRecord(frame_id, loss_before, loss_before, error="non-finite loss")
    new_params = DecoderParams(*trained, version=params.version + cfg.steps_per_event)
    return new_params, FeedbackRecord(frame_id, loss_before, loss_after)
