"""Detection metrics, the config-variant sweep, the loss-cost benchmark, and
key-frame adaptivity analysis.

AP uses all-point (precision envelope) interpolation.  Ground truth can be
the stream's true labels or the oracle's own decoded detections, matching
how the adapted student is normally scored against the model it distills
from.  Scoring runs on arrays: a frame's detections as [cx, cy, w, h,
class, conf] rows, its ground truth as (g, 6) rows whose sixth column it
does not read, the IOUs of a block of frames' pairs from one iou_table
pass, and a whole run's matches at every threshold from one rank_match call.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .detection import (
    CONF_THRESHOLD,
    Detection,
    GridShape,
    check_number,
    decode_tensors,
    detection_rows,
    iou_table,
    match_detections,  # re-exported: evaluation's name for the matcher
    rank_match,
)
from .distill import DistillConfig, bounded_distill_loss, nms_distill_loss
from .pipeline import PipelineConfig, PipelineReport, run_pipeline
from .simstream import (GT_BLOCK_FRAMES, FrameRecord, OracleNoiseSpec, oracle_for_frame,
                        oracle_tensors)

GT_SOURCES = ("true_gt", "oracle_as_gt")


@dataclass(frozen=True)
class EvalConfig:
    iou_thresholds: tuple[float, ...] = (0.5, 0.6, 0.75)
    gt_source: str = "true_gt"

    def __post_init__(self):
        if self.gt_source not in GT_SOURCES:
            raise ValueError(f"unknown gt_source {self.gt_source!r}, expected one of {GT_SOURCES}")
        if not self.iou_thresholds:
            raise ValueError("iou_thresholds must not be empty")
        for lo, t in zip((0.0, *self.iou_thresholds), self.iou_thresholds):  # strictly increasing
            check_number(t, "iou_thresholds", f"({float(lo)}, 1)")


def average_precision(tp_flags: list[bool], n_gt: int) -> float:
    """Area under the precision-recall curve, all-point interpolation.

    tp_flags must be ordered by descending confidence.  With no ground truth,
    returns 1.0 for an empty ranking and 0.0 as soon as any false positive
    exists.
    """
    if n_gt == 0:
        return 1.0 if len(tp_flags) == 0 else 0.0
    if len(tp_flags) == 0:
        return 0.0
    tp = np.cumsum(np.asarray(tp_flags, dtype=float))
    fp = np.cumsum(~np.asarray(tp_flags, dtype=bool))
    recall = tp / n_gt
    precision = tp / (tp + fp)
    # precision envelope over recall, integrated at recall steps
    mrec = np.concatenate([[0.0], recall, [recall[-1]]])
    mpre = np.concatenate([[0.0], precision, [0.0]])
    mpre = np.maximum.accumulate(mpre[::-1])[::-1]
    idx = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[idx + 1] - mrec[idx]) * mpre[idx + 1]))


@dataclass
class ThresholdMetrics:
    iou: float
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    ap_per_class: dict[int, float]
    mean_ap: float

    def to_dict(self) -> dict:
        return {
            "iou": self.iou, "tp": self.tp, "fp": self.fp, "fn": self.fn,
            "precision": self.precision, "recall": self.recall, "f1": self.f1,
            "ap_per_class": {str(k): v for k, v in self.ap_per_class.items()},
            "mean_ap": self.mean_ap,
        }


@dataclass
class EvalSummary:
    gt_source: str
    conf_threshold: float
    per_threshold: list[ThresholdMetrics]

    def at(self, iou_thr: float) -> ThresholdMetrics:
        for m in self.per_threshold:
            if abs(m.iou - iou_thr) < 1e-9:
                return m
        raise KeyError(f"no metrics at IOU {iou_thr}")

    def to_dict(self) -> dict:
        return {
            "gt_source": self.gt_source,
            "conf_threshold": self.conf_threshold,
            "per_threshold": [m.to_dict() for m in self.per_threshold],
        }


def evaluate_thresholds(per_frame_dets: list[list[Detection]], per_frame_gt: list[np.ndarray],
                        thresholds: Sequence[float]) -> list[ThresholdMetrics]:
    """Score a whole run at each IOU threshold (counts plus per-class AP).

    A frame's detections are a report's Detections, and its ground truth a
    (g, 6) array of rows [cx, cy, w, h, class, x], as ground_truth_for
    returns it.  GT_BLOCK_FRAMES frames at a time, the detections become
    detection_rows sorted within each frame by descending confidence, and
    the IOUs of all same-frame pairs come from one pass;
    one rank_match call then matches the whole run at every threshold.
    Equal to scoring each threshold on its own with evaluate_frames.
    """
    n = min(len(per_frame_dets), len(per_frame_gt))
    n_dets = np.array([len(d) for d in per_frame_dets[:n]], dtype=np.intp)
    n_gt = np.array([len(g) for g in per_frame_gt[:n]], dtype=np.intp)
    # per detection in scoring order: class, confidence, IOU row padded with -inf
    scored = np.empty((n_dets.sum(), 2))
    table = np.full((len(scored), n_gt.max(initial=0)), -np.inf)
    gt_classes = np.empty(n_gt.sum())
    d0 = g0 = 0  # the block's first detection and target
    for start in range(0, n, GT_BLOCK_FRAMES):
        block = slice(start, min(start + GT_BLOCK_FRAMES, n))
        k, g = n_dets[block], n_gt[block]
        dets = np.array([r for frame in per_frame_dets[block] for r in detection_rows(frame)],
                        dtype=float).reshape(-1, 6)
        # one stable sort: by frame, then by descending confidence
        dets = dets[np.lexsort((-dets[:, 5], np.repeat(np.arange(len(k)), k)))]
        gt = np.concatenate([np.empty((0, 6)), *per_frame_gt[block]])
        scored[d0:d0 + len(dets)] = dets[:, 4:]
        gt_classes[g0:g0 + len(gt)] = gt[:, 4]
        # a boolean mask fills row after row, each row's first g entries:
        # iou_table's (k, g) tables, row-major, frame after frame
        mask = np.arange(table.shape[1]) < np.repeat(g, k)[:, None]
        table[d0:d0 + len(dets)][mask] = iou_table(dets, k, gt, g)
        d0, g0 = d0 + len(dets), g0 + len(gt)
    tp_flags = rank_match(table, n_dets, thresholds) >= 0

    # one stable ranking by confidence serves every threshold's per-class AP
    ranked = np.argsort(-scored[:, 1], kind="stable")
    ranked_by_class = {int(cls): (ranked[scored[ranked, 0] == cls], int(count))
                       for cls, count in zip(*np.unique(gt_classes, return_counts=True))}
    out = []
    for thr, flags in zip(thresholds, tp_flags.T):
        tp_total = int(flags.sum())
        fp_total = len(flags) - tp_total
        fn_total = int(n_gt.sum()) - tp_total
        precision = tp_total / (tp_total + fp_total) if len(flags) else 0.0
        recall = tp_total / (tp_total + fn_total) if tp_total + fn_total else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        ap_per_class = {cls: average_precision(flags[idx], count)
                        for cls, (idx, count) in ranked_by_class.items()}
        mean_ap = float(np.mean(list(ap_per_class.values()))) if ap_per_class else 0.0
        out.append(ThresholdMetrics(
            iou=thr, tp=tp_total, fp=fp_total, fn=fn_total,
            precision=precision, recall=recall, f1=f1,
            ap_per_class=ap_per_class, mean_ap=mean_ap,
        ))
    return out


def evaluate_frames(per_frame_dets: list[list[Detection]], per_frame_gt: list[np.ndarray],
                    iou_threshold: float) -> ThresholdMetrics:
    """Score a whole run at one IOU threshold (counts plus per-class AP)."""
    return evaluate_thresholds(per_frame_dets, per_frame_gt, (iou_threshold,))[0]


def ground_truth_for(stream: list[FrameRecord], grid: GridShape, eval_cfg: EvalConfig,
                     noise: OracleNoiseSpec | None = None,
                     oracle_seed: int = 0) -> list[np.ndarray]:
    """Per-frame ground truth, each frame a (g, 6) array of rows: the
    records' own labels [cx, cy, w, h, class, object_id], or the oracle's
    decoded detections [cx, cy, w, h, class, conf] in descending confidence.

    Oracle tensors are synthesized and decoded GT_BLOCK_FRAMES frames at a
    time, equal to oracle_for_frame and decode_tensor frame by frame.
    """
    if eval_cfg.gt_source == "true_gt":
        return [rec.gt for rec in stream]
    noise = noise if noise is not None else OracleNoiseSpec()
    out = []
    for start in range(0, len(stream), GT_BLOCK_FRAMES):
        tensors = oracle_tensors(stream[start:start + GT_BLOCK_FRAMES], noise, grid, oracle_seed)
        out.extend(decode_tensors(tensors, CONF_THRESHOLD))
    return out


def evaluate_report(report: PipelineReport, stream: list[FrameRecord], grid: GridShape,
                    eval_cfg: EvalConfig, noise: OracleNoiseSpec | None = None,
                    oracle_seed: int = 0) -> EvalSummary:
    """Attach an evaluation over all configured IOU thresholds to a run report.

    A report shorter than its stream, from a stopped run, scores the prefix.
    """
    if len(report.detections) > len(stream):
        raise ValueError(f"report has {len(report.detections)} frames but its stream "
                         f"has only {len(stream)}")
    gt = ground_truth_for(stream[:len(report.detections)], grid, eval_cfg, noise, oracle_seed)
    summary = EvalSummary(
        gt_source=eval_cfg.gt_source,
        conf_threshold=CONF_THRESHOLD,
        per_threshold=evaluate_thresholds(report.detections, gt, eval_cfg.iou_thresholds),
    )
    report.evaluation = summary.to_dict()
    return summary


def sweep(stream: list[FrameRecord], grid: GridShape, variants: dict[str, PipelineConfig],
          eval_cfg: EvalConfig) -> list[dict]:
    """Run each named pipeline config on one stream and score it at every
    configured IOU threshold, one row per variant.

    Each variant runs in the mode its config names.  Ground truth is built
    once per distinct oracle noise and seed, not once per variant.  A run
    that stops on an error raises instead of scoring its partial output.
    """
    gt_by_oracle = {}
    rows = []
    for name, cfg in variants.items():
        oracle = (cfg.oracle_noise, cfg.effective_oracle_seed)
        if oracle not in gt_by_oracle:
            gt_by_oracle[oracle] = ground_truth_for(stream, grid, eval_cfg, *oracle)
        report = run_pipeline(stream, grid, cfg)
        if report.error:
            raise RuntimeError(f"variant {name!r} stopped: {report.error}")
        row = {"variant": name, "key_frames": report.n_key_frames,
               "key_fraction": report.key_fraction,
               "oracle_answer_fraction": report.oracle_answer_fraction, "fps": report.fps}
        for m in evaluate_thresholds(report.detections, gt_by_oracle[oracle],
                                     eval_cfg.iou_thresholds):
            row.update({f"ap@{m.iou:g}": m.mean_ap, f"f1@{m.iou:g}": m.f1,
                        f"tp@{m.iou:g}": m.tp, f"fp@{m.iou:g}": m.fp})
        rows.append(row)
    return rows


def bench_loss_cost(target_counts: list[int], trials: int, grid: GridShape,
                    seed: int = 0, cfg: DistillConfig | None = None) -> list[dict]:
    """Median wall-clock of the tensor-space loss vs the decode+NMS loss as
    the number of targets per frame grows.

    One warm-up call per loss is excluded from the medians; clocks are
    monotonic.
    """
    check_number(trials, "trials", "[1, inf)", integer=True)
    if max(target_counts, default=0) > grid.s * grid.s:
        raise ValueError(f"cannot place {max(target_counts)} objects on a {grid.s}x{grid.s} grid")
    cfg = cfg or DistillConfig()
    rng = np.random.default_rng(seed)
    cases = []
    for n in target_counts:
        cells = rng.choice(grid.s * grid.s, size=n, replace=False) if n else []
        gt = np.array([[(cell % grid.s + 0.5) / grid.s, (cell // grid.s + 0.5) / grid.s,
                        0.1, 0.1, rng.integers(grid.c), i]
                       for i, cell in enumerate(map(int, cells))], dtype=float).reshape(-1, 6)
        record = FrameRecord(frame_id=0, scene_id=0, features=None, gt=gt)  # the oracle reads no features
        oracle = oracle_for_frame(record, OracleNoiseSpec(), grid, seed)  # noise-free
        student = oracle + rng.normal(0.0, 0.05, size=oracle.shape)
        bounded_distill_loss(student, oracle, cfg)
        nms_distill_loss(student, oracle, gt)
        cases.append((n, student, oracle, gt))

    # trials interleaved across target counts so scheduler drift hits all
    # cells equally instead of biasing whole measurement blocks
    t_bounded = {n: [] for n in target_counts}
    t_nms = {n: [] for n in target_counts}
    for _ in range(trials):
        for n, student, oracle, gt in cases:
            t0 = time.perf_counter()
            bounded_distill_loss(student, oracle, cfg)
            t_bounded[n].append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            nms_distill_loss(student, oracle, gt)
            t_nms[n].append(time.perf_counter() - t0)
    return [
        {
            "n_targets": n,
            "bounded_ms": float(np.median(t_bounded[n]) * 1e3),
            "nms_ms": float(np.median(t_nms[n]) * 1e3),
        }
        for n in target_counts
    ]


def keyframe_histogram(report: PipelineReport, bin_size: int) -> list[int]:
    """Positive decisions counted per bin of consecutive frames."""
    check_number(bin_size, "bin_size", "[1, inf)", integer=True)
    flags = [1 if d["train"] else 0 for d in report.decisions]
    return [
        sum(flags[i:i + bin_size]) for i in range(0, len(flags), bin_size)
    ]
