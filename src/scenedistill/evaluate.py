"""Detection metrics, the config-variant sweep, the loss-cost benchmark, and
key-frame adaptivity analysis.

AP uses all-point (precision envelope) interpolation.  Ground truth can be
the stream's true labels or the oracle's own decoded detections, matching
how the adapted student is normally scored against the model it distills
from.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .detection import (
    Box,
    Detection,
    GridShape,
    GroundTruthObject,
    decode_tensors,
    greedy_match,
    iou_table,
    match_detections,  # re-exported: evaluation's name for the matcher
)
from .distill import DistillConfig, bounded_distill_loss, nms_distill_loss
from .pipeline import PipelineConfig, PipelineReport, run_pipeline
from .simstream import FrameRecord, OracleNoiseSpec, oracle_for_frame, oracle_tensors

GT_SOURCES = ("true_gt", "oracle_as_gt")
# oracle ground truth is synthesized and decoded this many frames at a time;
# on a 1000-frame 6x6 stream blocks of 16 to 256 frames take about the same
# time, and peak RSS rose by 2.0 MB at 32 and 11 MB at 1000, against 1.8 MB
# frame by frame
GT_BLOCK_FRAMES = 32


@dataclass(frozen=True)
class EvalConfig:
    iou_thresholds: tuple[float, ...] = (0.5, 0.6, 0.75)
    conf_threshold: float = 0.5
    gt_source: str = "true_gt"
    oracle_conf_threshold: float | None = None  # decode threshold for oracle-as-GT

    def __post_init__(self):
        if self.gt_source not in GT_SOURCES:
            raise ValueError(f"unknown gt_source {self.gt_source!r}, expected one of {GT_SOURCES}")
        thr = self.iou_thresholds
        if any(not 0.0 < t < 1.0 for t in thr) or list(thr) != sorted(set(thr)):
            raise ValueError(f"iou_thresholds must be strictly increasing in (0, 1), got {thr}")

    @property
    def gt_conf(self) -> float:
        return self.oracle_conf_threshold if self.oracle_conf_threshold is not None else self.conf_threshold


def average_precision(tp_flags: list[bool], n_gt: int) -> float:
    """Area under the precision-recall curve, all-point interpolation.

    tp_flags must be ordered by descending confidence.  With no ground truth,
    returns 1.0 for an empty ranking and 0.0 as soon as any false positive
    exists.
    """
    if n_gt == 0:
        return 1.0 if not tp_flags else 0.0
    if not tp_flags:
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


def evaluate_thresholds(per_frame_dets: list[list[Detection]],
                        per_frame_gt: list[list[GroundTruthObject]],
                        thresholds: Sequence[float]) -> list[ThresholdMetrics]:
    """Score a whole run at each IOU threshold (counts plus per-class AP).

    Each frame's detections are sorted and their IOUs against the frame's
    ground truth computed once; only the greedy step runs per threshold.
    Equal to scoring each threshold on its own with evaluate_frames.
    """
    n_gt_per_class: dict[int, int] = {}
    confidences, classes = [], []
    tp_flags = [[] for _ in thresholds]  # per threshold, per detection in scoring order
    fn_totals = [0] * len(thresholds)
    for dets, gt in zip(per_frame_dets, per_frame_gt):
        for obj in gt:
            n_gt_per_class[obj.class_id] = n_gt_per_class.get(obj.class_id, 0) + 1
        order = sorted(dets, key=lambda d: -d.confidence)
        confidences.extend(d.confidence for d in order)
        classes.extend(d.class_id for d in order)
        table = iou_table(order, gt)
        for t, thr in enumerate(thresholds):
            matched = [j >= 0 for j in greedy_match(table, thr)]
            tp_flags[t].extend(matched)
            fn_totals[t] += len(gt) - sum(matched)

    # one stable ranking by confidence serves every threshold's per-class AP
    ranked = sorted(range(len(confidences)), key=lambda i: -confidences[i])
    ranked_by_class = {cls: [i for i in ranked if classes[i] == cls]
                       for cls in sorted(n_gt_per_class)}
    out = []
    for thr, flags, fn_total in zip(thresholds, tp_flags, fn_totals):
        tp_total = sum(flags)
        fp_total = len(flags) - tp_total
        precision = tp_total / (tp_total + fp_total) if flags else 0.0
        recall = tp_total / (tp_total + fn_total) if tp_total + fn_total else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        ap_per_class = {
            cls: average_precision([flags[i] for i in idx], n_gt_per_class[cls])
            for cls, idx in ranked_by_class.items()
        }
        mean_ap = float(np.mean(list(ap_per_class.values()))) if ap_per_class else 0.0
        out.append(ThresholdMetrics(
            iou=thr, tp=tp_total, fp=fp_total, fn=fn_total,
            precision=precision, recall=recall, f1=f1,
            ap_per_class=ap_per_class, mean_ap=mean_ap,
        ))
    return out


def evaluate_frames(per_frame_dets: list[list[Detection]],
                    per_frame_gt: list[list[GroundTruthObject]],
                    iou_threshold: float) -> ThresholdMetrics:
    """Score a whole run at one IOU threshold (counts plus per-class AP)."""
    return evaluate_thresholds(per_frame_dets, per_frame_gt, (iou_threshold,))[0]


def ground_truth_for(stream: list[FrameRecord], grid: GridShape, eval_cfg: EvalConfig,
                     noise: OracleNoiseSpec | None = None,
                     oracle_seed: int = 0) -> list[list[GroundTruthObject]]:
    """Per-frame ground truth: labels, or the oracle's decoded detections.

    Oracle tensors are synthesized and decoded GT_BLOCK_FRAMES frames at a
    time, equal to oracle_for_frame and decode_tensor frame by frame.
    """
    if eval_cfg.gt_source == "true_gt":
        return [rec.gt for rec in stream]
    noise = noise if noise is not None else OracleNoiseSpec()
    out = []
    for start in range(0, len(stream), GT_BLOCK_FRAMES):
        tensors = oracle_tensors(stream[start:start + GT_BLOCK_FRAMES], noise, grid, oracle_seed)
        out.extend(
            [GroundTruthObject(box=d.box, class_id=d.class_id, object_id=i)
             for i, d in enumerate(dets)]
            for dets in decode_tensors(tensors, grid, eval_cfg.gt_conf)
        )
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
        conf_threshold=eval_cfg.conf_threshold,
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
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if max(target_counts, default=0) > grid.s * grid.s:
        raise ValueError(f"cannot place {max(target_counts)} objects on a {grid.s}x{grid.s} grid")
    cfg = cfg or DistillConfig()
    rng = np.random.default_rng(seed)
    cases = []
    for n in target_counts:
        cells = rng.choice(grid.s * grid.s, size=n, replace=False) if n else []
        gt = []
        for i, cell in enumerate(cells):
            row, col = divmod(int(cell), grid.s)
            gt.append(GroundTruthObject(
                box=Box((col + 0.5) / grid.s, (row + 0.5) / grid.s, 0.1, 0.1),
                class_id=int(rng.integers(grid.c)), object_id=i,
            ))
        record = FrameRecord(frame_id=0, scene_id=0, features=None, gt=gt)  # the oracle reads no features
        oracle = oracle_for_frame(record, OracleNoiseSpec(), grid, seed)  # noise-free
        student = oracle + rng.normal(0.0, 0.05, size=oracle.shape)
        bounded_distill_loss(student, oracle, cfg)
        nms_distill_loss(student, oracle, gt, grid)
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
            nms_distill_loss(student, oracle, gt, grid)
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
    if bin_size < 1:
        raise ValueError(f"bin_size must be >= 1, got {bin_size}")
    flags = [1 if d["train"] else 0 for d in report.decisions]
    return [
        sum(flags[i:i + bin_size]) for i in range(0, len(flags), bin_size)
    ]
