"""Streaming object detection with online scene-adaptive distillation.

A light student detector answers every frame while a heavier oracle,
consulted only on selectively chosen key frames, retrains the student's
detection head to the current scene.  The package provides the grid
detection core, toy differentiable models, the gated distillation loss,
the key-frame selector, synthetic scene streams with a synthetic oracle,
sequential and parallel pipeline runners, and an evaluation harness.
"""

from .detection import (
    Box,
    Detection,
    GridShape,
    GroundTruthObject,
    decode_tensor,
    iou,
    match_detections,
    nms,
    partition_cells,
)
from .distill import (
    DistillConfig,
    FeedbackRecord,
    bounded_distill_loss,
    compose_target,
    distill_step,
    general_distill_loss,
    nms_distill_loss,
)
from .evaluate import (
    EvalConfig,
    EvalSummary,
    average_precision,
    bench_loss_cost,
    evaluate_frames,
    evaluate_report,
    evaluate_thresholds,
    keyframe_histogram,
    sweep,
)
from .models import Backbone, DecoderParams, FeatureFrame, LstmParams, ParamStore
from .pipeline import (
    PipelineConfig,
    PipelineReport,
    checkpoint_load,
    checkpoint_save,
    merge_detections,
    run_pipeline,
)
from .selector import (
    AdaptiveSelector,
    Decision,
    PeriodicSelector,
    RandomSelector,
    SceneChangeSelector,
    SelectorConfig,
)
from .simstream import (
    FrameRecord,
    OracleNoiseSpec,
    SceneSpec,
    StreamConfig,
    attach_oracle,
    generate_stream,
    read_trace,
    scene_change_frames,
    write_trace,
)

__all__ = [
    "AdaptiveSelector",
    "Backbone",
    "Box",
    "DecoderParams",
    "Decision",
    "Detection",
    "DistillConfig",
    "EvalConfig",
    "EvalSummary",
    "FeatureFrame",
    "FeedbackRecord",
    "FrameRecord",
    "GridShape",
    "GroundTruthObject",
    "LstmParams",
    "OracleNoiseSpec",
    "ParamStore",
    "PeriodicSelector",
    "PipelineConfig",
    "PipelineReport",
    "RandomSelector",
    "SceneChangeSelector",
    "SceneSpec",
    "SelectorConfig",
    "StreamConfig",
    "attach_oracle",
    "average_precision",
    "bench_loss_cost",
    "bounded_distill_loss",
    "checkpoint_load",
    "checkpoint_save",
    "compose_target",
    "decode_tensor",
    "distill_step",
    "evaluate_frames",
    "evaluate_report",
    "evaluate_thresholds",
    "general_distill_loss",
    "generate_stream",
    "iou",
    "keyframe_histogram",
    "match_detections",
    "merge_detections",
    "nms",
    "nms_distill_loss",
    "partition_cells",
    "read_trace",
    "run_pipeline",
    "scene_change_frames",
    "sweep",
    "write_trace",
]

__version__ = "0.1.0"
