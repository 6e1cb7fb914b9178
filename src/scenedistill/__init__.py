"""Streaming object detection with online scene-adaptive distillation.

A light student detector answers every frame while a heavier oracle,
consulted only on selectively chosen key frames, retrains the student's
detection head to the current scene.  The package provides the grid
detection core, toy differentiable models, the gated distillation loss,
the key-frame selector, synthetic scene streams and oracle, one pipeline
runner with sequential and parallel modes, and an evaluation harness.
The names below are the package-level surface; everything else is
imported from its submodule.
"""

from .detection import GridShape
from .distill import DistillConfig
from .evaluate import EvalConfig, evaluate_report
from .pipeline import PipelineConfig, run_pipeline
from .simstream import (
    OracleNoiseSpec,
    SceneSpec,
    StreamConfig,
    attach_oracle,
    generate_stream,
    read_trace,
    write_trace,
)

__all__ = [
    "DistillConfig",
    "EvalConfig",
    "GridShape",
    "OracleNoiseSpec",
    "PipelineConfig",
    "SceneSpec",
    "StreamConfig",
    "attach_oracle",
    "evaluate_report",
    "generate_stream",
    "read_trace",
    "run_pipeline",
    "write_trace",
]

__version__ = "0.1.0"
