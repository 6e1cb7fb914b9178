"""End-to-end stream runner and checkpointing.

run_pipeline runs one frame loop for every mode, and every frame goes
through one routine: backbone, the adaptive decoder head, its decoded and
deduplicated detections, then the selector's decision.  run_pipeline owns
the decoder weights.  A key frame becomes a distillation event: the
oracle's answer, then distill_step on the current weights, which it replaces
unless the event failed, and the selector's feedback.  Sequential mode runs
the whole event inline and waits out the oracle's delay.  Parallel mode
never waits: the frame loop keeps the oracle's schedule, one key frame in
service and at most queue_capacity waiting (a new one past that drops the
oldest waiting), and trains on each answer at the first frame boundary or
key-frame hand-off after it is due; the next frame is the first to use the
new weights.  A failed event stops the run: nothing is trained after it
and the key frames still waiting count as dropped.  frozen_student and
mixed are non-learning baselines.  The oracle's compute cost is simulated
by a configurable delay; the package starts no thread.
"""

from __future__ import annotations

import collections
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .detection import Box, Detection, GridShape, decode_tensor, nms
from .distill import DistillConfig, FeedbackRecord, distill_step
from .models import (
    Backbone,
    DecoderParams,
    LstmParams,
    decoder_forward,
    init_decoder,
)
from .selector import (
    AdaptiveSelector,
    Decision,
    NeverSelector,
    PeriodicSelector,
    RandomSelector,
    SceneChangeSelector,
    SelectorConfig,
)
from .simstream import FrameRecord, OracleNoiseSpec, atomic_open, oracle_for_frame

MODES = ("sequential", "parallel", "frozen_student", "mixed")
SELECTORS = ("adaptive", "random", "scene_change", "periodic", "never")


@dataclass
class PipelineConfig:
    seed: int = 0
    mode: str = "sequential"
    selector: str = "adaptive"
    random_prob: float = 0.27          # random selector trigger rate
    change_threshold: float = 0.1      # scene-change selector threshold
    period: int = 4                    # periodic selector stride
    p_oracle: float = 0.27             # mixed mode: fraction answered by oracle
    oracle_delay: float = 0.0          # simulated oracle compute time (s)
    queue_capacity: int = 4
    conf_threshold: float = 0.5
    iou_threshold: float = 0.5
    decoder_hidden: int = 32
    distill: DistillConfig = field(default_factory=DistillConfig)
    selector_cfg: SelectorConfig = field(default_factory=SelectorConfig)
    oracle_noise: OracleNoiseSpec = field(default_factory=OracleNoiseSpec)
    oracle_seed: int | None = None     # defaults to seed
    init_checkpoint: str | None = None  # start the adaptive decoder from here
    checkpoint_out: str | None = None   # save decoder + selector state at run end

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        if self.selector not in SELECTORS:
            raise ValueError(f"unknown selector {self.selector!r}, expected one of {SELECTORS}")
        if self.queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if not 0.0 <= self.p_oracle <= 1.0:
            raise ValueError(f"p_oracle must be in [0, 1], got {self.p_oracle}")

    @property
    def effective_oracle_seed(self) -> int:
        """The oracle's seed: oracle_seed, or seed when that is unset."""
        return self.seed if self.oracle_seed is None else self.oracle_seed


@dataclass
class PipelineReport:
    mode: str
    selector: str
    n_frames: int
    fps: float
    key_fraction: float
    decisions: list[dict]
    latencies: list[float]
    feedbacks: list[dict]
    detections: list[list[Detection]]
    versions: list[int]
    dropped_key_frames: int = 0
    oracle_answer_fraction: float = 0.0
    evaluation: dict | None = None
    error: str | None = None

    @property
    def n_key_frames(self) -> int:
        return sum(1 for d in self.decisions if d["train"])

    def to_dict(self) -> dict:
        out = asdict(self)
        out["detections"] = [
            [[d.box.cx, d.box.cy, d.box.w, d.box.h, d.class_id, d.confidence] for d in frame]
            for frame in self.detections
        ]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineReport":
        dets = [
            [Detection(box=Box(v[0], v[1], v[2], v[3]), class_id=int(v[4]), confidence=v[5])
             for v in frame]
            for frame in data["detections"]
        ]
        return cls(**{**data, "detections": dets})


def merge_detections(out: np.ndarray, shape: GridShape, conf_threshold: float,
                     iou_threshold: float) -> list[Detection]:
    """The decoder output's detections, deduplicated by class-aware NMS."""
    return nms(decode_tensor(out, shape, conf_threshold), iou_threshold)


def _build_runtime(stream: list[FrameRecord], grid: GridShape, cfg: PipelineConfig):
    """Backbone, the adaptive head's initial weights, selector."""
    d = stream[0].features.shape[2]
    adapted, selector = init_decoder(d, cfg.decoder_hidden, grid, seed=cfg.seed + 1), None
    if cfg.init_checkpoint is not None:
        adapted, selector = checkpoint_load(cfg.init_checkpoint)
        if adapted.w1.shape[0] != d or adapted.w2.shape[1] != grid.channels:
            raise CheckpointError(
                f"checkpoint {cfg.init_checkpoint} does not fit the stream: its decoder has "
                f"w1 {adapted.w1.shape} and w2 {adapted.w2.shape}, the stream needs "
                f"({d}, hidden) and (hidden, {grid.channels})")
    if cfg.mode in ("frozen_student", "mixed"):
        selector = NeverSelector()  # non-learning baselines never retrain
    elif cfg.selector == "adaptive":
        selector = selector or AdaptiveSelector(2 * d, cfg.selector_cfg, seed=cfg.seed + 2)
    elif cfg.selector == "random":
        selector = RandomSelector(cfg.random_prob, tau=cfg.selector_cfg.tau, seed=cfg.seed + 2)
    elif cfg.selector == "scene_change":
        selector = SceneChangeSelector(cfg.change_threshold, tau=cfg.selector_cfg.tau)
    elif cfg.selector == "periodic":
        selector = PeriodicSelector(cfg.period, tau=cfg.selector_cfg.tau)
    else:
        selector = NeverSelector()
    return Backbone(d, seed=cfg.seed), adapted, selector


def _decision_row(decision: Decision) -> dict:
    return {
        "frame_id": decision.frame_id,
        "train": decision.train,
        "lstm_vote": decision.lstm_vote,
        "random_vote": decision.random_vote,
        "suppressed": decision.suppressed,
        "p": decision.p,
    }


def _feedback_row(fb: FeedbackRecord) -> dict:
    return {
        "frame_id": fb.frame_id,
        "loss_before": fb.loss_before,
        "loss_after": fb.loss_after,
        "delta_l": fb.delta_l,
        "error": fb.error,
    }


def run_pipeline(stream: list[FrameRecord], grid: GridShape, cfg: PipelineConfig) -> PipelineReport:
    if not stream:
        raise ValueError("empty stream")
    backbone, params, selector = _build_runtime(stream, grid, cfg)
    oracle_seed = cfg.effective_oracle_seed
    mix_rng = np.random.default_rng(cfg.seed + 3)
    decisions, latencies, feedbacks, detections, versions = [], [], [], [], []
    oracle_frames = dropped = 0
    error = None
    # parallel mode: the key frames the oracle has not answered yet, the
    # first in service and due at `due`
    pending = collections.deque()
    due = 0.0

    def oracle(rec: FrameRecord, delay: float = cfg.oracle_delay) -> np.ndarray:
        if delay > 0:
            time.sleep(delay)
        return oracle_for_frame(rec, cfg.oracle_noise, grid, oracle_seed)

    def distill_event(rec: FrameRecord, feats: np.ndarray, target: np.ndarray) -> None:
        """Train the current weights on one oracle answer, replace them unless
        the event failed, and feed it back; the first failed event names the error."""
        nonlocal params, error
        new_params, fb = distill_step(params, feats, target, cfg.distill, frame_id=rec.frame_id)
        if fb.error is None:
            params = new_params
        feedbacks.append(_feedback_row(fb))
        selector.apply_feedback(fb)
        if fb.error is not None:
            error = error or f"frame {fb.frame_id}: {fb.error}"

    def advance(now: float) -> None:
        """Train on each key frame the oracle has answered by `now`, at a
        frame boundary or a key frame's hand-off; the next frame is the first
        to use the new weights.  The oracle starts on the next waiting one as
        soon as it answers one.  Nothing is trained after a failed event."""
        nonlocal due
        while error is None and pending and due <= now:
            rec, feats = pending.popleft()
            due += cfg.oracle_delay
            distill_event(rec, feats, oracle(rec, delay=0.0))

    def submit(rec: FrameRecord, feats: np.ndarray) -> None:
        """Hand a key frame to the oracle, after training on the answers due
        by now (first used by the next frame): served at once if the oracle
        is idle, else waiting, dropping the oldest waiting one past
        queue_capacity."""
        nonlocal due, dropped
        now = time.perf_counter()
        advance(now)
        if not pending:
            due = now + cfg.oracle_delay
        elif len(pending) > cfg.queue_capacity:
            stale, _ = pending[1]
            del pending[1]
            dropped += 1
            selector.apply_feedback(FeedbackRecord(stale.frame_id, 0.0, 0.0, error="dropped"))
        # feats is fresh per frame, so the event trains on the exact frame
        # that triggered selection even as inference advances.
        pending.append((rec, feats))

    def infer(rec: FrameRecord) -> list[Detection]:
        nonlocal oracle_frames
        feats, summary = backbone.forward(rec.features)
        versions.append(params.version)
        if cfg.mode == "mixed" and mix_rng.random() < cfg.p_oracle:
            dets = decode_tensor(oracle(rec), grid, cfg.conf_threshold)
            oracle_frames += 1
            decision = Decision(rec.frame_id, train=False)
        else:
            dets = merge_detections(decoder_forward(params, feats), grid,
                                    cfg.conf_threshold, cfg.iou_threshold)
            decision = selector.decide(rec.frame_id, feats, summary)
            if decision.train and cfg.mode == "parallel":
                submit(rec, feats)
            elif decision.train:
                distill_event(rec, feats, oracle(rec))
        decisions.append(_decision_row(decision))
        return dets

    t_start = time.perf_counter()
    for rec in stream:
        t0 = time.perf_counter()
        advance(t0)
        if error is not None:
            break
        detections.append(infer(rec))
        latencies.append(time.perf_counter() - t0)
    elapsed = time.perf_counter() - t_start
    # the key frames still in service or waiting are trained without waiting
    # out their delays, unless an event failed
    advance(float("inf"))
    dropped += len(pending)

    if cfg.checkpoint_out is not None:
        checkpoint_save(cfg.checkpoint_out, params,
                        selector if isinstance(selector, AdaptiveSelector) else None)
    n = len(decisions)
    return PipelineReport(
        mode=cfg.mode,
        selector=selector.kind,
        n_frames=n,
        fps=n / elapsed if elapsed > 0 else float("inf"),
        key_fraction=sum(1 for d in decisions if d["train"]) / n if n else 0.0,
        decisions=decisions,
        latencies=latencies,
        feedbacks=feedbacks,
        detections=detections,
        versions=versions,
        dropped_key_frames=dropped,
        oracle_answer_fraction=oracle_frames / n if n else 0.0,
        error=error,
    )


CHECKPOINT_VERSION = 1


def checkpoint_save(path: str, decoder: DecoderParams, selector: AdaptiveSelector | None = None) -> None:
    """Versioned JSON checkpoint of decoder weights and selector state."""
    doc: dict = {
        "version": CHECKPOINT_VERSION,
        "decoder": {
            "w1": decoder.w1.tolist(),
            "b1": decoder.b1.tolist(),
            "w2": decoder.w2.tolist(),
            "b2": decoder.b2.tolist(),
            "param_version": decoder.version,
        },
        "selector": None,
    }
    if selector is not None:
        doc["selector"] = {
            "p": selector.p,
            "frames_since_train": selector.frames_since_train,
            "cfg": asdict(selector.cfg),
            "lstm": {
                "w_gates": selector.lstm.w_gates.tolist(),
                "b_gates": selector.lstm.b_gates.tolist(),
                "w_out": selector.lstm.w_out.tolist(),
                "b_out": selector.lstm.b_out,
                "h": selector.lstm.h.tolist(),
                "c": selector.lstm.c.tolist(),
            },
            "rng_state": selector.rng.bit_generator.state,
        }
    with atomic_open(path) as f:
        json.dump(doc, f)


class CheckpointError(ValueError):
    pass


def checkpoint_load(path: str) -> tuple[DecoderParams, AdaptiveSelector | None]:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {doc.get('version')!r} in {path}"
        )
    try:
        dec = doc["decoder"]
        decoder = DecoderParams(
            w1=np.asarray(dec["w1"]),
            b1=np.asarray(dec["b1"]),
            w2=np.asarray(dec["w2"]),
            b2=np.asarray(dec["b2"]),
            version=int(dec["param_version"]),
        )
        selector = None
        if doc.get("selector") is not None:
            sel = doc["selector"]
            cfg = SelectorConfig(**sel["cfg"])
            lstm = sel["lstm"]
            summary_dim = len(np.asarray(lstm["w_gates"])[0]) - len(lstm["h"])
            selector = AdaptiveSelector(summary_dim, cfg, seed=0)
            selector.p = sel["p"]
            selector.frames_since_train = sel["frames_since_train"]
            selector.lstm = LstmParams(
                w_gates=np.asarray(lstm["w_gates"]),
                b_gates=np.asarray(lstm["b_gates"]),
                w_out=np.asarray(lstm["w_out"]),
                b_out=float(lstm["b_out"]),
                h=np.asarray(lstm["h"]),
                c=np.asarray(lstm["c"]),
            )
            selector.rng = np.random.default_rng()
            selector.rng.bit_generator.state = sel["rng_state"]
    except (KeyError, TypeError, IndexError, ValueError) as e:
        raise CheckpointError(f"truncated or malformed checkpoint {path}: {e}") from e
    w1, b1, w2, b2 = decoder.w1, decoder.b1, decoder.w2, decoder.b2
    if not (w1.ndim == w2.ndim == 2 and b1.shape == w1.shape[1:]
            and w2.shape[0] == w1.shape[1] and b2.shape == w2.shape[1:]):
        raise CheckpointError(f"decoder shapes in checkpoint {path} disagree: w1 {w1.shape}, "
                              f"b1 {b1.shape}, w2 {w2.shape}, b2 {b2.shape}")
    return decoder, selector
