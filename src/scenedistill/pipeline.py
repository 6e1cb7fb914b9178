"""End-to-end stream runner and checkpointing.

A Session runs one frame loop for every mode on its caller's clock, and
run_pipeline drives one on the wall clock.  Every frame goes through one
routine: backbone, the adaptive decoder head, its decoded and deduplicated
detections, then the selector's decision.  The session owns the decoder
weights.  A key frame becomes a distillation event: the oracle's answer,
then distill_step on the current weights, which it replaces unless the
event failed, and the selector's feedback.  Sequential mode runs the whole
event inline and waits out the oracle's delay.  Parallel mode never waits:
the session keeps the oracle's schedule, one key frame in service and at
most queue_capacity waiting (a new one past that drops the oldest waiting),
and acts only at frame boundaries.  A key frame is handed over at the
boundary after its frame, and an answer is trained at the first frame
boundary after it is due; the next frame is the first to use the new
weights.  A failed event stops the run: nothing is trained after it and the
key frames still waiting count as dropped.  frozen_student and mixed are
non-learning baselines.  The oracle's compute cost is simulated by a
configurable delay; the package starts no thread.
"""

from __future__ import annotations

import collections
import json
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .detection import (CONF_THRESHOLD, NMS_IOU, Detection, GridShape, NonFinite, check_number,
                        check_numbers, decode_tensor, detection_rows, detections, nms)
from .distill import DistillConfig, FeedbackRecord, distill_step
from .models import Backbone, DecoderParams, Workspace, decoder_forward, init_decoder
from .selector import (
    AdaptiveSelector,
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
    seed: int = 0  # numpy seeds only with integers >= 0; the oracle's key words are 64 bits
    mode: str = "sequential"
    selector: str = "adaptive"
    random_prob: float = 0.27          # random selector trigger rate
    change_threshold: float = 0.1      # scene-change selector threshold
    period: int = 4                    # periodic selector stride
    p_oracle: float = 0.27             # mixed mode: fraction answered by oracle
    oracle_delay: float = 0.0          # simulated oracle compute time (s)
    queue_capacity: int = 4
    decoder_hidden: int = 32
    distill: DistillConfig = field(default_factory=DistillConfig)
    selector_cfg: SelectorConfig = field(default_factory=SelectorConfig)
    oracle_noise: OracleNoiseSpec = field(default_factory=OracleNoiseSpec)
    oracle_seed: int | None = None     # defaults to seed
    init_checkpoint: str | None = None  # start the adaptive decoder from here
    checkpoint_out: str | None = None   # save the adaptive decoder at run end

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        if self.selector not in SELECTORS:
            raise ValueError(f"unknown selector {self.selector!r}, expected one of {SELECTORS}")
        check_number(self.seed, "seed", f"[0, {2**64})", integer=True)
        check_number(self.effective_oracle_seed, "oracle_seed", f"[0, {2**64})", integer=True)
        check_number(self.random_prob, "random_prob", "[0, 1]")
        check_number(self.change_threshold, "change_threshold")
        check_number(self.period, "period", "[1, inf)", integer=True)
        check_number(self.p_oracle, "p_oracle", "[0, 1]")
        check_number(self.oracle_delay, "oracle_delay", "[0, inf)")
        check_number(self.queue_capacity, "queue_capacity", "[1, inf)", integer=True)
        check_number(self.decoder_hidden, "decoder_hidden", "[1, inf)", integer=True)

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
        """JSON values: detections as detection_rows, the rest not copied."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["detections"] = [detection_rows(frame) for frame in self.detections]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineReport":
        """The report to_dict wrote.  A row that is not 6 finite numbers [cx,
        cy, w, h, class, conf] with w, h > 0, an integral class >= 0 and conf
        in [0, 1] raises ValueError naming its frame and row."""
        for f, frame in enumerate(data["detections"]):
            for i, v in enumerate(frame):
                try:
                    row = check_numbers(v, "row")
                except ValueError:
                    row = None
                if row is None or not (row.shape == (6,) and row[2] > 0 and row[3] > 0
                                       and row[4] >= 0 and row[4] % 1 == 0 and 0 <= row[5] <= 1):
                    raise ValueError(f"frame {f} row {i}: {v!r} is not a detection")
        return cls(**{**data, "detections": [detections(frame) for frame in data["detections"]]})


def merge_detections(out: np.ndarray) -> list[list]:
    """The decoder output's detection rows, deduplicated by class-aware NMS."""
    return nms(decode_tensor(out, CONF_THRESHOLD), NMS_IOU)


class Session:
    """One run on its caller's clock: step(rec, now) answers the frame that
    arrives at now and close(now) ends the run.  Only parallel mode's schedule
    reads now; latencies and fps are wall time."""

    def __init__(self, feature_dim: int, grid: GridShape, cfg: PipelineConfig):
        d = feature_dim
        if cfg.init_checkpoint is None:
            adapted = init_decoder(d, cfg.decoder_hidden, grid, seed=cfg.seed + 1)
        else:
            adapted = checkpoint_load(cfg.init_checkpoint)
            if adapted.w1.shape[0] != d or adapted.w2.shape[1] != grid.channels:
                raise CheckpointError(
                    f"checkpoint {cfg.init_checkpoint} does not fit the stream: its decoder has "
                    f"w1 {adapted.w1.shape} and w2 {adapted.w2.shape}, the stream needs "
                    f"({d}, hidden) and (hidden, {grid.channels})")
        if cfg.mode in ("frozen_student", "mixed"):
            selector = NeverSelector()  # non-learning baselines never retrain
        elif cfg.selector == "adaptive":
            selector = AdaptiveSelector(2 * d, cfg.selector_cfg, seed=cfg.seed + 2)
        elif cfg.selector == "random":
            selector = RandomSelector(cfg.random_prob, tau=cfg.selector_cfg.tau, seed=cfg.seed + 2)
        elif cfg.selector == "scene_change":
            selector = SceneChangeSelector(cfg.change_threshold, tau=cfg.selector_cfg.tau)
        elif cfg.selector == "periodic":
            selector = PeriodicSelector(cfg.period, tau=cfg.selector_cfg.tau)
        else:
            selector = NeverSelector()
        self.backbone, self.params, self.selector = Backbone(d, seed=cfg.seed), adapted, selector
        # the buffers of every frame's decoder forward and every event's steps
        self.ws = Workspace(adapted, grid.s * grid.s)
        self.grid, self.cfg, self.oracle_seed = grid, cfg, cfg.effective_oracle_seed
        self.mix_rng = np.random.default_rng(cfg.seed + 3)
        self.decisions, self.latencies, self.feedbacks, self.detections, self.versions = (
            [], [], [], [], [])
        self.oracle_frames, self.dropped, self.error = 0, 0, None
        # parallel mode: the key frames the oracle has not answered yet, the
        # first in service and due at `due`, and the last frame's key frame
        self.pending, self.due, self.handoff = collections.deque(), 0.0, None
        self.start = time.perf_counter()

    def _oracle(self, rec: FrameRecord, delay: float) -> np.ndarray:
        if delay > 0:
            time.sleep(delay)
        return oracle_for_frame(rec, self.cfg.oracle_noise, self.grid, self.oracle_seed)

    def _distill(self, rec: FrameRecord, feats: np.ndarray, target: np.ndarray) -> None:
        """Train the current weights on one oracle answer, replace them unless
        the event failed, and feed it back; the first failed event names the error."""
        new_params, fb = distill_step(self.params, feats, target, self.cfg.distill,
                                      frame_id=rec.frame_id, ws=self.ws)
        if fb.error is None:
            self.params = new_params
        self.feedbacks.append({**vars(fb), "delta_l": fb.delta_l})
        self.selector.apply_feedback(fb)
        if fb.error is not None:
            self.error = self.error or f"frame {fb.frame_id}: {fb.error}"

    def _advance(self, now: float) -> None:
        """Parallel mode's schedule at the frame boundary now: train on each
        answer due by now, hand the last frame's key frame to the oracle
        (served at once if it is idle, else waiting, dropping the oldest
        waiting one past queue_capacity), then train on it if it is due.  The
        oracle serves the next waiting one as soon as it answers one.  Nothing
        is trained after a failed event."""
        cfg, pending = self.cfg, self.pending
        for handoff in (self.handoff, None):  # train, hand over, train again
            while self.error is None and pending and self.due <= now:
                rec, feats = pending.popleft()
                self.due += cfg.oracle_delay
                self._distill(rec, feats, self._oracle(rec, 0.0))
            if handoff is not None:
                if not pending:
                    self.due = now + cfg.oracle_delay
                elif len(pending) > cfg.queue_capacity:
                    stale, _ = pending[1]
                    del pending[1]
                    self.dropped += 1
                    self.selector.apply_feedback(
                        FeedbackRecord(stale.frame_id, 0.0, 0.0, error="dropped"))
                pending.append(handoff)
        self.handoff = None

    def step(self, rec: FrameRecord, now: float) -> list[Detection] | None:
        """The detections of the frame that arrives at now, or None once an
        event has failed; the weights trained at now are the first it uses."""
        t0 = time.perf_counter()
        if self.handoff is not None or self.pending and self.due <= now:  # else nothing to do
            self._advance(now)
        if self.error is not None:
            return None
        cfg = self.cfg
        feats, summary = self.backbone.forward(rec.features)
        self.versions.append(self.params.version)
        if cfg.mode == "mixed" and self.mix_rng.random() < cfg.p_oracle:
            rows = decode_tensor(self._oracle(rec, cfg.oracle_delay), CONF_THRESHOLD)
            self.oracle_frames += 1
        else:
            rows = merge_detections(decoder_forward(self.params, feats, self.ws))
        decision = self.selector.decide(rec.frame_id, feats, summary)
        # feats is fresh per frame, not the workspace's copy, so the event
        # trains on the exact frame that triggered selection even as
        # inference advances, and a selector may keep it.
        if decision.train and cfg.mode == "parallel":
            self.handoff = (rec, feats)
        elif decision.train:
            self._distill(rec, feats, self._oracle(rec, cfg.oracle_delay))
        dets = detections(rows)
        self.decisions.append(dict(vars(decision)))
        self.detections.append(dets)
        self.latencies.append(time.perf_counter() - t0)
        return dets

    def close(self, now: float) -> PipelineReport:
        """The run's report.  The last key frame is handed over at now, and
        those still in service or waiting are trained without waiting out
        their delays, unless an event failed; then they count as dropped."""
        elapsed = time.perf_counter() - self.start
        self._advance(now)
        self._advance(float("inf"))
        self.dropped += len(self.pending)
        cfg, n = self.cfg, len(self.decisions)
        if cfg.checkpoint_out is not None:
            checkpoint_save(cfg.checkpoint_out, self.params)
        return PipelineReport(
            mode=cfg.mode, selector=self.selector.kind, n_frames=n,
            fps=n / elapsed if elapsed > 0 else float("inf"),
            key_fraction=sum(1 for d in self.decisions if d["train"]) / n if n else 0.0,
            decisions=self.decisions, latencies=self.latencies, feedbacks=self.feedbacks,
            detections=self.detections, versions=self.versions, dropped_key_frames=self.dropped,
            oracle_answer_fraction=self.oracle_frames / n if n else 0.0, error=self.error)


def run_pipeline(stream: list[FrameRecord], grid: GridShape, cfg: PipelineConfig) -> PipelineReport:
    """A Session over the stream on the wall clock."""
    if not stream:
        raise ValueError("empty stream")
    session = Session(stream[0].features.shape[2], grid, cfg)
    for rec in stream:
        if session.step(rec, time.perf_counter()) is None:
            break
    return session.close(time.perf_counter())


CHECKPOINT_VERSION = 1


def checkpoint_save(path: str, decoder: DecoderParams) -> None:
    """Versioned JSON checkpoint of the decoder weights."""
    doc = {
        "version": CHECKPOINT_VERSION,
        "decoder": {
            "w1": decoder.w1.tolist(),
            "b1": decoder.b1.tolist(),
            "w2": decoder.w2.tolist(),
            "b2": decoder.b2.tolist(),
            "param_version": decoder.version,
        },
    }
    with atomic_open(path) as f:
        json.dump(doc, f)


class CheckpointError(ValueError):
    pass


def checkpoint_load(path: str) -> DecoderParams:
    """The decoder a checkpoint holds; any other section is ignored."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {doc.get('version')!r} in {path}")
    try:
        dec = doc["decoder"]
        w1, b1, w2, b2 = (check_numbers(dec[k], k) for k in ("w1", "b1", "w2", "b2"))
        version = check_number(dec["param_version"], "param_version", "[0, inf)", integer=True)
    except NonFinite:
        raise CheckpointError(f"non-finite decoder weights in checkpoint {path}") from None
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"truncated or malformed checkpoint {path}: {e}") from e
    try:
        return DecoderParams(w1, b1, w2, b2, version)
    except ValueError as e:
        raise CheckpointError(f"decoder shapes in checkpoint {path} disagree: {e}") from None
