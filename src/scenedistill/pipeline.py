"""End-to-end stream runners and checkpointing.

Two execution modes exercise the same per-frame code path: sequential runs
oracle calls and decoder retraining inline on the inference thread, parallel
hands key frames to a worker thread over a bounded queue (drop-oldest) and
commits updated decoder weights atomically, so inference never blocks on
the oracle.  frozen_student, mixed and oracle_only are non-learning
baselines.  The oracle's compute cost is simulated by a configurable delay.
"""

from __future__ import annotations

import json
import queue
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field

import numpy as np

from .detection import Detection, GridShape, decode_tensor, nms
from .distill import DistillConfig, FeedbackRecord, distill_step
from .models import (
    Backbone,
    DecoderParams,
    LstmParams,
    ParamStore,
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

MODES = ("sequential", "parallel", "frozen_student", "mixed", "oracle_only")
SELECTORS = ("adaptive", "random", "scene_change", "periodic", "never")


class PipelineError(RuntimeError):
    pass


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
        from .detection import Box
        dets = [
            [Detection(box=Box(v[0], v[1], v[2], v[3]), class_id=int(v[4]), confidence=v[5])
             for v in frame]
            for frame in data["detections"]
        ]
        return cls(**{**data, "detections": dets})


def merge_detections(adaptive_out: np.ndarray, general_out: np.ndarray, shape: GridShape,
                     conf_threshold: float, iou_threshold: float) -> list[Detection]:
    """Union of both decoders' detections, deduplicated by class-aware NMS.

    Keeping the frozen general head in the mix preserves detections of
    globally known objects that the adapted head has learned to down-weight.
    """
    if adaptive_out.shape != general_out.shape:
        raise ValueError(f"shape mismatch: {adaptive_out.shape} vs {general_out.shape}")
    merged = decode_tensor(adaptive_out, shape, conf_threshold)
    merged += decode_tensor(general_out, shape, conf_threshold)
    return nms(merged, iou_threshold)


@dataclass
class _Runtime:
    grid: GridShape
    backbone: Backbone
    general: DecoderParams
    store: ParamStore
    selector: object
    cfg: PipelineConfig


def _build_runtime(stream: list[FrameRecord], grid: GridShape, cfg: PipelineConfig) -> _Runtime:
    d = stream[0].frame.values.shape[2]
    backbone = Backbone(d, seed=cfg.seed)
    initial = init_decoder(d, cfg.decoder_hidden, grid, seed=cfg.seed + 1)
    general = initial                      # frozen copy, version 0 forever
    loaded_selector = None
    if cfg.init_checkpoint is not None:
        adapted, loaded_selector = checkpoint_load(cfg.init_checkpoint)
        store = ParamStore(adapted)
    else:
        store = ParamStore(initial)
    if cfg.selector == "adaptive":
        selector = loaded_selector or AdaptiveSelector(2 * d, cfg.selector_cfg, seed=cfg.seed + 2)
    elif cfg.selector == "random":
        selector = RandomSelector(cfg.random_prob, tau=cfg.selector_cfg.tau, seed=cfg.seed + 2)
    elif cfg.selector == "scene_change":
        selector = SceneChangeSelector(cfg.change_threshold, tau=cfg.selector_cfg.tau)
    elif cfg.selector == "periodic":
        selector = PeriodicSelector(cfg.period, tau=cfg.selector_cfg.tau)
    else:
        selector = NeverSelector()
    if cfg.mode in ("frozen_student", "mixed", "oracle_only"):
        selector = NeverSelector()  # non-learning baselines never retrain
    return _Runtime(grid=grid, backbone=backbone, general=general, store=store,
                    selector=selector, cfg=cfg)


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
        "source": fb.decision_source,
        "error": fb.error,
    }


def _oracle(rec: FrameRecord, rt: _Runtime) -> np.ndarray:
    seed = rt.cfg.oracle_seed if rt.cfg.oracle_seed is not None else rt.cfg.seed
    return oracle_for_frame(rec, rt.cfg.oracle_noise, rt.grid, seed)


def _maybe_checkpoint(rt: _Runtime) -> None:
    if rt.cfg.checkpoint_out is not None:
        selector = rt.selector if isinstance(rt.selector, AdaptiveSelector) else None
        checkpoint_save(rt.cfg.checkpoint_out, rt.store.snapshot(), selector)


def run_pipeline(stream: list[FrameRecord], grid: GridShape, cfg: PipelineConfig) -> PipelineReport:
    if not stream:
        raise ValueError("empty stream")
    if cfg.mode == "parallel":
        return _run_parallel(stream, grid, cfg)
    return _run_single_thread(stream, grid, cfg)


def _run_single_thread(stream: list[FrameRecord], grid: GridShape, cfg: PipelineConfig) -> PipelineReport:
    rt = _build_runtime(stream, grid, cfg)
    mix_rng = np.random.default_rng(cfg.seed + 3)
    decisions, latencies, feedbacks, detections, versions = [], [], [], [], []
    oracle_frames = 0
    error = None
    t_start = time.perf_counter()
    for rec in stream:
        t0 = time.perf_counter()
        feats, summary = rt.backbone.forward(rec.frame)
        snap = rt.store.snapshot()
        versions.append(snap.version)

        if cfg.mode == "oracle_only" or (cfg.mode == "mixed" and mix_rng.random() < cfg.p_oracle):
            if cfg.oracle_delay > 0:
                time.sleep(cfg.oracle_delay)
            dets = decode_tensor(_oracle(rec, rt), grid, cfg.conf_threshold)
            oracle_frames += 1
            decision = Decision(rec.frame_id, train=False)
        else:
            adaptive_out = decoder_forward(snap, feats)
            general_out = decoder_forward(rt.general, feats)
            dets = merge_detections(adaptive_out, general_out, grid,
                                    cfg.conf_threshold, cfg.iou_threshold)
            decision = rt.selector.decide(feats, summary)
            if decision.train:
                if cfg.oracle_delay > 0:
                    time.sleep(cfg.oracle_delay)
                oracle = _oracle(rec, rt)
                new_params, fb = distill_step(snap, feats, oracle, cfg.distill,
                                              frame_id=rec.frame_id,
                                              decision_source=decision.source)
                feedbacks.append(_feedback_row(fb))
                if fb.error is not None:
                    rt.selector.apply_feedback(fb)
                    error = f"frame {rec.frame_id}: {fb.error}"
                    latencies.append(time.perf_counter() - t0)
                    decisions.append(_decision_row(decision))
                    detections.append(dets)
                    break
                rt.store.commit(new_params)
                rt.selector.apply_feedback(fb)

        decisions.append(_decision_row(decision))
        detections.append(dets)
        latencies.append(time.perf_counter() - t0)
    elapsed = time.perf_counter() - t_start

    _maybe_checkpoint(rt)
    n = len(decisions)
    return PipelineReport(
        mode=cfg.mode,
        selector=rt.selector.kind,
        n_frames=n,
        fps=n / elapsed if elapsed > 0 else float("inf"),
        key_fraction=sum(1 for d in decisions if d["train"]) / n,
        decisions=decisions,
        latencies=latencies,
        feedbacks=feedbacks,
        detections=detections,
        versions=versions,
        oracle_answer_fraction=oracle_frames / n,
        error=error,
    )


_SENTINEL = object()


def _run_parallel(stream: list[FrameRecord], grid: GridShape, cfg: PipelineConfig) -> PipelineReport:
    rt = _build_runtime(stream, grid, cfg)
    work: queue.Queue = queue.Queue(maxsize=cfg.queue_capacity)
    done: queue.Queue = queue.Queue()
    worker_error: list[str] = []
    # Both threads run sub-millisecond numpy bursts; the default 5 ms GIL
    # switch interval would let either side starve the other.
    old_switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)

    def worker():
        try:
            while True:
                item = work.get()
                if item is _SENTINEL:
                    return
                rec, feats, source = item
                if cfg.oracle_delay > 0:
                    time.sleep(cfg.oracle_delay)
                oracle = _oracle(rec, rt)
                params = rt.store.snapshot()  # sole writer: latest own commit
                new_params, fb = distill_step(params, feats, oracle, cfg.distill,
                                              frame_id=rec.frame_id,
                                              decision_source=source)
                if fb.error is None:
                    rt.store.commit(new_params)
                done.put(fb)
        except Exception as e:  # surfaced to the inference loop, traceback included
            worker_error.append(f"{type(e).__name__}: {e}\n{traceback.format_exc()}")

    thread = threading.Thread(target=worker, name="distill-worker", daemon=True)
    thread.start()

    decisions, latencies, feedbacks, detections, versions = [], [], [], [], []
    dropped = 0
    error = None

    def drain_feedback():
        """Apply finished events; feedback lands at frame boundaries so the
        selector has one owner.  The first failed event names the error."""
        nonlocal error
        while True:
            try:
                fb = done.get_nowait()
            except queue.Empty:
                return
            feedbacks.append(_feedback_row(fb))
            rt.selector.apply_feedback(fb)
            if fb.error is not None:
                error = error or f"frame {fb.frame_id}: {fb.error}"

    try:
        t_start = time.perf_counter()
        for rec in stream:
            t0 = time.perf_counter()
            drain_feedback()
            if error or worker_error:
                break

            feats, summary = rt.backbone.forward(rec.frame)
            snap = rt.store.snapshot()
            versions.append(snap.version)
            adaptive_out = decoder_forward(snap, feats)
            general_out = decoder_forward(rt.general, feats)
            dets = merge_detections(adaptive_out, general_out, grid,
                                    cfg.conf_threshold, cfg.iou_threshold)
            decision = rt.selector.decide(feats, summary)
            if decision.train:
                # feats is fresh per frame, so the worker trains on the exact
                # frame that triggered selection even as inference advances.
                item = (rec, feats, decision.source)
                try:
                    work.put_nowait(item)
                except queue.Full:
                    try:
                        stale = work.get_nowait()
                        dropped += 1
                        rt.selector.apply_feedback(FeedbackRecord(
                            stale[0].frame_id, 0.0, 0.0, stale[2], error="dropped"))
                    except queue.Empty:
                        pass
                    try:
                        work.put_nowait(item)
                    except queue.Full:
                        dropped += 1
                        rt.selector.apply_feedback(FeedbackRecord(
                            rec.frame_id, 0.0, 0.0, decision.source, error="dropped"))
            decisions.append(_decision_row(decision))
            detections.append(dets)
            latencies.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - t_start
    finally:
        # stop the worker on every exit path; one that died leaves its queue
        # full for good, so offer the sentinel only while it is alive
        deadline = time.monotonic() + 30.0
        while thread.is_alive() and time.monotonic() < deadline:
            try:
                work.put(_SENTINEL, timeout=0.05)
                break
            except queue.Full:
                pass
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
        sys.setswitchinterval(old_switch)
    drain_feedback()
    if thread.is_alive():
        error = error or "distillation worker failed to stop"
    if worker_error:
        raise PipelineError(f"distillation worker failed: {worker_error[0]}")

    _maybe_checkpoint(rt)
    n = len(decisions)
    return PipelineReport(
        mode=cfg.mode,
        selector=rt.selector.kind,
        n_frames=n,
        fps=n / elapsed if elapsed > 0 else float("inf"),
        key_fraction=sum(1 for d in decisions if d["train"]) / n if n else 0.0,
        decisions=decisions,
        latencies=latencies,
        feedbacks=feedbacks,
        detections=detections,
        versions=versions,
        dropped_key_frames=dropped,
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
        return decoder, selector
    except (KeyError, TypeError, IndexError, ValueError) as e:
        raise CheckpointError(f"truncated or malformed checkpoint {path}: {e}") from e
