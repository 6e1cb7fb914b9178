#!/usr/bin/env python3
"""scenedistill benchmark: three stream workloads through the public API.

Run from the root of a checkout; the program is imported from ./src.

    python3 perfbench/run.py --workload adapt_sequential --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --seed 3          # every workload, one process each

One run repeats set-up (generate_stream or read_trace), run_pipeline and
evaluate_report on a fixed-size stream until --seconds have passed, checks
every report, and prints a table, a detail line (environment, digest,
sample counts) and, last, one JSON result line.  --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced and traced repetitions
and reports the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))

import derive  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("serve_adapted", "adapt_sequential", "adapt_parallel")
N_FRAMES = 1000          # one repetition; its p99 has 10 samples beyond it
# Streams per run, cycled by repetition.  Detection quality varies from
# stream to stream, so each run pools enough of them for f1_iou50 to be
# steady across seeds; serve_adapted's quality varies most and costs least.
SUB_STREAMS = {"serve_adapted": 32, "adapt_sequential": 8, "adapt_parallel": 16}
MODEL_SEED = 0           # backbone, decoder and selector seed: the same model in every run
CHECKPOINT_STREAM_SEED = 999_983  # serve_adapted's adaptation stream, the same in every run
CHECKPOINT_FRAMES = 3000
ORACLE_DELAY_S = 0.001   # adapt_parallel's simulated oracle cost
# adapt_parallel's key-frame period.  One event keeps the worker busy for the
# delay plus ~0.55 ms of distill_step; at period 8 that is two thirds of the
# time between key frames at ~3.3k fps, and runs where the worker's core ran
# slow dropped half of all key frames.  Period 16 leaves room for that.
KEY_PERIOD = 16

# Timings in BENCHMARK.json are relative to the reference loop (see
# reference_s), measured next to every repetition: the machine's speed
# drifts by tens of percent within minutes, the ratio does not.  The raw
# timings are printed and kept in the detail line.
END_TO_END = {  # name -> unit
    "fps_ref": "frames/ref",
    "frame_p50_ref": "ref",
    "frame_p99_ref": "ref",
    "eval_ref": "ref",
    "f1_iou50": "ratio",
    "student_only_fraction": "ratio",
    "keyframe_commit_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
RAW_TIMINGS = {"fps": "frames/s", "frame_p50_us": "us", "frame_p99_us": "us", "eval_s": "s"}

LAYERS = ("simstream", "models", "detection", "selector", "distill", "pipeline", "evaluate")

PER_LAYER = {  # name -> unit
    "models.backbone.p50_us": "us",
    "models.decoder_forward.calls_per_frame": "calls/frame",
    "models.decoder_forward.p50_us": "us",
    "models.paramstore.snapshot_calls_per_frame": "calls/frame",
    "models.paramstore.commits": "count",
    "detection.decode_tensor.calls_per_frame": "calls/frame",
    "detection.decode_tensor.p50_us": "us",
    "detection.nms.p50_us": "us",
    "detection.candidates_per_frame": "count/frame",
    "detection.kept_per_frame": "count/frame",
    "simstream.oracle_for_frame.calls": "count",
    "simstream.oracle_for_frame.p50_us": "us",
    "simstream.oracle_for_frame.cached_ratio": "ratio",
    "simstream.generate_stream.s": "s",
    "simstream.read_trace.s": "s",
    "distill.distill_step.calls": "count",
    "distill.distill_step.p50_us": "us",
    "distill.distill_step.total_s": "s",
    "distill.helpful_ratio": "ratio",
    "distill.error_count": "count",
    "selector.decide.p50_us": "us",
    "selector.apply_feedback.calls": "count",
    "selector.apply_feedback.p50_us": "us",
    "selector.suppressed_ratio": "ratio",
    "selector.p_final": "ratio",
    "pipeline.merge_detections.p50_us": "us",
    "pipeline.checkpoint_load.s": "s",
    "pipeline.frame_self_us.p50": "us",
    "pipeline.keyframe_wait.p50_us": "us",
    "pipeline.worker_busy_frac": "ratio",
    "pipeline.commit_staleness.p50_frames": "frames",
    "pipeline.queue_wait.p50_frames": "frames",
    "pipeline.dropped": "count",
    "pipeline.key_fraction": "ratio",
    "pipeline.keyframe_fail_ratio": "ratio",
    "evaluate.ground_truth_for.s": "s",
    "evaluate.evaluate_frames.s": "s",
    "evaluate.match_detections.calls": "count",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "trace_overhead_ratio": "ratio",
}


def load_program():
    """Import scenedistill from this checkout's source tree, never elsewhere."""
    pkg = SRC / "scenedistill"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: program source not found at {pkg}")
    sys.path.insert(0, str(SRC))
    import scenedistill
    if Path(scenedistill.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported scenedistill from {scenedistill.__file__}, not {pkg}")
    return scenedistill


@dataclass
class Stream:
    """One of a run's sub-streams: how to set it up and how to run it."""

    seed: int
    setup: Callable[[], list]   # the program call timed as setup_s
    cfg: object                 # PipelineConfig


@dataclass
class Workload:
    grid: object
    eval_cfg: object            # EvalConfig
    setup_name: str             # span name of the set-up call
    streams: list[Stream]


class Spec:
    """Inputs shared by all workloads, built from the imported program."""

    def __init__(self, sd):
        self.sd = sd
        self.grid = sd.GridShape(s=6, c=4)
        self.stream_cfg = sd.StreamConfig(grid=self.grid, feature_dim=12, transition_len=4)
        self.scenes = [
            sd.SceneSpec(i, tuple(0.7 if j == i else 0.1 for j in range(4)),
                         motion_sigma=0.004, duration_range=(200, 300))
            for i in range(4)
        ]
        # the acceptance suite's QUIET_NOISE oracle model
        self.noise = sd.OracleNoiseSpec(empty_cell_noise_rate=0.15, noise_logit_range=(-2.0, -0.4),
                                        box_jitter_sigma=0.002, noise_wobble=0.02,
                                        class_flip_prob=0.02)
        self.distill = sd.DistillConfig(lam=0.4, lr=0.05, steps_per_event=10)

    def pipe(self, oracle_seed: int, **kw):
        return self.sd.PipelineConfig(seed=MODEL_SEED, oracle_seed=oracle_seed,
                                      oracle_noise=self.noise, decoder_hidden=32,
                                      distill=self.distill, **kw)

    def stream(self, seed: int, n_frames: int = N_FRAMES) -> list:
        return self.sd.generate_stream(self.scenes, n_frames, self.stream_cfg, seed)


def stream_seeds(name: str, seed: int) -> list[int]:
    """The run's stream seeds; distinct benchmark seeds give disjoint sets."""
    return [seed * 1000 + k for k in range(SUB_STREAMS[name])]


def prepare_inputs(name: str, seed: int, out: Path) -> None:
    """Write the files a workload reads; runs in a child process (see main)."""
    sd = load_program()
    spec = Spec(sd)
    if name == "serve_adapted":
        # a short adaptation run, with the serving model's seed so that the
        # frozen backbone matches the one the decoder adapted to
        stream = spec.stream(CHECKPOINT_STREAM_SEED, CHECKPOINT_FRAMES)
        sd.run_pipeline(stream, spec.grid, spec.pipe(
            CHECKPOINT_STREAM_SEED, mode="sequential", selector="adaptive",
            checkpoint_out=str(out / "checkpoint.json")))
    elif name == "adapt_parallel":
        for s in stream_seeds(name, seed):
            stream = sd.attach_oracle(spec.stream(s), spec.noise, spec.grid, s)
            sd.write_trace(stream, str(out / f"trace-{s}.jsonl"), grid=spec.grid)


def build_workload(sd, name: str, seed: int, inputs: Path) -> Workload:
    spec = Spec(sd)
    seeds = stream_seeds(name, seed)
    if name == "serve_adapted":
        ckpt = str(inputs / "checkpoint.json")
        return Workload(spec.grid, sd.EvalConfig(gt_source="true_gt"),
                        "simstream.generate_stream",
                        [Stream(s, functools.partial(spec.stream, s),
                                spec.pipe(s, mode="frozen_student", selector="never",
                                          init_checkpoint=ckpt)) for s in seeds])
    if name == "adapt_sequential":
        return Workload(spec.grid,
                        sd.EvalConfig(gt_source="oracle_as_gt", iou_thresholds=(0.5, 0.6, 0.75)),
                        "simstream.generate_stream",
                        [Stream(s, functools.partial(spec.stream, s),
                                spec.pipe(s, mode="sequential", selector="adaptive",
                                          oracle_delay=0.0)) for s in seeds])
    if name == "adapt_parallel":
        def read(s):
            return sd.read_trace(str(inputs / f"trace-{s}.jsonl"))[0]
        return Workload(spec.grid, sd.EvalConfig(gt_source="true_gt"),
                        "simstream.read_trace",
                        [Stream(s, functools.partial(read, s),
                                spec.pipe(s, mode="parallel", selector="periodic", period=KEY_PERIOD,
                                          oracle_delay=ORACLE_DELAY_S, queue_capacity=4))
                         for s in seeds])
    raise ValueError(f"unknown workload {name!r}")


def trace_targets(sd) -> list[tracing.Target]:
    """Public callables the runners and evaluation look up at call time."""
    pl, ev = sd.pipeline, sd.evaluate
    # tags run inside the program's calls, so they must not raise
    def n_out(args, result):
        return len(result) if isinstance(result, list) else 0

    def cached(args, result):
        return bool(args) and getattr(args[0], "oracle_tensor", None) is not None

    T = tracing.Target
    targets = [
        T("models.backbone", getattr(pl, "Backbone", None), "forward", framed=True),
        T("models.decoder_forward", pl, "decoder_forward", framed=True),
        T("models.paramstore.snapshot", getattr(pl, "ParamStore", None), "snapshot"),
        T("models.paramstore.commit", getattr(pl, "ParamStore", None), "commit"),
        T("detection.decode_tensor", pl, "decode_tensor", tag=n_out),
        T("detection.nms", pl, "nms", tag=n_out),
        T("simstream.oracle_for_frame", pl, "oracle_for_frame", framed=True, tag=cached),
        T("distill.distill_step", pl, "distill_step", framed=True),
        T("pipeline.merge_detections", pl, "merge_detections"),
        T("pipeline.checkpoint_load", pl, "checkpoint_load"),
        T("evaluate.ground_truth_for", ev, "ground_truth_for"),
        T("evaluate.evaluate_frames", ev, "evaluate_frames"),
        T("evaluate.match_detections", ev, "match_detections"),
        T("simstream.oracle_for_frame", ev, "oracle_for_frame", framed=True, tag=cached),
        T("detection.decode_tensor", ev, "decode_tensor", tag=n_out),
    ]
    for cls in ("AdaptiveSelector", "RandomSelector", "SceneChangeSelector",
                "PeriodicSelector", "NeverSelector"):
        owner = getattr(pl, cls, None)
        targets.append(T("selector.decide", owner, "decide", framed=True))
        targets.append(T("selector.apply_feedback", owner, "apply_feedback", framed=True))
    return targets


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile by nearest rank: a value that was actually measured."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Rep:
    stream: int                 # index into Workload.streams
    traced: bool
    setup_s: float
    run_s: float
    eval_s: float
    p50_us: float
    p99_us: float
    ref_s: float                # reference loop around run_pipeline (mean of two)
    ref_eval_s: float           # reference loop around evaluate_report
    counts: tuple[int, int, int]  # tp, fp, fn at IOU 0.5
    frames: int
    kf: derive.KeyFrames
    key_fraction: float
    digest: str
    problems: list[str]
    layer: dict | None


def run_rep(sd, w: Workload, k: int, recorder: tracing.Recorder | None) -> Rep:
    """Set up, run and evaluate stream k once, then check the report."""
    st = w.streams[k]
    rec = recorder if recorder is not None else tracing.Recorder()
    first = len(rec.spans)
    switch = sys.getswitchinterval()
    ref_before = reference_s()

    t0 = time.perf_counter()
    with rec.span(w.setup_name):
        stream = st.setup()
    t1 = time.perf_counter()
    with rec.span("pipeline.run_pipeline"):
        report = sd.run_pipeline(stream, w.grid, st.cfg)
    t2 = time.perf_counter()
    ref_between = reference_s()
    with rec.span("evaluate.evaluate_report"):
        summary = sd.evaluate_report(report, stream, w.grid, w.eval_cfg, st.cfg.oracle_noise,
                                     st.seed)
    t3 = time.perf_counter()
    ref_after = reference_s()

    problems = derive.check_report(report, len(stream))
    if sys.getswitchinterval() != switch:
        problems.append(f"switch interval left at {sys.getswitchinterval()}, was {switch}")
    lat_us = [x * 1e6 for x in report.latencies]
    at50 = summary.at(0.5)
    layer = layer_metrics(rec.spans[first:], report, st.cfg) if recorder is not None else None
    return Rep(
        stream=k, traced=recorder is not None,
        setup_s=t1 - t0, run_s=t2 - t1, eval_s=t3 - t2,
        p50_us=nearest_rank(lat_us, 0.5), p99_us=nearest_rank(lat_us, 0.99),
        ref_s=(ref_before + ref_between) / 2, ref_eval_s=(ref_between + ref_after) / 2,
        counts=(at50.tp, at50.fp, at50.fn), frames=report.n_frames,
        kf=derive.key_frames(report), key_fraction=report.key_fraction,
        digest=derive.detection_digest(report.detections), problems=problems, layer=layer,
    )


def release_free_memory() -> None:
    """Hand freed heap pages back to the OS between repetitions.

    Without this, pages the allocator kept from earlier repetitions (in the
    worker thread's arena, say) add to a later repetition's peak at random,
    and peak_rss_mb would measure allocator history rather than the working
    set of one repetition.  A no-op where glibc is not the C library.
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def reference_s() -> float:
    """Wall time of a fixed loop shaped like the program's per-frame work.

    Small NumPy calls on a 6x6 grid and a few Python objects per iteration,
    as in decoding a detection tensor, but no program code: it tracks only
    the machine's speed, which on a shared machine moves by tens of percent
    from minute to minute.  Dividing a timing by it, measured next to that
    timing, leaves the program's own cost.  10–15 ms on a 2.1 GHz vCPU.
    """
    import numpy as np
    x = np.linspace(-1.0, 1.0, 324).reshape(6, 6, 9)
    w = np.linspace(-0.5, 0.5, 81).reshape(9, 9)
    t0 = time.perf_counter()
    for _ in range(450):
        y = np.tanh(x @ w + 0.1)
        obj = 1.0 / (1.0 + np.exp(-y[:, :, 0]))
        logits = y[:, :, 5:]
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        conf = obj * p.max(axis=-1)
        rows, cols = np.nonzero(conf >= 0.3)
        cells = [(float(conf[r, c]), int(r), int(c)) for r, c in zip(rows, cols)]
        cells.sort(key=lambda cell: -cell[0])
    return time.perf_counter() - t0


def _median(values, default=0.0) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else default


def per_stream_mean(reps: list[Rep], value: Callable[[Rep], float]) -> float:
    """Mean over each stream's repetitions, then over streams, each weighted once."""
    by = defaultdict(list)
    for r in reps:
        by[r.stream].append(value(r))
    return statistics.fmean(statistics.fmean(v) for v in by.values())


def pooled_f1(reps: list[Rep]) -> float:
    """F1 at IOU 0.5 over every stream of the run."""
    tp, fp, fn = (per_stream_mean(reps, lambda r, i=i: r.counts[i]) for i in range(3))
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def layer_metrics(spans: list[tracing.Span], report, cfg) -> dict:
    """Per-layer numbers of one traced repetition; spans are this repetition's."""
    main = threading.get_ident()
    (run,) = [s for s in spans if s.name == "pipeline.run_pipeline"]
    (ev,) = [s for s in spans if s.name == "evaluate.evaluate_report"]
    in_run = defaultdict(list)
    in_eval = defaultdict(list)
    for s in spans:
        if run.start < s.start < run.end:
            in_run[s.name].append(s)
        elif ev.start < s.start < ev.end:
            in_eval[s.name].append(s)
    n = report.n_frames

    def p50_us(name):
        return _median(s.duration for s in in_run[name]) / 1e3

    def total_s(group, name):
        return sum(s.duration for s in group[name]) / 1e9

    m = {
        "models.backbone.p50_us": p50_us("models.backbone"),
        "models.decoder_forward.calls_per_frame": len(in_run["models.decoder_forward"]) / n,
        "models.decoder_forward.p50_us": p50_us("models.decoder_forward"),
        "models.paramstore.snapshot_calls_per_frame": len(in_run["models.paramstore.snapshot"]) / n,
        "models.paramstore.commits": len(in_run["models.paramstore.commit"]),
        "detection.decode_tensor.calls_per_frame": len(in_run["detection.decode_tensor"]) / n,
        "detection.decode_tensor.p50_us": p50_us("detection.decode_tensor"),
        "detection.nms.p50_us": p50_us("detection.nms"),
        "detection.candidates_per_frame": sum(s.tag for s in in_run["detection.decode_tensor"]) / n,
        "detection.kept_per_frame": sum(s.tag for s in in_run["detection.nms"]) / n,
        "pipeline.merge_detections.p50_us": p50_us("pipeline.merge_detections"),
        "pipeline.checkpoint_load.s": total_s(in_run, "pipeline.checkpoint_load"),
        "distill.distill_step.calls": len(in_run["distill.distill_step"]),
        "distill.distill_step.p50_us": p50_us("distill.distill_step"),
        "distill.distill_step.total_s": total_s(in_run, "distill.distill_step"),
        "selector.decide.p50_us": p50_us("selector.decide"),
        "selector.apply_feedback.calls": len(in_run["selector.apply_feedback"]),
        "selector.apply_feedback.p50_us": p50_us("selector.apply_feedback"),
        "evaluate.ground_truth_for.s": total_s(in_eval, "evaluate.ground_truth_for"),
        "evaluate.evaluate_frames.s": total_s(in_eval, "evaluate.evaluate_frames"),
        "evaluate.match_detections.calls": len(in_eval["evaluate.match_detections"]),
    }
    for name in ("simstream.generate_stream", "simstream.read_trace"):
        m[f"{name}.s"] = sum(s.duration for s in spans if s.name == name) / 1e9

    oracle = in_run["simstream.oracle_for_frame"]
    m["simstream.oracle_for_frame.calls"] = len(oracle)
    m["simstream.oracle_for_frame.p50_us"] = p50_us("simstream.oracle_for_frame")
    m["simstream.oracle_for_frame.cached_ratio"] = (
        sum(1 for s in oracle if s.tag) / len(oracle) if oracle else 0.0)

    events = [fb for fb in report.feedbacks if fb["error"] is None]
    sigma = cfg.selector_cfg.sigma
    m["distill.helpful_ratio"] = (
        sum(1 for fb in events if fb["delta_l"] < sigma) / len(events) if events else 0.0)
    m["distill.error_count"] = len(report.feedbacks) - len(events)
    m["selector.suppressed_ratio"] = sum(1 for d in report.decisions if d["suppressed"]) / n
    m["selector.p_final"] = float(report.decisions[-1]["p"])

    # inference thread: per-frame time outside every traced call
    top = tracing.top_level(spans, main, run.start + 1, run.end)
    anchors = [s.start for s in in_run["models.backbone"] if s.thread == main]
    lat_ns = [round(x * 1e9) for x in report.latencies]
    frame_self = tracing.frame_self_times(top, anchors, lat_ns) if len(anchors) == n else []
    m["pipeline.frame_self_us.p50"] = _median(frame_self) / 1e3

    # worker side: queue wait after selection, and busy share of the run
    decided = {s.frame: s.end for s in in_run["selector.decide"] if s.thread == main}
    delay_ns = cfg.oracle_delay * 1e9
    waits = [s.start - decided[s.frame] - delay_ns for s in oracle
             if s.thread != main and s.frame in decided]
    m["pipeline.keyframe_wait.p50_us"] = _median(waits) / 1e3
    workers = {s.thread for s in spans if s.thread != main and run.start < s.start < run.end}
    busy = sum(s.duration for t in workers for s in tracing.top_level(spans, t, run.start, run.end))
    m["pipeline.worker_busy_frac"] = busy / run.duration

    kf = derive.key_frames(report)
    m["pipeline.commit_staleness.p50_frames"] = _median(derive.commit_staleness(report))
    m["pipeline.queue_wait.p50_frames"] = _median(derive.queue_wait_frames(report))
    m["pipeline.dropped"] = report.dropped_key_frames
    m["pipeline.key_fraction"] = report.key_fraction
    m["pipeline.keyframe_fail_ratio"] = kf.fail_ratio

    selfs = defaultdict(int)
    for s, self_ns in zip(spans, tracing.self_times(spans)):
        selfs[s.name.split(".")[0]] += self_ns
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = selfs[layer] / 1e6
    return m


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
        "loadavg_1m": os.getloadavg()[0],
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> int:
    env = environment(seed)
    sd = load_program()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"inputs-{name}-") as inputs:
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--prepare", name,
                        "--seed", str(seed), "--inputs", inputs], check=True, timeout=170)
        w = build_workload(sd, name, seed, Path(inputs))
        recorder = tracing.Recorder()
        targets = trace_targets(sd)

        def rep(k: int, traced: bool) -> Rep:
            release_free_memory()
            if not traced:
                return run_rep(sd, w, k, None)
            with recorder.installed(targets):
                return run_rep(sd, w, k, recorder)

        warm = rep(0, False)  # first-call costs; checked, not measured
        kinds = (False, True) if trace else (False,)
        n_streams = len(w.streams)
        reps: list[Rep] = []
        deadline = time.perf_counter() + seconds
        while len(reps) < n_streams * len(kinds) or time.perf_counter() < deadline:
            i = len(reps)
            reps.append(rep((i // len(kinds)) % n_streams, kinds[i % len(kinds)]))

    problems = [f"warm-up: {p}" for p in warm.problems]
    problems += [f"rep {i}: {p}" for i, r in enumerate(reps) for p in r.problems]
    digests = defaultdict(set)
    for r in [warm] + reps:
        digests[w.streams[r.stream].seed].add(r.digest)
    if name != "adapt_parallel":  # the only workload whose output depends on timing
        problems += [f"stream {s}: detections differ between repetitions: {sorted(d)}"
                     for s, d in digests.items() if len(d) != 1]
    plain = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]

    if trace:
        metrics = {k: _median(r.layer[k] for r in traced) for k in PER_LAYER
                   if k != "trace_overhead_ratio"}
        metrics["trace_overhead_ratio"] = (_median(r.run_s for r in plain)
                                           / _median(r.run_s for r in traced))
        units = PER_LAYER
        (OUT_DIR / "spans").mkdir(exist_ok=True)
        recorder.write(str(OUT_DIR / "spans" / f"{name}.jsonl"))
    else:
        selected = sum(r.kf.selected for r in plain)
        metrics = {
            "fps_ref": _median(N_FRAMES * r.ref_s / r.run_s for r in plain),
            "frame_p50_ref": _median(r.p50_us * 1e-6 / r.ref_s for r in plain),
            "frame_p99_ref": _median(r.p99_us * 1e-6 / r.ref_s for r in plain),
            "eval_ref": _median(r.eval_s / r.ref_eval_s for r in plain),
            "f1_iou50": pooled_f1(plain),
            "student_only_fraction": 1.0 - per_stream_mean(plain, lambda r: r.key_fraction),
            "keyframe_commit_ratio": (sum(r.kf.commits for r in plain) / selected
                                      if selected else 1.0),
            "setup_s": _median(r.setup_s for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END

    detail = {
        "workload": name,
        "env": env,
        "streams": [st.seed for st in w.streams],
        "reps": {"untraced": len(plain), "traced": len(traced), "frames_per_rep": N_FRAMES},
        "digests": {s: sorted(d) for s, d in digests.items()},
        "raw_timings": {
            "fps": N_FRAMES / _median(r.run_s for r in plain),
            "frame_p50_us": _median(r.p50_us for r in plain),
            "frame_p99_us": _median(r.p99_us for r in plain),
            "eval_s": _median(r.eval_s for r in plain),
        } if plain else {},
        "reference_ms": _median(r.ref_s * 1e3 for r in reps),
        "fps_per_rep": [round(N_FRAMES / r.run_s) for r in reps],
        "key_frames": {f: sum(getattr(r.kf, f) for r in reps)
                       for f in ("selected", "commits", "dropped", "errored")},
        "problems": problems,
    }
    print(f"workload {name}  seed {seed}  streams {detail['streams']}  "
          f"reps {len(plain)} untraced + {len(traced)} traced, {N_FRAMES} frames each  "
          f"load {env['loadavg_1m']:.2f}")
    for k, v in metrics.items():
        print(f"  {k:44s} {v:14.6g} {units[k]}")
    if not trace:
        print(f"  raw timings (reference loop {detail['reference_ms']:.3f} ms):")
        for k, v in detail["raw_timings"].items():
            print(f"  {k:44s} {v:14.6g} {RAW_TIMINGS[k]}")
        print(f"  frame latencies: {N_FRAMES} samples per rep; p50 and p99 are medians of "
              f"{len(plain)} per-rep values over {n_streams} streams")
    print(f"  checks: {'PASS' if not problems else 'FAIL'}")
    for p in problems:
        print(f"  FAILED CHECK: {p}")
    print(json.dumps({"perfbench_detail": detail}))
    print(json.dumps({
        "correct": not problems,
        "attempted": N_FRAMES * len(reps),
        "failed": sum(N_FRAMES - r.frames for r in reps),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not problems else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    ok = True
    combined = {}
    attempted = failed = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", "1" if trace else "0"],
                              stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or result is None:
            ok = False
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        for k, v in result["metrics"].items():
            combined[f"{name}/{k}"] = v
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--prepare", choices=WORKLOADS, help=argparse.SUPPRESS)
    ap.add_argument("--inputs", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # a terminated run still removes its inputs and stops its child process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.prepare:
        prepare_inputs(args.prepare, args.seed, Path(args.inputs))
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
