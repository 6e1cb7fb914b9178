"""The pipeline runner: detection merging, its sequential and parallel
modes, non-learning baselines, checkpointing."""

import hashlib
import json
import re
import sys
import threading
import time
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import scenedistill
from scenedistill import pipeline
from scenedistill.detection import (Box, GridShape, decode_tensor, detection_rows, detections,
                                    encode_objects)
from scenedistill.distill import FeedbackRecord, distill_step
from scenedistill.models import Backbone, decoder_forward, init_decoder
from scenedistill.pipeline import (
    CheckpointError,
    PipelineConfig,
    PipelineReport,
    Session,
    checkpoint_load,
    checkpoint_save,
    merge_detections,
    run_pipeline,
)
from scenedistill.selector import SelectorConfig
from scenedistill.simstream import SceneSpec, StreamConfig, generate_stream, oracle_for_frame

GRID = GridShape(s=4, c=3)
CFG = StreamConfig(grid=GRID, feature_dim=8, transition_len=3)


def make_stream(n=120, seed=0, motion=0.01, scenes=None):
    scenes = scenes or [SceneSpec(scene_id=0, class_probs=(0.5, 0.3, 0.2),
                                  motion_sigma=motion, duration_range=(60, 80))]
    return generate_stream(scenes, n, CFG, seed=seed)


def pipe_cfg(**kwargs) -> PipelineConfig:
    base = dict(seed=3, mode="sequential", selector="adaptive")
    base.update(kwargs)
    return PipelineConfig(**base)


def frame_clock_run(stream, cfg) -> PipelineReport:
    """A Session on the frame clock: frame i arrives at i and the run closes
    at len(stream), so parallel mode's schedule does not depend on speed."""
    session = Session(stream[0].features.shape[2], GRID, cfg)
    for i, rec in enumerate(stream):
        if session.step(rec, i) is None:
            break
    return session.close(len(stream))


def poison_oracle(monkeypatch, nth):
    """Put a NaN into the nth oracle answer."""
    real_oracle = pipeline.oracle_for_frame
    answers = []

    def oracle(*args, **kwargs):
        tensor = real_oracle(*args, **kwargs)
        answers.append(1)
        if len(answers) == nth:
            tensor = tensor.copy()
            tensor[0, 0, 0] = np.nan
        return tensor

    monkeypatch.setattr(pipeline, "oracle_for_frame", oracle)


class TestMergeDetections:
    SHAPE = GridShape(s=3, c=2)

    def tensor(self, *objects):
        t = np.zeros((3, 3, self.SHAPE.channels))
        t[:, :, 0] = -10.0
        for box, class_id, obj_logit in objects:
            encode_objects(t, self.SHAPE, [(box.cx, box.cy, box.w, box.h)], [class_id], [obj_logit])
        return t

    def test_lone_detection_passes_through(self):
        t = self.tensor((Box(0.5, 0.5, 0.2, 0.2), 0, 8.0))
        merged = merge_detections(t, self.SHAPE)
        assert len(merged) == 1
        assert merged == detections(decode_tensor(t, self.SHAPE, 0.5))

    def test_overlapping_same_class_cells_deduplicated(self):
        # centers in adjacent cells, boxes overlapping at IOU 0.71
        t = self.tensor((Box(0.6, 0.5, 0.6, 0.6), 1, 6.0), (Box(0.7, 0.5, 0.6, 0.6), 1, 8.0))
        assert len(decode_tensor(t, self.SHAPE, 0.5)) == 2
        merged = merge_detections(t, self.SHAPE)
        assert len(merged) == 1
        assert merged[0].box.cx == pytest.approx(0.7)  # the more confident one

    def test_distinct_detections_both_survive(self):
        t = self.tensor((Box(0.2, 0.2, 0.15, 0.15), 0, 8.0), (Box(0.8, 0.8, 0.15, 0.15), 1, 8.0))
        merged = merge_detections(t, self.SHAPE)
        assert len(merged) == 2
        assert {d.class_id for d in merged} == {0, 1}


class TestSingleThreadModes:
    def test_frozen_student_never_trains(self):
        report = run_pipeline(make_stream(), GRID, pipe_cfg(mode="frozen_student"))
        assert report.key_fraction == 0.0
        assert report.versions == [0] * report.n_frames
        assert not report.feedbacks

    def test_zero_rate_random_matches_frozen_student_detections(self):
        stream = make_stream()
        frozen = run_pipeline(stream, GRID, pipe_cfg(mode="frozen_student"))
        random0 = run_pipeline(stream, GRID, pipe_cfg(mode="sequential", selector="random",
                                                      random_prob=0.0))
        assert random0.key_fraction == 0.0
        assert frozen.detections == random0.detections

    def test_periodic_every_frame_with_no_gap(self):
        cfg = pipe_cfg(selector="periodic", period=1,
                       selector_cfg=SelectorConfig(tau=0))
        report = run_pipeline(make_stream(n=60), GRID, cfg)
        assert report.key_fraction == 1.0

    def test_key_frames_pay_oracle_and_training_cost(self):
        cfg = pipe_cfg(selector="periodic", period=4, oracle_delay=0.002)
        report = run_pipeline(make_stream(n=200), GRID, cfg)
        lat = np.asarray(report.latencies)
        keys = np.asarray([d["train"] for d in report.decisions])
        assert keys.any() and (~keys).any()
        assert lat[~keys].mean() < lat[keys].mean()

    def test_sequential_deterministic_decisions(self):
        stream = make_stream()
        a = run_pipeline(stream, GRID, pipe_cfg())
        b = run_pipeline(stream, GRID, pipe_cfg())
        assert a.decisions == b.decisions
        assert a.detections == b.detections
        assert [f["delta_l"] for f in a.feedbacks] == [f["delta_l"] for f in b.feedbacks]

    def test_mixed_mode_oracle_fraction(self, monkeypatch):
        real_oracle = pipeline.oracle_for_frame
        answered = []

        def oracle(rec, *args, **kwargs):
            answered.append(rec.frame_id)
            return real_oracle(rec, *args, **kwargs)

        monkeypatch.setattr(pipeline, "oracle_for_frame", oracle)
        n = 2000
        cfg = pipe_cfg(mode="mixed", p_oracle=0.27)
        report = run_pipeline(make_stream(n=n), GRID, cfg)
        # one draw per frame from the seed + 3 stream, answered below p_oracle
        want = np.flatnonzero(np.random.default_rng(cfg.seed + 3).random(n) < cfg.p_oracle)
        assert answered == want.tolist()
        assert report.oracle_answer_fraction == len(want) / n
        assert report.key_fraction == 0.0

    def test_oracle_only_self_evaluates_perfectly(self):
        from scenedistill.evaluate import EvalConfig, evaluate_report
        stream = make_stream(n=80)
        cfg = pipe_cfg(mode="mixed", p_oracle=1.0)
        report = run_pipeline(stream, GRID, cfg)
        assert report.oracle_answer_fraction == 1.0
        summary = evaluate_report(report, stream, GRID,
                                  EvalConfig(gt_source="oracle_as_gt", iou_thresholds=(0.5,)),
                                  cfg.oracle_noise, cfg.seed)
        assert summary.at(0.5).f1 == pytest.approx(1.0)
        assert summary.at(0.5).mean_ap == pytest.approx(1.0)


class TestParallelMode:
    def test_queue_overflow_drops_are_counted(self):
        cfg = pipe_cfg(mode="parallel", selector="periodic", period=1,
                       selector_cfg=SelectorConfig(tau=0),
                       oracle_delay=0.005, queue_capacity=1)
        report = run_pipeline(make_stream(n=100), GRID, cfg)
        assert report.dropped_key_frames > 0
        assert report.error is None

    def test_inference_faster_than_sequential_under_slow_oracle(self):
        stream = make_stream(n=300)
        delay = 0.003
        seq = run_pipeline(stream, GRID, pipe_cfg(
            mode="sequential", selector="periodic", period=4, oracle_delay=delay))
        par = run_pipeline(stream, GRID, pipe_cfg(
            mode="parallel", selector="periodic", period=4, oracle_delay=delay))
        assert par.fps > seq.fps

    def test_parallel_inference_path_never_blocks_on_oracle(self):
        delay = 0.02
        cfg = pipe_cfg(mode="parallel", selector="periodic", period=4, oracle_delay=delay)
        report = run_pipeline(make_stream(n=300), GRID, cfg)
        lat = np.asarray(report.latencies)
        keys = np.asarray([d["train"] for d in report.decisions])
        median = float(np.median(lat[~keys]))
        # blocking would add the 20 ms oracle delay; the bound tolerates
        # scheduler noise but not that
        assert float(lat[~keys].max()) < max(2 * median, 0.005)

    def test_parallel_learns(self):
        cfg = pipe_cfg(mode="parallel", oracle_delay=0.0002)
        report = run_pipeline(make_stream(n=500), GRID, cfg)
        assert report.versions[-1] > 0
        helpful = [f for f in report.feedbacks if f["error"] is None and f["delta_l"] < 0]
        assert helpful

    def test_oracle_serves_one_key_frame_and_drops_the_oldest_waiting(self):
        # every frame is a key frame and the first answer is due long after
        # the last frame: two wait behind it, each later one drops the oldest
        cfg = pipe_cfg(mode="parallel", selector="periodic", period=1,
                       selector_cfg=SelectorConfig(tau=0), queue_capacity=2, oracle_delay=5.0)
        t0 = time.perf_counter()
        report = run_pipeline(make_stream(n=20), GRID, cfg)
        elapsed = time.perf_counter() - t0
        keys = [d["frame_id"] for d in report.decisions if d["train"]]
        assert len(keys) == 20
        assert report.dropped_key_frames == len(keys) - 3
        assert [f["frame_id"] for f in report.feedbacks] == [keys[0], *keys[-2:]]
        # the answers still due after the last frame are trained at once
        assert elapsed < cfg.oracle_delay / 2

    def test_each_waiting_key_frame_is_due_one_delay_after_the_one_before(self):
        cfg = pipe_cfg(mode="parallel", selector="periodic", period=1,
                       selector_cfg=SelectorConfig(tau=0), queue_capacity=16, oracle_delay=2.5)
        report = frame_clock_run(make_stream(n=12), cfg)
        # frame 0 is handed over at 1 and due at 3.5, the next ones at 6, 8.5
        # and 11; each is trained at the first frame boundary after that
        k = cfg.distill.steps_per_event
        assert report.versions == [0] * 4 + [k] * 2 + [2 * k] * 3 + [3 * k] * 2 + [4 * k]

    def test_failed_event_stops_training_and_drops_the_waiting(self, monkeypatch, tmp_path):
        # frame 0's answer is due at 3.5 and frame 1's, poisoned, at 6; the
        # key frames 2-5 handed over by then are never trained
        poison_oracle(monkeypatch, 2)
        path = str(tmp_path / "run.ckpt")
        cfg = pipe_cfg(mode="parallel", selector="periodic", period=1,
                       selector_cfg=SelectorConfig(tau=0), queue_capacity=16, oracle_delay=2.5,
                       checkpoint_out=path)
        report = frame_clock_run(make_stream(n=12), cfg)
        assert report.error == "frame 1: non-finite loss"
        assert [(f["frame_id"], f["error"]) for f in report.feedbacks] == [
            (0, None), (1, "non-finite loss")]
        k = cfg.distill.steps_per_event
        assert report.versions[-1] == checkpoint_load(path).version == k
        # every key frame is committed, dropped or errored
        assert report.n_key_frames == 6 and report.dropped_key_frames == 4

    def test_fake_clock_output_matches_pin(self):
        # an oracle that falls behind the adaptive selector on two scenes, on
        # the frame clock: SHA-256 of the detections, decisions, versions,
        # drop count and each event's losses, so a change to the schedule or
        # the training shows
        scenes = [SceneSpec(0, (0.5, 0.3, 0.2), motion_sigma=0.01, duration_range=(140, 160)),
                  SceneSpec(1, (0.2, 0.3, 0.5), motion_sigma=0.01, duration_range=(140, 160))]
        cfg = pipe_cfg(mode="parallel", oracle_delay=7.0, queue_capacity=2)
        report = frame_clock_run(make_stream(n=300, scenes=scenes), cfg)
        events = [(f["frame_id"], f["loss_before"], f["loss_after"], f["error"])
                  for f in report.feedbacks]
        doc = json.dumps([report.to_dict()["detections"], report.decisions, report.versions,
                          report.dropped_key_frames, events])
        assert (report.n_key_frames, report.dropped_key_frames, len(events)) == (100, 55, 45)
        assert hashlib.sha256(doc.encode()).hexdigest() == (
            "d646bf404bce722c330708f38347ee02687f097b26809f999997a3cf5d8106c3")

    def test_frame_clock_output_ignores_the_wall_clock(self, monkeypatch):
        # the pinned run again with every frame slowed by 1 ms of wall time:
        # the schedule reads only the clock its caller passes
        real_merge = pipeline.merge_detections

        def slow_merge(*args, **kwargs):
            time.sleep(0.001)
            return real_merge(*args, **kwargs)

        monkeypatch.setattr(pipeline, "merge_detections", slow_merge)
        self.test_fake_clock_output_matches_pin()

    def test_late_key_frame_trains_on_its_own_frame_features(self):
        # the frame loop reuses one workspace for every frame's forward; frame
        # 0 is trained at 4 and frame 1 at 6, on their own backbone features,
        # so each event's loss before is a direct distill_step's on them
        cfg = pipe_cfg(mode="parallel", selector="periodic", period=1,
                       selector_cfg=SelectorConfig(tau=0), queue_capacity=16, oracle_delay=2.5)
        stream = make_stream(n=8)
        session = Session(stream[0].features.shape[2], GRID, cfg)
        before = []  # the weights each boundary's events start from
        for i, rec in enumerate(stream):
            before.append(session.params)
            session.step(rec, i)
        backbone = Backbone(CFG.feature_dim, seed=cfg.seed)
        for frame, boundary in ((0, 4), (1, 6)):
            feats = backbone.forward(stream[frame].features)[0]
            oracle = oracle_for_frame(stream[frame], cfg.oracle_noise, GRID,
                                      cfg.effective_oracle_seed)
            _, fb = distill_step(before[boundary], feats, oracle, cfg.distill)
            assert session.feedbacks[frame]["frame_id"] == frame
            assert session.feedbacks[frame]["loss_before"] == fb.loss_before

    def test_failed_session_answers_nothing_and_close_drops_the_waiting(self, monkeypatch):
        # frame 1's poisoned answer is trained at 6, after frames 0-5 were
        # answered and handed over; frames 2-5 wait and are never trained
        poison_oracle(monkeypatch, 2)
        cfg = pipe_cfg(mode="parallel", selector="periodic", period=1,
                       selector_cfg=SelectorConfig(tau=0), queue_capacity=16, oracle_delay=2.5)
        stream = make_stream(n=12)
        session = Session(stream[0].features.shape[2], GRID, cfg)
        answers = [session.step(rec, i) for i, rec in enumerate(stream)]
        assert None not in answers[:6] and answers[6:] == [None] * 6
        report = session.close(len(stream))
        assert report.n_frames == len(report.detections) == len(report.latencies) == 6
        assert [(f["frame_id"], f["error"]) for f in report.feedbacks] == [
            (0, None), (1, "non-finite loss")]
        assert report.dropped_key_frames == 4

    def test_training_and_commits_run_on_the_calling_thread(self, monkeypatch):
        real_step = pipeline.distill_step
        steps = []

        def step(params, *args, frame_id, **kwargs):
            new_params, fb = real_step(params, *args, frame_id=frame_id, **kwargs)
            steps.append((threading.get_ident(), frame_id, params.version,
                          new_params.version if fb.error is None else None))
            return new_params, fb

        monkeypatch.setattr(pipeline, "distill_step", step)
        # with no oracle delay each answer is due at once: it is trained on
        # the weights its key frame saw and committed before the next frame
        cfg = pipe_cfg(mode="parallel", selector="periodic", period=4)
        report = run_pipeline(make_stream(n=120), GRID, cfg)
        v = report.versions
        assert steps and {ident for ident, *_ in steps} == {threading.get_ident()}
        for _, frame_id, before, after in steps:
            assert after is not None
            assert v[frame_id] == before < after == v[frame_id + 1]

    def test_switch_interval_left_alone_during_run(self, monkeypatch):
        real_oracle = pipeline.oracle_for_frame
        before = sys.getswitchinterval()
        seen = []

        def oracle(*args, **kwargs):
            seen.append(sys.getswitchinterval())
            return real_oracle(*args, **kwargs)

        monkeypatch.setattr(pipeline, "oracle_for_frame", oracle)
        cfg = pipe_cfg(mode="parallel", selector="periodic", period=4)
        run_pipeline(make_stream(n=40), GRID, cfg)
        assert seen and set(seen) == {before}

    def test_inference_failure_propagates(self, monkeypatch):
        real_merge = pipeline.merge_detections
        calls = []

        def merge_then_fail(*args, **kwargs):
            calls.append(1)
            if len(calls) == 50:
                raise RuntimeError("merge exploded")
            return real_merge(*args, **kwargs)

        monkeypatch.setattr(pipeline, "merge_detections", merge_then_fail)
        with pytest.raises(RuntimeError, match="merge exploded"):
            run_pipeline(make_stream(n=120), GRID, pipe_cfg(mode="parallel"))

    def test_late_feedback_for_unselected_frame_raises(self, monkeypatch):
        # the only key frame's oracle answers after the last frame, and its
        # feedback names a frame the selector never chose: the post-loop
        # drain must not swallow what the in-loop drain would raise
        real_step = pipeline.distill_step

        def misattributed_step(*args, **kwargs):
            new_params, fb = real_step(*args, **kwargs)
            return new_params, FeedbackRecord(10 ** 6, fb.loss_before, fb.loss_after)

        monkeypatch.setattr(pipeline, "distill_step", misattributed_step)
        cfg = pipe_cfg(mode="parallel", selector_cfg=SelectorConfig(p_init=1.0, tau=5),
                       oracle_delay=0.2)
        with pytest.raises(ValueError, match="never selected"):
            run_pipeline(make_stream(n=3), GRID, cfg)


@pytest.mark.parametrize("mode", ["sequential", "parallel"])
class TestBothModes:
    def test_versions_monotone_and_complete(self, mode):
        cfg = pipe_cfg(mode=mode, oracle_delay=0.0005, queue_capacity=4)
        report = run_pipeline(make_stream(n=400), GRID, cfg)
        v = report.versions
        assert v[-1] > 0
        assert all(b >= a for a, b in zip(v, v[1:]))
        # every observed version is a whole number of committed events
        k = cfg.distill.steps_per_event
        assert all(x % k == 0 for x in v)

    def test_failed_event_stops_run_without_commit(self, mode, monkeypatch, tmp_path):
        poison_oracle(monkeypatch, 3)
        path = str(tmp_path / "run.ckpt")
        cfg = pipe_cfg(mode=mode, selector="periodic", period=8,
                       selector_cfg=SelectorConfig(tau=0), checkpoint_out=path)
        report = run_pipeline(make_stream(n=60), GRID, cfg)
        assert report.error == "frame 16: non-finite loss"
        assert [(f["frame_id"], f["error"]) for f in report.feedbacks] == [
            (0, None), (8, None), (16, "non-finite loss")]
        # sequential stops on the failed frame; parallel trains on frame 16's
        # answer, due at once, at the next frame boundary and stops there
        assert report.decisions[-1]["frame_id"] == 16
        assert checkpoint_load(path).version == 2 * cfg.distill.steps_per_event

    def test_raising_step_propagates(self, mode, monkeypatch):
        exploded = RuntimeError("step exploded")

        def exploding_step(*args, **kwargs):
            raise exploded

        monkeypatch.setattr(pipeline, "distill_step", exploding_step)
        cfg = pipe_cfg(mode=mode, selector="periodic", period=4)
        with pytest.raises(RuntimeError) as info:
            run_pipeline(make_stream(n=60), GRID, cfg)
        assert info.value is exploded

    def test_raising_oracle_propagates(self, mode, monkeypatch):
        exploded = RuntimeError("oracle exploded")

        def broken_oracle(*args, **kwargs):
            raise exploded

        monkeypatch.setattr(pipeline, "oracle_for_frame", broken_oracle)
        cfg = pipe_cfg(mode=mode, selector="periodic", period=4)
        with pytest.raises(RuntimeError) as info:
            run_pipeline(make_stream(n=60), GRID, cfg)
        assert info.value is exploded

    def test_trace_hooks_fire(self, mode, monkeypatch):
        # perfbench traces the names it finds on the pipeline module and
        # skips missing ones silently; each must still be called per frame
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import run
        recorder = run.tracing.Recorder()
        cfg = pipe_cfg(mode=mode, selector="periodic", period=4, queue_capacity=16)
        with recorder.installed(run.trace_targets(scenedistill)):
            report = run_pipeline(make_stream(n=40), GRID, cfg)
        calls = Counter(s.name for s in recorder.spans)
        n, keys = report.n_frames, report.n_key_frames
        assert n == 40 and keys > 0 and report.dropped_key_frames == 0
        assert calls["models.backbone"] == n
        assert calls["models.decoder_forward"] == n
        assert calls["pipeline.merge_detections"] == n
        assert calls["selector.decide"] == n
        assert calls["simstream.oracle_for_frame"] == keys
        assert calls["distill.distill_step"] == keys


def test_trace_targets_resolve(monkeypatch):
    # perfbench's Recorder skips a target it cannot find, which reads 0 on
    # that target's per-layer metrics without an error; only these are gone
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import run
    missing = {(t.name, getattr(t.owner, "__name__", None))
               for t in run.trace_targets(scenedistill)
               if t.owner is None or not hasattr(t.owner, t.attr)}
    assert missing <= {("models.paramstore.snapshot", None), ("models.paramstore.commit", None),
                       ("detection.decode_tensor", "scenedistill.evaluate")}


def test_perfbench_package_names_resolve():
    # perfbench reaches the program only through `sd.<name>` on the package;
    # a name trimmed from it would show only when a benchmark run fails
    source = (Path(__file__).resolve().parent.parent / "perfbench" / "run.py").read_text()
    names = set(re.findall(r"\bsd\.(\w+)", source))
    assert names  # the pattern still finds the harness's lookups
    assert sorted(n for n in names if not hasattr(scenedistill, n)) == []


# perfbench's detection digest, taken when the oracle's noise changed, of a
# 400-frame perfbench-like stream run in each mode with the oracle answering
# at once; frozen_student serves a decoder adapted on another stream, as the
# serve_adapted workload does
PERFBENCH_DIGESTS = {
    "frozen_student": "9cfaf0fd0fa0137e",
    "sequential": "6da84281ea0be7eb",
    "parallel": "0aefcb51e3caf9b8",
    "mixed": "8f779ca937ccb0fb",
}


@pytest.mark.parametrize("mode", sorted(PERFBENCH_DIGESTS))
def test_perfbench_reads_real_reports(mode, monkeypatch, tmp_path):
    # perfbench hashes and checks every report through derive.py, which reads
    # the report's detections field by field; a change to their form should
    # fail here rather than in a benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import derive
    grid = GridShape(s=6, c=4)
    scenes = [SceneSpec(i, tuple(0.7 if j == i else 0.1 for j in range(4)), motion_sigma=0.004,
                        duration_range=(200, 300)) for i in range(4)]
    stream_cfg = StreamConfig(grid=grid, feature_dim=12, transition_len=4)
    noise = scenedistill.OracleNoiseSpec(empty_cell_noise_rate=0.15, noise_logit_range=(-2.0, -0.4),
                                         box_jitter_sigma=0.002, noise_wobble=0.02,
                                         class_flip_prob=0.02)
    base = dict(seed=0, oracle_seed=3000, oracle_noise=noise, decoder_hidden=32, period=16,
                distill=scenedistill.DistillConfig(lam=0.4, lr=0.05, steps_per_event=10))
    stream = generate_stream(scenes, 400, stream_cfg, 3000)
    if mode == "frozen_student":
        ckpt = str(tmp_path / "adapted.json")
        run_pipeline(stream, grid, PipelineConfig(**base, checkpoint_out=ckpt))
        stream = generate_stream(scenes, 400, stream_cfg, 3001)
        cfg = PipelineConfig(**base, mode=mode, selector="never", init_checkpoint=ckpt)
    else:
        selector = {"sequential": "adaptive", "parallel": "periodic", "mixed": "never"}[mode]
        cfg = PipelineConfig(**base, mode=mode, selector=selector)
    report = run_pipeline(stream, grid, cfg)
    assert derive.check_report(report, len(stream)) == []
    assert sum(map(len, report.detections)) > 0
    assert derive.detection_digest(report.detections) == PERFBENCH_DIGESTS[mode]


def test_selector_features_and_frame_logits_outlive_the_next_frame(monkeypatch):
    # every frame's forward runs in one workspace; the features a selector
    # keeps and the logits a frame decoded are not its buffers
    logits = []
    real_forward = pipeline.decoder_forward
    monkeypatch.setattr(pipeline, "decoder_forward",
                        lambda *args: logits.append(real_forward(*args)) or logits[-1])
    cfg = pipe_cfg(mode="sequential", selector="scene_change", change_threshold=1e9)
    stream = make_stream(n=3)
    session = Session(stream[0].features.shape[2], GRID, cfg)
    session.step(stream[0], 0.0)
    prev = session.selector._prev
    kept_prev, kept_logits = prev.copy(), logits[0].copy()
    session.step(stream[1], 1.0)
    assert session.selector._prev is not prev
    assert np.array_equal(prev, kept_prev) and np.array_equal(logits[0], kept_logits)
    backbone = Backbone(CFG.feature_dim, seed=cfg.seed)
    assert np.array_equal(prev, backbone.forward(stream[0].features)[0])


class TestCheckpointing:
    def test_round_trip_preserves_forward_outputs(self, tmp_path):
        rng = np.random.default_rng(1)
        params = init_decoder(CFG.feature_dim, 16, GRID, seed=2)
        path = str(tmp_path / "ckpt.json")
        checkpoint_save(path, params)
        loaded = checkpoint_load(path)
        feat = rng.normal(size=(GRID.s, GRID.s, CFG.feature_dim))
        a = decoder_forward(params, feat)
        b = decoder_forward(loaded, feat)
        assert np.max(np.abs(a - b)) <= 1e-6
        assert loaded.version == params.version

    def test_selector_section_of_older_writer_ignored(self, tmp_path):
        # checkpoints once also held the adaptive selector's state; the
        # decoder section is unchanged, so they still load
        params = init_decoder(CFG.feature_dim, 8, GRID, seed=0)
        path = tmp_path / "ckpt.json"
        checkpoint_save(str(path), params)
        plain = checkpoint_load(str(path))
        doc = json.loads(path.read_text())
        doc["selector"] = {
            "p": 0.3, "frames_since_train": 1, "cfg": {"tau": 5},
            "lstm": {"w_gates": [[0.1]], "b_gates": [0.0], "w_out": [0.0], "b_out": 0.0,
                     "h": [0.0], "c": [0.0]},
            "rng_state": {"bit_generator": "PCG64"},
        }
        path.write_text(json.dumps(doc))
        loaded = checkpoint_load(str(path))
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(loaded, name), getattr(plain, name))
        assert loaded.version == plain.version

    def test_wrong_version_rejected(self, tmp_path):
        params = init_decoder(CFG.feature_dim, 8, GRID, seed=0)
        path = tmp_path / "ckpt.json"
        checkpoint_save(str(path), params)
        path.write_text(path.read_text().replace('"version": 1', '"version": 99'))
        with pytest.raises(CheckpointError, match="version"):
            checkpoint_load(str(path))

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("[1, 2]")
        with pytest.raises(CheckpointError, match="not a JSON object"):
            checkpoint_load(str(path))

    def test_malformed_value_rejected(self, tmp_path):
        params = init_decoder(CFG.feature_dim, 8, GRID, seed=0)
        path = tmp_path / "ckpt.json"
        checkpoint_save(str(path), params)
        doc = json.loads(path.read_text())
        doc["decoder"]["param_version"] = "seven"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="malformed"):
            checkpoint_load(str(path))

    @pytest.mark.parametrize("value", ["7", 7.9, 7.0, -1, True, None])
    def test_param_version_must_be_an_integer_at_least_zero(self, tmp_path, value):
        # int() once loaded "7" and 7.9 as version 7 and any negative value;
        # decoder versions only increase from 0
        params = init_decoder(CFG.feature_dim, 8, GRID, seed=0)
        path = tmp_path / "ckpt.json"
        checkpoint_save(str(path), params)
        doc = json.loads(path.read_text())
        doc["decoder"]["param_version"] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError,
                           match=re.escape(f"param_version {value!r} is not an integer >= 0")):
            checkpoint_load(str(path))

    def test_non_numeric_weights_rejected(self, tmp_path):
        params = init_decoder(CFG.feature_dim, 8, GRID, seed=0)
        path = tmp_path / "ckpt.json"
        checkpoint_save(str(path), params)
        doc = json.loads(path.read_text())
        doc["decoder"]["b2"] = ["x"] * len(doc["decoder"]["b2"])
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=f"malformed checkpoint {re.escape(str(path))}"):
            checkpoint_load(str(path))

    @pytest.mark.parametrize("value", ["0.5", True, None, [0.5]])
    def test_weight_that_is_not_a_json_number_rejected(self, tmp_path, value):
        # a float dtype once loaded [["0.5", true]] as [[0.5, 1.0]]
        params = init_decoder(CFG.feature_dim, 8, GRID, seed=0)
        path = tmp_path / "ckpt.json"
        checkpoint_save(str(path), params)
        doc = json.loads(path.read_text())
        doc["decoder"]["w1"][1][2] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError,
                           match=re.escape(f"w1 value {value!r} is not a number")):
            checkpoint_load(str(path))

    def test_weight_beyond_the_float_range_rejected(self, tmp_path):
        params = init_decoder(CFG.feature_dim, 8, GRID, seed=0)
        path = tmp_path / "ckpt.json"
        checkpoint_save(str(path), params)
        doc = json.loads(path.read_text())
        doc["decoder"]["b1"][0] = 10 ** 400
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="int too large to convert to float"):
            checkpoint_load(str(path))

    def test_non_finite_weights_rejected(self, tmp_path):
        params = init_decoder(CFG.feature_dim, 8, GRID, seed=0)
        params.w1[2, 3] = np.nan
        path = str(tmp_path / "ckpt.json")
        checkpoint_save(path, params)
        with pytest.raises(CheckpointError,
                           match=f"non-finite decoder weights in checkpoint {re.escape(path)}"):
            checkpoint_load(path)

    def test_truncated_rejected(self, tmp_path):
        params = init_decoder(CFG.feature_dim, 8, GRID, seed=0)
        path = tmp_path / "ckpt.json"
        checkpoint_save(str(path), params)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointError):
            checkpoint_load(str(path))

    def test_inconsistent_decoder_shapes_rejected(self, tmp_path):
        params = init_decoder(CFG.feature_dim, 8, GRID, seed=0)
        path = str(tmp_path / "ckpt.json")
        checkpoint_save(path, params)
        doc = json.loads(Path(path).read_text())
        doc["decoder"]["b1"] = [0.0] * 3
        Path(path).write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=r"disagree: w1 \(8, 8\), b1 \(3,\)"):
            checkpoint_load(path)

    @pytest.mark.parametrize("feature_dim, grid, shapes", [
        (6, GRID, "w1 (6, 8) and w2 (8, 8)"),
        (CFG.feature_dim, GridShape(s=4, c=5), "w1 (8, 8) and w2 (8, 10)"),
    ], ids=["feature_dim", "grid_channels"])
    def test_checkpoint_must_fit_stream(self, tmp_path, feature_dim, grid, shapes):
        path = str(tmp_path / "ckpt.json")
        checkpoint_save(path, init_decoder(feature_dim, 8, grid, seed=0))
        cfg = pipe_cfg(mode="parallel", init_checkpoint=path)
        needed = "the stream needs (8, hidden) and (hidden, 8)"
        with pytest.raises(CheckpointError,
                           match=re.escape(f"checkpoint {path} does not fit the stream: "
                                           f"its decoder has {shapes}, {needed}")):
            run_pipeline(make_stream(n=10), GRID, cfg)

    def test_failed_save_keeps_previous_file(self, tmp_path):
        params = init_decoder(CFG.feature_dim, 8, GRID, seed=0)
        path = tmp_path / "ckpt.json"
        checkpoint_save(str(path), params)
        before = path.read_bytes()
        # the weights serialize before param_version, so the dump fails
        # partway through the document
        broken = replace(init_decoder(CFG.feature_dim, 8, GRID, seed=1), version=object())
        with pytest.raises(TypeError):
            checkpoint_save(str(path), broken)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]

    def test_pipeline_saves_and_resumes_checkpoint(self, tmp_path):
        stream = make_stream(n=150)
        path = str(tmp_path / "run.ckpt")
        adapt = run_pipeline(stream, GRID, pipe_cfg(checkpoint_out=path))
        assert adapt.versions[-1] >= 0
        decoder = checkpoint_load(path)
        assert decoder.version >= max(adapt.versions) > 0
        # a frozen run started from the checkpoint reproduces adapted behavior
        frozen_from_ckpt = run_pipeline(stream, GRID, pipe_cfg(
            mode="frozen_student", init_checkpoint=path))
        assert frozen_from_ckpt.versions == [decoder.version] * len(stream)
        frozen_fresh = run_pipeline(stream, GRID, pipe_cfg(mode="frozen_student"))
        assert frozen_from_ckpt.detections != frozen_fresh.detections

    def test_resumed_run_starts_selector_from_its_own_config(self, tmp_path):
        stream = make_stream(n=200)
        path = str(tmp_path / "run.ckpt")
        run_pipeline(stream, GRID, pipe_cfg(checkpoint_out=path))  # tau 2
        eager = SelectorConfig(tau=0, p_init=1.0)
        resumed = run_pipeline(stream, GRID, pipe_cfg(selector_cfg=eager, init_checkpoint=path))
        assert not any(d["suppressed"] for d in resumed.decisions)
        assert resumed.decisions[0]["p"] == 1.0


class TestReportSerialization:
    def test_report_round_trips_through_dict(self):
        report = run_pipeline(make_stream(n=40), GRID, pipe_cfg())
        data = report.to_dict()
        import json
        loaded = PipelineReport.from_dict(json.loads(json.dumps(data)))
        assert loaded.decisions == report.decisions
        assert loaded.detections == report.detections
        assert loaded.fps == report.fps

    def test_dict_writes_the_json_of_the_asdict_form(self):
        # to_dict once started from dataclasses.asdict, deep-copying every
        # detection only to replace it with rows; the written bytes stay
        from scenedistill.evaluate import EvalConfig, evaluate_report
        stream = make_stream(n=80, scenes=[
            SceneSpec(i, (0.5, 0.3, 0.2), motion_sigma=0.01, duration_range=(30, 40))
            for i in range(2)])
        report = run_pipeline(stream, GRID, pipe_cfg())
        evaluate_report(report, stream, GRID, EvalConfig(gt_source="oracle_as_gt"))
        assert report.evaluation and sum(map(len, report.detections)) > 20
        assert report.feedbacks and report.n_key_frames
        want = {**asdict(report),
                "detections": [detection_rows(frame) for frame in report.detections]}
        assert json.dumps(report.to_dict()) == json.dumps(want)

    def test_key_fraction_is_exact_ratio(self):
        report = run_pipeline(make_stream(n=200), GRID, pipe_cfg())
        positives = sum(1 for d in report.decisions if d["train"])
        assert report.key_fraction == positives / report.n_frames


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"mode": "warp"}, {"selector": "psychic"}, {"queue_capacity": 0},
        {"p_oracle": 1.5}, {"oracle_delay": -1.0}, {"decoder_hidden": 0}, {"decoder_hidden": -3},
        {"random_prob": 2.0}, {"random_prob": -0.1}, {"period": 0},
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            pipe_cfg(**kwargs)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            run_pipeline([], GRID, pipe_cfg())
