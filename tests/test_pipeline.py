"""Pipeline runners: detection merging, both execution modes, non-learning
baselines, checkpointing."""

import json
import sys
import threading
import time

import numpy as np
import pytest

from scenedistill import pipeline
from scenedistill.detection import Box, GridShape, decode_tensor, encode_object
from scenedistill.distill import FeedbackRecord
from scenedistill.models import FeatureFrame, decoder_forward, init_decoder
from scenedistill.pipeline import (
    CheckpointError,
    PipelineConfig,
    PipelineError,
    PipelineReport,
    checkpoint_load,
    checkpoint_save,
    merge_detections,
    run_pipeline,
)
from scenedistill.selector import AdaptiveSelector, SelectorConfig
from scenedistill.simstream import (
    OracleNoiseSpec,
    SceneSpec,
    StreamConfig,
    generate_stream,
)

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


class TestMergeDetections:
    def test_silent_general_head_contributes_nothing(self):
        shape = GridShape(s=3, c=2)
        adaptive = np.zeros((3, 3, shape.channels))
        adaptive[:, :, 0] = -10.0
        encode_object(adaptive, shape, Box(0.5, 0.5, 0.2, 0.2), 0, obj_logit=8.0)
        general = np.full((3, 3, shape.channels), -10.0)
        merged = merge_detections(adaptive, general, shape, 0.5, 0.5)
        assert merged == decode_tensor(adaptive, shape, 0.5)

    def test_identical_tensors_deduplicated(self):
        shape = GridShape(s=3, c=2)
        t = np.zeros((3, 3, shape.channels))
        t[:, :, 0] = -10.0
        encode_object(t, shape, Box(0.5, 0.5, 0.2, 0.2), 1, obj_logit=8.0)
        merged = merge_detections(t, t.copy(), shape, 0.5, 0.5)
        assert len(merged) == 1

    def test_distinct_detections_both_survive(self):
        shape = GridShape(s=3, c=2)
        a = np.zeros((3, 3, shape.channels))
        a[:, :, 0] = -10.0
        encode_object(a, shape, Box(0.2, 0.2, 0.15, 0.15), 0, obj_logit=8.0)
        g = np.zeros((3, 3, shape.channels))
        g[:, :, 0] = -10.0
        encode_object(g, shape, Box(0.8, 0.8, 0.15, 0.15), 1, obj_logit=8.0)
        merged = merge_detections(a, g, shape, 0.5, 0.5)
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

    def test_mixed_mode_oracle_fraction(self):
        small_grid = GridShape(s=3, c=2)
        small_cfg = StreamConfig(grid=small_grid, feature_dim=4, transition_len=2)
        scenes = [SceneSpec(scene_id=0, class_probs=(0.5, 0.5), duration_range=(500, 500),
                            motion_sigma=0.0, object_count_range=(1, 2))]
        stream = generate_stream(scenes, 100_000, small_cfg, seed=1)
        report = run_pipeline(stream, small_grid, pipe_cfg(mode="mixed", p_oracle=0.27))
        assert report.oracle_answer_fraction == pytest.approx(0.27, abs=0.01)
        assert report.key_fraction == 0.0

    def test_oracle_only_self_evaluates_perfectly(self):
        from scenedistill.evaluate import EvalConfig, evaluate_report
        stream = make_stream(n=80)
        cfg = pipe_cfg(mode="oracle_only")
        report = run_pipeline(stream, GRID, cfg)
        assert report.oracle_answer_fraction == 1.0
        summary = evaluate_report(report, stream, GRID,
                                  EvalConfig(gt_source="oracle_as_gt", iou_thresholds=(0.5,)),
                                  cfg.oracle_noise, cfg.seed)
        assert summary.at(0.5).f1 == pytest.approx(1.0)
        assert summary.at(0.5).mean_ap == pytest.approx(1.0)


class TestParallelMode:
    def test_versions_monotone_and_complete(self):
        cfg = pipe_cfg(mode="parallel", oracle_delay=0.0005, queue_capacity=4)
        report = run_pipeline(make_stream(n=400), GRID, cfg)
        v = report.versions
        assert all(b >= a for a, b in zip(v, v[1:]))
        # every observed version is a whole number of committed events
        k = cfg.distill.steps_per_event
        assert all(x % k == 0 for x in v)

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

    def test_worker_failure_keeps_traceback(self, monkeypatch):
        def broken_distill_step(*args, **kwargs):
            time.sleep(0.02)  # inference fills the one-slot queue meanwhile
            raise RuntimeError("step exploded")

        monkeypatch.setattr(pipeline, "distill_step", broken_distill_step)
        switch = sys.getswitchinterval()
        cfg = pipe_cfg(mode="parallel", selector="periodic", period=1,
                       selector_cfg=SelectorConfig(tau=0), queue_capacity=1)
        raised = []

        def run():
            try:
                run_pipeline(make_stream(n=60), GRID, cfg)
            except PipelineError as e:
                raised.append(e)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=30.0)
        # a dead worker must not leave the runner blocked on its full queue
        assert not runner.is_alive()
        assert len(raised) == 1
        message = str(raised[0])
        assert message.startswith("distillation worker failed: RuntimeError: step exploded")
        assert "Traceback (most recent call last)" in message
        assert "broken_distill_step" in message
        assert sys.getswitchinterval() == switch

    def test_inference_failure_stops_worker(self, monkeypatch):
        real_merge = pipeline.merge_detections
        calls = []

        def merge_then_fail(*args, **kwargs):
            calls.append(1)
            if len(calls) == 50:
                raise RuntimeError("merge exploded")
            return real_merge(*args, **kwargs)

        monkeypatch.setattr(pipeline, "merge_detections", merge_then_fail)
        switch = sys.getswitchinterval()
        with pytest.raises(RuntimeError, match="merge exploded"):
            run_pipeline(make_stream(n=120), GRID, pipe_cfg(mode="parallel"))
        workers = [t for t in threading.enumerate() if t.name == "distill-worker"]
        assert workers == []
        assert sys.getswitchinterval() == switch

    def test_late_feedback_for_unselected_frame_raises(self, monkeypatch):
        # the only key frame's feedback arrives after the last frame and names
        # a frame the selector never chose: the post-loop drain must not
        # swallow what the in-loop drain would raise
        real_step = pipeline.distill_step

        def misattributed_step(*args, **kwargs):
            time.sleep(0.2)
            new_params, fb = real_step(*args, **kwargs)
            return new_params, FeedbackRecord(10 ** 6, fb.loss_before, fb.loss_after,
                                              fb.decision_source)

        monkeypatch.setattr(pipeline, "distill_step", misattributed_step)
        cfg = pipe_cfg(mode="parallel", selector_cfg=SelectorConfig(p_init=1.0, tau=5))
        with pytest.raises(ValueError, match="never selected"):
            run_pipeline(make_stream(n=3), GRID, cfg)
        assert [t for t in threading.enumerate() if t.name == "distill-worker"] == []


class TestCheckpointing:
    def _selector(self):
        sel = AdaptiveSelector(2 * CFG.feature_dim, SelectorConfig(), seed=5)
        rng = np.random.default_rng(0)
        for i in range(7):
            frame = FeatureFrame(frame_id=i,
                                 values=rng.normal(size=(GRID.s, GRID.s, CFG.feature_dim)))
            d = sel.decide(frame, rng.normal(size=2 * CFG.feature_dim))
            if d.train:
                sel.apply_feedback(FeedbackRecord(i, 1.0, 0.5, d.source))
        return sel

    def test_round_trip_preserves_forward_outputs(self, tmp_path):
        rng = np.random.default_rng(1)
        params = init_decoder(CFG.feature_dim, 16, GRID, seed=2)
        sel = self._selector()
        path = str(tmp_path / "ckpt.json")
        checkpoint_save(path, params, sel)
        loaded, sel2 = checkpoint_load(path)
        feat = FeatureFrame(frame_id=0, values=rng.normal(size=(GRID.s, GRID.s, CFG.feature_dim)))
        a = decoder_forward(params, feat)
        b = decoder_forward(loaded, feat)
        assert np.max(np.abs(a - b)) <= 1e-6
        assert loaded.version == params.version
        assert sel2.p == sel.p
        assert np.array_equal(sel2.lstm.h, sel.lstm.h)
        # rng state restored: next draws identical
        assert sel2.rng.random() == sel.rng.random()

    def test_wrong_version_rejected(self, tmp_path):
        params = init_decoder(CFG.feature_dim, 8, GRID, seed=0)
        path = str(tmp_path / "ckpt.json")
        checkpoint_save(path, params)
        text = open(path).read().replace('"version": 1', '"version": 99')
        open(path, "w").write(text)
        with pytest.raises(CheckpointError, match="version"):
            checkpoint_load(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("[1, 2]")
        with pytest.raises(CheckpointError, match="not a JSON object"):
            checkpoint_load(str(path))

    def test_malformed_value_rejected(self, tmp_path):
        params = init_decoder(CFG.feature_dim, 8, GRID, seed=0)
        path = tmp_path / "ckpt.json"
        checkpoint_save(str(path), params, self._selector())
        doc = json.loads(path.read_text())
        doc["decoder"]["param_version"] = "seven"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="malformed"):
            checkpoint_load(str(path))

    def test_truncated_rejected(self, tmp_path):
        params = init_decoder(CFG.feature_dim, 8, GRID, seed=0)
        path = str(tmp_path / "ckpt.json")
        checkpoint_save(path, params)
        text = open(path).read()
        open(path, "w").write(text[: len(text) // 2])
        with pytest.raises(CheckpointError):
            checkpoint_load(path)

    def test_failed_save_keeps_previous_file(self, tmp_path):
        params = init_decoder(CFG.feature_dim, 8, GRID, seed=0)
        sel = self._selector()
        path = tmp_path / "ckpt.json"
        checkpoint_save(str(path), params, sel)
        before = path.read_bytes()
        # the decoder weights serialize before the selector's p, so the dump
        # fails partway through the document
        sel.p = object()
        with pytest.raises(TypeError):
            checkpoint_save(str(path), init_decoder(CFG.feature_dim, 8, GRID, seed=1), sel)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]

    def test_pipeline_saves_and_resumes_checkpoint(self, tmp_path):
        stream = make_stream(n=150)
        path = str(tmp_path / "run.ckpt")
        adapt = run_pipeline(stream, GRID, pipe_cfg(checkpoint_out=path))
        assert adapt.versions[-1] >= 0
        decoder, selector = checkpoint_load(path)
        assert decoder.version >= max(adapt.versions) > 0
        assert selector is not None
        # a frozen run started from the checkpoint reproduces adapted behavior
        frozen_from_ckpt = run_pipeline(stream, GRID, pipe_cfg(
            mode="frozen_student", init_checkpoint=path))
        assert frozen_from_ckpt.versions == [decoder.version] * len(stream)
        frozen_fresh = run_pipeline(stream, GRID, pipe_cfg(mode="frozen_student"))
        assert frozen_from_ckpt.detections != frozen_fresh.detections


class TestReportSerialization:
    def test_report_round_trips_through_dict(self):
        report = run_pipeline(make_stream(n=40), GRID, pipe_cfg())
        data = report.to_dict()
        import json
        loaded = PipelineReport.from_dict(json.loads(json.dumps(data)))
        assert loaded.decisions == report.decisions
        assert loaded.detections == report.detections
        assert loaded.fps == report.fps

    def test_key_fraction_is_exact_ratio(self):
        report = run_pipeline(make_stream(n=200), GRID, pipe_cfg())
        positives = sum(1 for d in report.decisions if d["train"])
        assert report.key_fraction == positives / report.n_frames


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"mode": "warp"}, {"selector": "psychic"}, {"queue_capacity": 0},
        {"p_oracle": 1.5},
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            pipe_cfg(**kwargs)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            run_pipeline([], GRID, pipe_cfg())
