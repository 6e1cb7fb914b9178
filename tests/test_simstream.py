"""Stream generator, synthetic oracle, and trace round-trips."""

import hashlib

import numpy as np
import pytest

from scenedistill.detection import Box, GridShape, GroundTruthObject, decode_tensor, iou
from scenedistill.evaluate import evaluate_frames
from scenedistill.simstream import (
    FrameRecord,
    OracleNoiseSpec,
    SceneSpec,
    StreamConfig,
    TraceError,
    attach_oracle,
    generate_stream,
    oracle_for_frame,
    oracle_tensors,
    read_trace,
    scene_change_frames,
    write_trace,
)

GRID = GridShape(s=5, c=3)
CFG = StreamConfig(grid=GRID, feature_dim=8, transition_len=3)
# the acceptance suite's oracle model, and a heavy one that moves jittered
# boxes across cells and flips classes often
QUIET_NOISE = OracleNoiseSpec(empty_cell_noise_rate=0.15, noise_logit_range=(-2.0, -0.4),
                              box_jitter_sigma=0.002, noise_wobble=0.02, class_flip_prob=0.02)
HEAVY_NOISE = OracleNoiseSpec(empty_cell_noise_rate=0.5, box_jitter_sigma=0.05,
                              class_flip_prob=0.3, noise_wobble=0.0)


def one_scene(probs=(0.5, 0.3, 0.2), motion=0.005, duration=(40, 60), count=(2, 4)):
    return SceneSpec(scene_id=0, class_probs=probs, object_count_range=count,
                     motion_sigma=motion, duration_range=duration)


def stream_hash(stream):
    digest = hashlib.sha256()
    for rec in stream:
        digest.update(rec.features.tobytes())
        digest.update(str([(o.box, o.class_id, o.object_id) for o in rec.gt]).encode())
    return digest.hexdigest()


class TestGenerateStream:
    def test_static_scene_keeps_gt_identical(self):
        scenes = [one_scene(motion=0.0, duration=(100, 100))]
        stream = generate_stream(scenes, 50, CFG, seed=1)
        first = stream[0].gt
        for rec in stream[1:]:
            assert rec.gt == first

    def test_same_seed_bitwise_identical(self):
        scenes = [one_scene(), SceneSpec(scene_id=1, class_probs=(0.0, 0.5, 0.5))]
        a = generate_stream(scenes, 300, CFG, seed=9)
        b = generate_stream(scenes, 300, CFG, seed=9)
        assert stream_hash(a) == stream_hash(b)

    def test_different_seed_differs(self):
        scenes = [one_scene()]
        a = generate_stream(scenes, 100, CFG, seed=1)
        b = generate_stream(scenes, 100, CFG, seed=2)
        assert stream_hash(a) != stream_hash(b)

    def test_disjoint_class_supports_across_change(self):
        scenes = [
            SceneSpec(scene_id=0, class_probs=(1.0, 0.0, 0.0), duration_range=(30, 40)),
            SceneSpec(scene_id=1, class_probs=(0.0, 0.5, 0.5), duration_range=(30, 40)),
        ]
        stream = generate_stream(scenes, 140, CFG, seed=4)
        changes = scene_change_frames(stream)
        assert changes
        for rec in stream:
            classes = {o.class_id for o in rec.gt}
            if rec.scene_id == 0:
                assert classes <= {0}
            else:
                assert classes <= {1, 2}

    def test_frame_count_and_ids(self):
        stream = generate_stream([one_scene()], 77, CFG, seed=0)
        assert len(stream) == 77
        assert [r.frame_id for r in stream] == list(range(77))

    def test_class_frequencies_match_spec(self):
        probs = (0.5, 0.3, 0.2)
        scenes = [one_scene(probs=probs, duration=(5, 10), count=(6, 10))]
        stream = generate_stream(scenes, 2000, CFG, seed=13)
        seen = {}
        counts = np.zeros(3)
        for rec in stream:
            for obj in rec.gt:
                if obj.object_id not in seen:
                    seen[obj.object_id] = True
                    counts[obj.class_id] += 1
        freq = counts / counts.sum()
        tv = 0.5 * np.abs(freq - np.asarray(probs)).sum()
        assert tv <= 0.05

    def test_boxes_stay_in_bounds(self):
        scenes = [one_scene(motion=0.05)]
        stream = generate_stream(scenes, 300, CFG, seed=2)
        for rec in stream:
            for obj in rec.gt:
                assert obj.box.cx - obj.box.w / 2 >= 0.0
                assert obj.box.cx + obj.box.w / 2 <= 1.0
                assert obj.box.cy - obj.box.h / 2 >= 0.0
                assert obj.box.cy + obj.box.h / 2 <= 1.0

    def test_one_object_per_cell(self):
        scenes = [one_scene(motion=0.08, count=(6, 8))]
        stream = generate_stream(scenes, 300, CFG, seed=5)
        for rec in stream:
            cells = [(min(int(o.box.cy * GRID.s), GRID.s - 1),
                      min(int(o.box.cx * GRID.s), GRID.s - 1)) for o in rec.gt]
            assert len(cells) == len(set(cells))

    def test_empty_scene_list_rejected(self):
        with pytest.raises(ValueError):
            generate_stream([], 10, CFG, seed=0)

    def test_bad_class_prob_length_rejected(self):
        with pytest.raises(ValueError):
            generate_stream([SceneSpec(scene_id=0, class_probs=(1.0,))], 10, CFG, seed=0)


def record(gt, frame_id=0):
    return FrameRecord(frame_id=frame_id, scene_id=0, features=None, gt=gt)


class TestSynthOracle:
    def test_no_gt_zero_noise_decodes_empty(self):
        t = oracle_for_frame(record([]), OracleNoiseSpec(), GRID, seed=0)
        assert decode_tensor(t, GRID, 0.5) == []

    def test_one_object_round_trips_through_decode(self):
        obj = GroundTruthObject(Box(0.52, 0.48, 0.2, 0.25), class_id=1)
        t = oracle_for_frame(record([obj]), OracleNoiseSpec(), GRID, seed=1)
        dets = decode_tensor(t, GRID, 0.5)
        assert len(dets) == 1
        assert dets[0].class_id == 1
        assert iou(dets[0].box, obj.box) >= 0.95
        assert dets[0].confidence >= 0.95

    def test_noise_stays_out_of_high_partition(self):
        from scenedistill.detection import partition_cells
        obj = GroundTruthObject(Box(0.5, 0.5, 0.2, 0.2), class_id=0)
        noise = OracleNoiseSpec(empty_cell_noise_rate=0.5, noise_logit_range=(-2.0, -0.2))
        t = oracle_for_frame(record([obj]), noise, GRID, seed=2)
        high, _ = partition_cells(t, 0.5)
        assert high.sum() == 1  # only the true object's cell

    def test_nearer_object_wins_shared_cell(self):
        near = GroundTruthObject(Box(0.5, 0.5, 0.1, 0.1), class_id=0, object_id=0)
        far = GroundTruthObject(Box(0.55, 0.59, 0.1, 0.1), class_id=1, object_id=1)
        t = oracle_for_frame(record([far, near]), OracleNoiseSpec(), GRID, seed=3)
        dets = decode_tensor(t, GRID, 0.5)
        assert len(dets) == 1
        assert dets[0].class_id == 0

    def test_class_flip_probability(self):
        obj = GroundTruthObject(Box(0.5, 0.5, 0.2, 0.2), class_id=0)
        noise = OracleNoiseSpec(class_flip_prob=0.3)
        flips = 0
        for frame_id in range(2000):
            t = oracle_for_frame(record([obj], frame_id), noise, GRID, seed=4)
            flips += decode_tensor(t, GRID, 0.3)[0].class_id != 0
        assert flips / 2000 == pytest.approx(0.3, abs=0.03)

    def test_zero_noise_oracle_scores_perfectly_on_stream(self):
        scenes = [one_scene(motion=0.02, count=(3, 5))]
        stream = generate_stream(scenes, 200, CFG, seed=6)
        attach_oracle(stream, OracleNoiseSpec(), GRID, seed=6)
        dets = [decode_tensor(rec.oracle_tensor, GRID, 0.5) for rec in stream]
        gt = [rec.gt for rec in stream]
        metrics = evaluate_frames(dets, gt, 0.5)
        assert metrics.f1 == pytest.approx(1.0)
        assert metrics.mean_ap == pytest.approx(1.0)

    def test_oracle_for_frame_deterministic_and_scene_stable_noise(self):
        scenes = [one_scene(motion=0.0, duration=(100, 100))]
        stream = generate_stream(scenes, 10, CFG, seed=7)
        noise = OracleNoiseSpec(empty_cell_noise_rate=0.3, noise_wobble=0.0,
                                noise_logit_range=(-2.0, -0.5))
        a = oracle_for_frame(stream[0], noise, GRID, seed=7)
        b = oracle_for_frame(stream[0], noise, GRID, seed=7)
        assert np.array_equal(a, b)
        # static scene + zero wobble: spurious cells identical across frames
        c = oracle_for_frame(stream[5], noise, GRID, seed=7)
        assert np.array_equal((a[:, :, 0] > -6.0), (c[:, :, 0] > -6.0))

    # SHA-256 of every oracle tensor of PIN_STREAM in frame order, taken before
    # oracle synthesis was rewritten for speed; any change to generated
    # supervision shows here.
    PIN_DIGESTS = {
        "default": "451740262343db5b851825561462d19e97010ecf063a84993e3308b14f5f944f",
        "quiet": "2d3bbb0b52201d78665b5e36f44c72a6f3eedac6592085afffed3dd8e2d34750",
        "heavy": "ea211c31bce8605628a0962753141d22754e74a508cc771ff325e4274cb486bd",
    }

    @staticmethod
    def pin_stream():
        scenes = [
            SceneSpec(scene_id=0, class_probs=(0.5, 0.3, 0.2), object_count_range=(3, 5),
                      motion_sigma=0.02, duration_range=(60, 90)),
            SceneSpec(scene_id=1, class_probs=(0.1, 0.3, 0.6), object_count_range=(3, 5),
                      motion_sigma=0.02, duration_range=(60, 90)),
        ]
        return generate_stream(scenes, 300, CFG, seed=21)

    @pytest.mark.parametrize("name", ["default", "quiet", "heavy"])
    def test_oracle_tensors_match_pinned_digests(self, name):
        noise = {"default": OracleNoiseSpec(), "quiet": QUIET_NOISE, "heavy": HEAVY_NOISE}[name]
        stream = self.pin_stream()
        per_frame = hashlib.sha256()
        for rec in stream:
            per_frame.update(oracle_for_frame(rec, noise, GRID, seed=21).tobytes())
        assert per_frame.hexdigest() == self.PIN_DIGESTS[name]

    def test_mutating_returned_tensor_leaves_later_calls_unchanged(self):
        stream = self.pin_stream()[:20]
        expected = [oracle_for_frame(rec, HEAVY_NOISE, GRID, seed=21).copy() for rec in stream]
        for rec in stream:
            oracle_for_frame(rec, HEAVY_NOISE, GRID, seed=21).fill(99.0)
        for rec, want in zip(stream, expected):
            assert np.array_equal(oracle_for_frame(rec, HEAVY_NOISE, GRID, seed=21), want)


class TestOracleTensors:
    """The block synthesis equals one oracle_for_frame call per record."""

    @staticmethod
    def assert_matches_one_record_calls(records, noise, shape, seed):
        got = oracle_tensors(records, noise, shape, seed)
        assert got.shape == (len(records), shape.s, shape.s, shape.channels)
        for rec, tensor in zip(records, got):
            assert np.array_equal(tensor, oracle_for_frame(rec, noise, shape, seed))
        return got

    @pytest.mark.parametrize("name", ["default", "quiet", "heavy"])
    def test_mixed_cached_and_uncached_records(self, name):
        noise = {"default": OracleNoiseSpec(), "quiet": QUIET_NOISE, "heavy": HEAVY_NOISE}[name]
        stream = TestSynthOracle.pin_stream()[:60]
        cached = OracleNoiseSpec(empty_cell_noise_rate=0.4)
        for rec in stream[::3]:
            rec.oracle_tensor = oracle_for_frame(rec, cached, GRID, seed=5)
        got = self.assert_matches_one_record_calls(stream, noise, GRID, 21)
        got[0].fill(99.0)  # a cached tensor is copied in, not shared
        assert not np.array_equal(stream[0].oracle_tensor, got[0])

    def test_single_class_grid(self):
        grid = GridShape(s=4, c=1)
        scenes = [SceneSpec(scene_id=0, class_probs=(1.0,), object_count_range=(2, 5),
                            motion_sigma=0.03, duration_range=(20, 30))]
        stream = generate_stream(scenes, 50, StreamConfig(grid=grid, feature_dim=4), seed=3)
        noise = OracleNoiseSpec(empty_cell_noise_rate=0.5, box_jitter_sigma=0.05,
                                class_flip_prob=0.5, noise_wobble=0.2)
        self.assert_matches_one_record_calls(stream, noise, grid, 3)

    def test_zero_jitter_and_zero_wobble(self):
        stream = TestSynthOracle.pin_stream()[:50]
        noise = OracleNoiseSpec(empty_cell_noise_rate=0.3, noise_wobble=0.0, box_jitter_sigma=0.0)
        self.assert_matches_one_record_calls(stream, noise, GRID, 4)

    def test_flips_with_dense_noise(self):
        stream = TestSynthOracle.pin_stream()[:50]
        noise = OracleNoiseSpec(empty_cell_noise_rate=0.5, class_flip_prob=0.3,
                                box_jitter_sigma=0.01, noise_wobble=0.1)
        self.assert_matches_one_record_calls(stream, noise, GRID, 6)

    def test_jittered_object_overwrites_spurious_cell(self):
        # objects on a cell boundary, jitter that moves them across it, and a
        # spurious detection on every empty cell: a moved object lands on one
        records = [
            FrameRecord(frame_id=i, scene_id=0, features=None,
                        gt=[GroundTruthObject(Box(0.4 + 1e-9, 0.5, 0.1, 0.1), 0),
                            GroundTruthObject(Box(0.9, 0.2 + 1e-9, 0.1, 0.1), 1)])
            for i in range(12)
        ]
        noise = OracleNoiseSpec(empty_cell_noise_rate=1.0, box_jitter_sigma=0.05, noise_wobble=0.1)
        got = self.assert_matches_one_record_calls(records, noise, GRID, 8)
        # where the first object left its cell (2, 2), that cell is empty and
        # the object sits on a neighbour that held a spurious detection
        moved = got[:, 2, 2, 0] == noise.empty_logit
        assert moved.any()
        assert np.all((got[moved, 1:4, 1:4, 0] == noise.obj_logit).any(axis=(1, 2)))

    def test_empty_list(self):
        assert oracle_tensors([], QUIET_NOISE, GRID, 0).shape == (0, GRID.s, GRID.s, GRID.channels)


class TestTraceIO:
    def make_stream(self, n=10, with_oracle=True):
        scenes = [one_scene()]
        stream = generate_stream(scenes, n, CFG, seed=8)
        if with_oracle:
            attach_oracle(stream, OracleNoiseSpec(empty_cell_noise_rate=0.1), GRID, seed=8)
        return stream

    def test_round_trip_exact(self, tmp_path):
        stream = self.make_stream()
        path = str(tmp_path / "trace.jsonl")
        write_trace(stream, path, grid=GRID)
        loaded, grid, d = read_trace(path)
        assert grid == GRID
        assert d == CFG.feature_dim
        assert len(loaded) == len(stream)
        for a, b in zip(stream, loaded):
            assert a.frame_id == b.frame_id
            assert a.scene_id == b.scene_id
            assert np.array_equal(a.features, b.features)
            assert a.gt == b.gt
            assert np.array_equal(a.oracle_tensor, b.oracle_tensor)

    def test_round_trip_preserves_evaluation(self, tmp_path):
        stream = self.make_stream(n=30)
        path = str(tmp_path / "trace.jsonl")
        write_trace(stream, path, grid=GRID)
        loaded, _, _ = read_trace(path)

        def score(recs):
            dets = [decode_tensor(r.oracle_tensor, GRID, 0.4) for r in recs]
            return evaluate_frames(dets, [r.gt for r in recs], 0.5)

        a, b = score(stream), score(loaded)
        assert (a.tp, a.fp, a.fn, a.f1, a.mean_ap) == (b.tp, b.fp, b.fn, b.f1, b.mean_ap)

    def test_truncated_file_names_line(self, tmp_path):
        stream = self.make_stream()
        path = str(tmp_path / "trace.jsonl")
        write_trace(stream, path, grid=GRID)
        with open(path) as f:
            lines = f.read().splitlines()
        broken = str(tmp_path / "broken.jsonl")
        with open(broken, "w") as f:
            f.write("\n".join(lines[:5]) + "\n" + lines[5][: len(lines[5]) // 2] + "\n")
        with pytest.raises(TraceError, match="line 6"):
            read_trace(broken)

    def test_dimension_mismatch_names_line(self, tmp_path):
        stream = self.make_stream(n=3)
        path = str(tmp_path / "trace.jsonl")
        write_trace(stream, path, grid=GRID)
        with open(path) as f:
            lines = f.read().splitlines()
        header = lines[0].replace('"s": 5', '"s": 8')
        bad = str(tmp_path / "bad.jsonl")
        with open(bad, "w") as f:
            f.write("\n".join([header] + lines[1:]))
        with pytest.raises(TraceError, match="line 2"):
            read_trace(bad)

    def test_unknown_version_rejected(self, tmp_path):
        stream = self.make_stream(n=2)
        path = str(tmp_path / "trace.jsonl")
        write_trace(stream, path, grid=GRID)
        with open(path) as f:
            lines = f.read().splitlines()
        bad = str(tmp_path / "v9.jsonl")
        with open(bad, "w") as f:
            f.write("\n".join([lines[0].replace('"version": 1', '"version": 9')] + lines[1:]))
        with pytest.raises(TraceError, match="version"):
            read_trace(bad)

    def test_missing_file(self):
        with pytest.raises(TraceError):
            read_trace("/nonexistent/trace.jsonl")

    def rewrite_header(self, tmp_path, header):
        stream = self.make_stream(n=2)
        path = str(tmp_path / "trace.jsonl")
        write_trace(stream, path, grid=GRID)
        with open(path) as f:
            lines = f.read().splitlines()
        with open(path, "w") as f:
            f.write("\n".join([header(lines[0])] + lines[1:]))
        return path

    def test_header_not_an_object_rejected(self, tmp_path):
        path = self.rewrite_header(tmp_path, lambda line: "[1, 2]")
        with pytest.raises(TraceError, match="not a JSON object"):
            read_trace(path)

    def test_non_integer_header_field_rejected(self, tmp_path):
        path = self.rewrite_header(tmp_path, lambda line: line.replace('"s": 5', '"s": "5"'))
        with pytest.raises(TraceError, match="'s'"):
            read_trace(path)

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(self.make_stream(), str(path), grid=GRID)
        before = path.read_bytes()
        stream = self.make_stream(n=12)
        stream[6].scene_id = object()  # not JSON: fails after six records are written
        with pytest.raises(TypeError):
            write_trace(stream, str(path), grid=GRID)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.jsonl"]

    def test_grid_disagreeing_with_frames_rejected_before_writing(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with pytest.raises(ValueError, match="s=4"):
            write_trace(self.make_stream(), str(path), grid=GridShape(s=4, c=GRID.c))
        assert list(tmp_path.iterdir()) == []

    def test_byte_identical_rewrites(self, tmp_path):
        stream = self.make_stream()
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(stream, str(p1), grid=GRID)
        write_trace(stream, str(p2), grid=GRID)
        assert p1.read_bytes() == p2.read_bytes()


class TestSpecValidation:
    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SceneSpec(scene_id=0, class_probs=(0.5, 0.4))

    def test_negative_prob_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec(scene_id=0, class_probs=(1.5, -0.5))

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec(scene_id=0, class_probs=(1.0,), object_count_range=(5, 2))
        with pytest.raises(ValueError):
            OracleNoiseSpec(empty_cell_noise_rate=1.5)
