"""Stream generator, synthetic oracle, and trace round-trips."""

import hashlib
import json
import re
from dataclasses import astuple, replace

import numpy as np
import pytest

from scenedistill.detection import Box, GridShape, decode_tensor, detections, iou
from scenedistill.evaluate import EvalConfig, evaluate_frames, ground_truth_for
from scenedistill.simstream import (
    EMPTY_LOGIT,
    GT_BLOCK_FRAMES,
    OBJ_LOGIT,
    TRACE_ARRAYS,
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
    """SHA-256 of every frame's features and its [cx, cy, w, h, class,
    object_id] ground-truth rows, the ids as integers."""
    digest = hashlib.sha256()
    for rec in stream:
        digest.update(rec.features.tobytes())
        digest.update(json.dumps([[*row[:4], int(row[4]), int(row[5])]
                                  for row in rec.gt.tolist()]).encode())
    return digest.hexdigest()


# perfbench's stream model: a 6x4 grid and four scenes, each favouring one class
PERF_GRID = GridShape(s=6, c=4)
PERF_CFG = StreamConfig(grid=PERF_GRID, feature_dim=12, transition_len=4)
PERF_SCENES = [SceneSpec(i, tuple(0.7 if j == i else 0.1 for j in range(4)), motion_sigma=0.004,
                         duration_range=(200, 300)) for i in range(4)]


class TestGenerateStream:
    def test_static_scene_keeps_gt_identical(self):
        scenes = [one_scene(motion=0.0, duration=(100, 100))]
        stream = generate_stream(scenes, 50, CFG, seed=1)
        first = stream[0].gt
        assert first.shape[0] >= 2
        for rec in stream[1:]:
            assert np.array_equal(rec.gt, first)

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

    # SHA-256 of 600 frames of perfbench-like streams, features and ground
    # truth, taken before ground truth became rows
    STREAM_PINS = {
        3000: "fe055b1625a55aaecc421e8429c45b99c2d202a19edcdabfdb508b70dee6d903",
        999_983: "385bf03527cd174e03462abf3249fc471731e014138e12b396bdb111ff0f80f0",
    }

    @pytest.mark.parametrize("seed", sorted(STREAM_PINS))
    def test_perfbench_like_stream_matches_pinned_digest(self, seed):
        stream = generate_stream(PERF_SCENES, 600, PERF_CFG, seed)
        assert stream_hash(stream) == self.STREAM_PINS[seed]

    def test_ground_truth_is_a_float_row_array(self):
        stream = generate_stream(PERF_SCENES, 50, PERF_CFG, 3)
        for rec in stream:
            assert rec.gt.dtype == float and rec.gt.ndim == 2 and rec.gt.shape[1] == 6

    def test_disjoint_class_supports_across_change(self):
        scenes = [
            SceneSpec(scene_id=0, class_probs=(1.0, 0.0, 0.0), duration_range=(30, 40)),
            SceneSpec(scene_id=1, class_probs=(0.0, 0.5, 0.5), duration_range=(30, 40)),
        ]
        stream = generate_stream(scenes, 140, CFG, seed=4)
        changes = scene_change_frames(stream)
        assert changes
        for rec in stream:
            classes = set(rec.gt[:, 4].tolist())
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
            for class_id, object_id in rec.gt[:, 4:].astype(int).tolist():
                if object_id not in seen:
                    seen[object_id] = True
                    counts[class_id] += 1
        freq = counts / counts.sum()
        tv = 0.5 * np.abs(freq - np.asarray(probs)).sum()
        assert tv <= 0.05

    def test_boxes_stay_in_bounds(self):
        scenes = [one_scene(motion=0.05)]
        stream = generate_stream(scenes, 300, CFG, seed=2)
        for rec in stream:
            for cx, cy, w, h, _, _ in rec.gt.tolist():
                assert cx - w / 2 >= 0.0
                assert cx + w / 2 <= 1.0
                assert cy - h / 2 >= 0.0
                assert cy + h / 2 <= 1.0

    def test_one_object_per_cell(self):
        scenes = [one_scene(motion=0.08, count=(6, 8))]
        stream = generate_stream(scenes, 300, CFG, seed=5)
        for rec in stream:
            cells = [(min(int(cy * GRID.s), GRID.s - 1), min(int(cx * GRID.s), GRID.s - 1))
                     for cx, cy, *_ in rec.gt.tolist()]
            assert len(cells) == len(set(cells))

    def test_empty_scene_list_rejected(self):
        with pytest.raises(ValueError):
            generate_stream([], 10, CFG, seed=0)

    def test_bad_class_prob_length_rejected(self):
        with pytest.raises(ValueError):
            generate_stream([SceneSpec(scene_id=0, class_probs=(1.0,))], 10, CFG, seed=0)


def edge_scene(i, sigma=0.01, count=(2, 4), duration=(15, 25), probs=(0.5, 0.3, 0.2)):
    return SceneSpec(i, probs, object_count_range=count, motion_sigma=sigma,
                     duration_range=duration)


# streams at the edges of the walk, spawn and scene visits, each built on call
EDGE_STREAMS = {
    # no draws for the walk at all
    "static": lambda: generate_stream(
        [edge_scene(0, 0.0), edge_scene(1, 0.0, probs=(0.2, 0.3, 0.5))], 80, CFG, 21),
    # walks that draw and walks that do not, blended across a transition
    "sigma_changes": lambda: generate_stream(
        [edge_scene(0, 0.03), edge_scene(1, 0.0), edge_scene(2, 0.01, count=(1, 5))],
        100, CFG, 22),
    # empty object sets, alone and on either side of a transition
    "no_objects": lambda: generate_stream(
        [edge_scene(0, count=(0, 0)), edge_scene(1, 0.02), edge_scene(2, count=(0, 0))],
        80, CFG, 23),
    # 5 to 7 objects for 4 cells: spawn drops some, and every move is blocked
    "crowded": lambda: generate_stream(
        [edge_scene(0, 0.05, count=(5, 7)), edge_scene(1, 0.05, count=(1, 3))], 80,
        StreamConfig(grid=GridShape(s=2, c=3), feature_dim=4), 24),
    "one_cell": lambda: generate_stream(
        [edge_scene(0, 0.05, count=(1, 3), probs=(0.6, 0.4)),
         edge_scene(1, 0.0, probs=(0.1, 0.9))], 60,
        StreamConfig(grid=GridShape(s=1, c=2), feature_dim=4, transition_len=2), 25),
    # 10-frame visits and 42 frames: the last visit stops inside its transition
    "truncated_transition": lambda: generate_stream(
        [edge_scene(0, 0.02, duration=(10, 10)), edge_scene(1, 0.01, duration=(10, 10))], 42,
        StreamConfig(grid=GRID, feature_dim=8, transition_len=5), 26),
}


class TestEdgeStreamPins:
    # SHA-256 of each EDGE_STREAMS stream, features and ground truth, taken
    # while the walk still drew each object's move with its own call
    PINS = {
        "static": "d4584c10bc6b5e3cc63db300aa778cea6e1165c95302430d197365692103264f",
        "sigma_changes": "1032480798a6b9511caca16b28591f6d09bfc5beebcd82ffad0ff670e416dff0",
        "no_objects": "48188162e8f5077887c32f9b0ee1a87220f8a04a245d98173a5467c2522bcc5a",
        "crowded": "45b80881b4cf454c2e82ddbd61401983cd97aa20f80f8c54a95c25564520e742",
        "one_cell": "c41055da0ccc82f9fccd077f2239522e3377b91f7b3cb86633929ce66cf82a72",
        "truncated_transition": "6e26f9ee2087364b3146982887de8f08e200ec9212fc8e128eca210889bd80af",
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_stream_matches_pinned_digest(self, name):
        assert stream_hash(EDGE_STREAMS[name]()) == self.PINS[name]

    def test_edge_streams_reach_their_edges(self):
        streams = {name: build() for name, build in EDGE_STREAMS.items()}
        static = streams["static"]
        assert all(np.array_equal(a.gt, b.gt) for a, b in zip(static, static[1:])
                   if a.scene_id == b.scene_id)
        assert {len(rec.gt) for rec in streams["no_objects"]} >= {0, 2}
        crowded = [len(rec.gt) for rec in streams["crowded"] if rec.scene_id == 0]
        assert max(crowded) == 4  # one per cell of the 5 to 7 asked for
        assert {len(rec.gt) for rec in streams["one_cell"]} == {1}
        # the cut visit ends before its transition's midpoint
        truncated = streams["truncated_transition"]
        assert len(truncated) == 42 and truncated[-1].scene_id == truncated[39].scene_id


def record(gt, frame_id=0):
    """A frame, without features, whose ground truth is the given
    [cx, cy, w, h, class, object_id] rows."""
    return FrameRecord(frame_id=frame_id, scene_id=0, features=None,
                       gt=np.array(gt, dtype=float).reshape(-1, 6))


class TestSynthOracle:
    def test_no_gt_zero_noise_decodes_empty(self):
        t = oracle_for_frame(record([]), OracleNoiseSpec(), GRID, seed=0)
        assert decode_tensor(t, GRID, 0.5) == []

    def test_one_object_round_trips_through_decode(self):
        obj = [0.52, 0.48, 0.2, 0.25, 1, 0]
        t = oracle_for_frame(record([obj]), OracleNoiseSpec(), GRID, seed=1)
        dets = detections(decode_tensor(t, GRID, 0.5))
        assert len(dets) == 1
        assert dets[0].class_id == 1
        assert iou(astuple(dets[0].box), obj) >= 0.95
        assert dets[0].confidence >= 0.95

    def test_noise_stays_out_of_high_partition(self):
        from scenedistill.detection import partition_cells
        obj = [0.5, 0.5, 0.2, 0.2, 0, 0]
        noise = OracleNoiseSpec(empty_cell_noise_rate=0.5, noise_logit_range=(-2.0, -0.2))
        t = oracle_for_frame(record([obj]), noise, GRID, seed=2)
        high, _ = partition_cells(t, 0.5)
        assert high.sum() == 1  # only the true object's cell

    def test_nearer_object_wins_shared_cell(self):
        near = [0.5, 0.5, 0.1, 0.1, 0, 0]
        far = [0.55, 0.59, 0.1, 0.1, 1, 1]
        t = oracle_for_frame(record([far, near]), OracleNoiseSpec(), GRID, seed=3)
        dets = detections(decode_tensor(t, GRID, 0.5))
        assert len(dets) == 1
        assert dets[0].class_id == 0

    def test_class_flip_probability(self):
        obj = [0.5, 0.5, 0.2, 0.2, 0, 0]
        noise = OracleNoiseSpec(class_flip_prob=0.3)
        flips = 0
        for frame_id in range(2000):
            t = oracle_for_frame(record([obj], frame_id), noise, GRID, seed=4)
            flips += decode_tensor(t, GRID, 0.3)[0][4] != 0
        assert flips / 2000 == pytest.approx(0.3, abs=0.03)

    def test_zero_noise_oracle_scores_perfectly_on_stream(self):
        scenes = [one_scene(motion=0.02, count=(3, 5))]
        stream = generate_stream(scenes, 200, CFG, seed=6)
        attach_oracle(stream, OracleNoiseSpec(), GRID, seed=6)
        dets = [detections(decode_tensor(rec.oracle_tensor, GRID, 0.5)) for rec in stream]
        metrics = evaluate_frames(dets, ground_truth_for(stream, GRID, EvalConfig()), 0.5)
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

    # SHA-256 of every oracle tensor of PIN_STREAM in frame order; any change
    # to generated supervision shows here.  The noise-free pin dates from
    # before oracle synthesis was rewritten for speed; the noisy ones from
    # when each scene got one noise layout and each frame a counter-keyed
    # generator.
    PIN_DIGESTS = {
        "default": "451740262343db5b851825561462d19e97010ecf063a84993e3308b14f5f944f",
        "quiet": "57d99375a085db52715e3e04d9b0f81055a153fc5a41450dd89f0f10f5db427c",
        "heavy": "f799795f7487b05dce2388a0d0f97a9d18336f4dc77fb61741e094b3d089100d",
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
        records = [record([[0.4 + 1e-9, 0.5, 0.1, 0.1, 0, 0], [0.9, 0.2 + 1e-9, 0.1, 0.1, 1, 0]], i)
                   for i in range(12)]
        noise = OracleNoiseSpec(empty_cell_noise_rate=1.0, box_jitter_sigma=0.05, noise_wobble=0.1)
        got = self.assert_matches_one_record_calls(records, noise, GRID, 8)
        # where the first object left its cell (2, 2), that cell is empty and
        # the object sits on a neighbour that held a spurious detection
        moved = got[:, 2, 2, 0] == EMPTY_LOGIT
        assert moved.any()
        assert np.all((got[moved, 1:4, 1:4, 0] == OBJ_LOGIT).any(axis=(1, 2)))

    def test_empty_list(self):
        assert oracle_tensors([], QUIET_NOISE, GRID, 0).shape == (0, GRID.s, GRID.s, GRID.channels)

    def test_cells_never_occupied_show_one_layout_through_a_scene(self):
        # a slowly drifting scene: objects enter and leave cells all the time.
        # The layout used to be drawn around the occupied cells, so each new
        # set of them reshuffled the noise elsewhere (8 layouts here).
        s = PERF_GRID.s
        scene = SceneSpec(0, (0.7, 0.1, 0.1, 0.1), motion_sigma=0.004, duration_range=(600, 600))
        stream = generate_stream([scene], 600, PERF_CFG, seed=3000)
        noise = OracleNoiseSpec(empty_cell_noise_rate=0.3, noise_wobble=0.0, box_jitter_sigma=0.0)
        tensors = oracle_tensors(stream, noise, PERF_GRID, 3000)
        occupied = np.zeros((s, s), dtype=bool)
        for rec in stream:
            for cx, cy, *_ in rec.gt.tolist():
                occupied[min(int(cy * s), s - 1), min(int(cx * s), s - 1)] = True
        never = tensors[:, ~occupied]
        assert occupied.sum() > 6  # objects did move between cells
        assert (never[0, :, 0] > EMPTY_LOGIT).any()  # and the layout shows on empty cells
        assert len({frame.tobytes() for frame in never}) == 1


class TestOracleCounter:
    """Each frame's draws come from one generator keyed by (seed, scene) with
    the frame id as its counter, so a tensor is a pure function of (seed,
    scene, frame) whatever else is synthesized, in any block or order."""

    NOISE = OracleNoiseSpec(empty_cell_noise_rate=0.3, box_jitter_sigma=0.03, class_flip_prob=0.3,
                            noise_wobble=0.1)

    @staticmethod
    def stream():
        scenes = [SceneSpec(i, tuple(0.7 if j == i else 0.1 for j in range(4)), motion_sigma=0.01,
                            duration_range=(20, 30)) for i in range(4)]
        return generate_stream(scenes, 120, PERF_CFG, seed=31)

    @pytest.mark.parametrize("pick", ["every_seventh", "scene_change", "one", "cached"])
    def test_block_equals_frame_by_frame(self, pick):
        stream = self.stream()
        change = scene_change_frames(stream)[0]
        if pick == "cached":
            for rec in stream[::4]:
                rec.oracle_tensor = oracle_for_frame(rec, QUIET_NOISE, PERF_GRID, 5)
        records = {"every_seventh": stream[::7], "scene_change": stream[change - 5:change + 5],
                   "one": stream[17:18], "cached": stream[:40]}[pick]
        assert len({rec.scene_id for rec in stream[change - 5:change + 5]}) == 2
        got = oracle_tensors(records, self.NOISE, PERF_GRID, 9)
        for rec, tensor in zip(records, got):
            assert np.array_equal(tensor, oracle_for_frame(rec, self.NOISE, PERF_GRID, 9))

    def test_tensor_ignores_call_order_and_other_seeds_and_scenes(self):
        stream = self.stream()[:30]
        want = [oracle_for_frame(rec, self.NOISE, PERF_GRID, 9).copy() for rec in stream]
        for rec in stream[::-1]:
            oracle_for_frame(rec, self.NOISE, PERF_GRID, 10)
            oracle_for_frame(replace(rec, scene_id=rec.scene_id + 1), self.NOISE, PERF_GRID, 9)
        got = oracle_tensors(stream[::-1], self.NOISE, PERF_GRID, 9)[::-1]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        # the key and the counter do matter
        assert not np.array_equal(oracle_for_frame(stream[3], self.NOISE, PERF_GRID, 10), want[3])
        assert not np.array_equal(oracle_for_frame(replace(stream[3], frame_id=4), self.NOISE,
                                                   PERF_GRID, 9), want[3])

    @pytest.mark.parametrize("field", ["seed", "scene_id", "frame_id"])
    @pytest.mark.parametrize("value", [-1, 2 ** 64])
    def test_id_outside_64_bits_names_the_value(self, field, value):
        rec = self.stream()[0]
        seed = value if field == "seed" else 9
        if field != "seed":
            rec = replace(rec, **{field: value})
        for noise in (self.NOISE, OracleNoiseSpec()):
            with pytest.raises(ValueError, match=rf"{field.split('_')[0]} id {value} is not in"):
                oracle_for_frame(rec, noise, PERF_GRID, seed)
        top = replace(rec, scene_id=2 ** 64 - 1, frame_id=2 ** 64 - 1)
        assert np.isfinite(oracle_for_frame(top, self.NOISE, PERF_GRID, 2 ** 64 - 1)).all()

    def test_attach_oracle_in_blocks_equals_frame_by_frame(self):
        scenes = [SceneSpec(i, tuple(0.7 if j == i else 0.1 for j in range(4)), motion_sigma=0.01,
                            duration_range=(20, 40)) for i in range(4)]
        stream = generate_stream(scenes, 2 * GT_BLOCK_FRAMES + 5, PERF_CFG, seed=32)
        assert len(set(scene_change_frames(stream))) >= 4
        cached = {rec.frame_id: oracle_for_frame(rec, QUIET_NOISE, PERF_GRID, 5)
                  for rec in stream[::9]}
        for rec in stream[::9]:
            rec.oracle_tensor = cached[rec.frame_id]
        assert attach_oracle(stream, HEAVY_NOISE, PERF_GRID, 7) is stream
        for rec in stream:
            if rec.frame_id in cached:
                assert rec.oracle_tensor is cached[rec.frame_id]  # a filled cache is kept
            else:
                bare = replace(rec, oracle_tensor=None)
                assert np.array_equal(rec.oracle_tensor,
                                      oracle_for_frame(bare, HEAVY_NOISE, PERF_GRID, 7))

    def test_block_seeds_no_generator_per_frame(self, monkeypatch):
        # a 64-frame block of one scene builds at most one seeded generator,
        # for the scene's noise layout; the frames reuse one counter-keyed one
        scene = SceneSpec(0, (0.4, 0.3, 0.2, 0.1), motion_sigma=0.01, duration_range=(64, 64))
        stream = generate_stream([scene], 64, PERF_CFG, seed=4)
        calls = []
        for name in ("default_rng", "Generator", "Philox", "SeedSequence"):
            real = getattr(np.random, name)
            monkeypatch.setattr(np.random, name,
                                lambda *a, _real=real, _name=name, **k: calls.append(_name)
                                or _real(*a, **k))
        oracle_tensors(stream, QUIET_NOISE, PERF_GRID, 987_654_321)  # a seed no other test uses
        assert calls == ["default_rng"]


class TestTraceIO:
    def make_stream(self, n=10, with_oracle=True):
        scenes = [one_scene()]
        stream = generate_stream(scenes, n, CFG, seed=8)
        if with_oracle:
            attach_oracle(stream, OracleNoiseSpec(empty_cell_noise_rate=0.1), GRID, seed=8)
        return stream

    def test_round_trip_exact(self, tmp_path):
        stream = self.make_stream()
        path = str(tmp_path / "trace.npz")
        write_trace(stream, path, grid=GRID)
        loaded, grid, d = read_trace(path)
        assert grid == GRID
        assert d == CFG.feature_dim
        assert len(loaded) == len(stream)
        for a, b in zip(stream, loaded):
            assert a.frame_id == b.frame_id
            assert a.scene_id == b.scene_id
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.gt, b.gt)
            assert np.array_equal(a.oracle_tensor, b.oracle_tensor)

    def round_trip_stream(self, case):
        if case in ("no_oracle", "every_oracle"):
            return self.make_stream(with_oracle=case == "every_oracle")
        if case == "every_third_oracle":
            stream = self.make_stream(with_oracle=False)
            attach_oracle(stream[::3], QUIET_NOISE, GRID, seed=8)
            return stream
        if case == "empty_gt":  # no frame has an object: no gt rows at all
            return attach_oracle(generate_stream([one_scene(count=(0, 0))], 6, CFG, seed=8),
                                 QUIET_NOISE, GRID, seed=8)
        if case == "some_empty_gt":
            stream = self.make_stream()
            for rec in stream[1::2]:
                rec.gt = rec.gt[:0]
            return stream
        if case == "scene_change":
            scenes = [one_scene(duration=(4, 6)), replace(one_scene(duration=(4, 6)), scene_id=9)]
            stream = attach_oracle(generate_stream(scenes, 20, CFG, seed=8), QUIET_NOISE, GRID, 8)
            assert scene_change_frames(stream)
            return stream
        assert case == "ids_past_63_bits"
        stream = self.make_stream(n=3)
        for rec, frame_id, scene_id in zip(stream, (5, 2 ** 63, 2 ** 64 - 1),
                                           (2 ** 64 - 1, 2 ** 63, 0)):
            rec.frame_id, rec.scene_id = frame_id, scene_id
        return stream

    @pytest.mark.parametrize("case", ["no_oracle", "every_oracle", "every_third_oracle", "empty_gt",
                                      "some_empty_gt", "scene_change", "ids_past_63_bits"])
    def test_round_trip_bit_for_bit(self, tmp_path, case):
        stream = self.round_trip_stream(case)
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        write_trace(stream, str(p1), grid=GRID)
        loaded, _, _ = read_trace(str(p1))
        assert [(r.frame_id, r.scene_id) for r in loaded] == [(r.frame_id, r.scene_id)
                                                               for r in stream]
        assert all(type(r.frame_id) is int and type(r.scene_id) is int for r in loaded)
        for a, b in zip(stream, loaded):
            for x, y in ((a.features, b.features), (a.gt, b.gt)):
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
            if a.oracle_tensor is None:
                assert b.oracle_tensor is None
            else:
                assert a.oracle_tensor.tobytes() == b.oracle_tensor.tobytes()
        write_trace(stream, str(p2), grid=GRID)
        assert p2.read_bytes() == p1.read_bytes()

    def test_round_trip_preserves_evaluation(self, tmp_path):
        stream = self.make_stream(n=30)
        path = str(tmp_path / "trace.npz")
        write_trace(stream, path, grid=GRID)
        loaded, _, _ = read_trace(path)

        def score(recs):
            dets = [detections(decode_tensor(r.oracle_tensor, GRID, 0.4)) for r in recs]
            return evaluate_frames(dets, ground_truth_for(recs, GRID, EvalConfig()), 0.5)

        a, b = score(stream), score(loaded)
        assert (a.tp, a.fp, a.fn, a.f1, a.mean_ap) == (b.tp, b.fp, b.fn, b.f1, b.mean_ap)

    def corrupt(self, tmp_path, mutate, stream=None):
        """The trace of stream (make_stream()'s by default) with its arrays,
        a dict by name, passed through mutate."""
        path = tmp_path / "trace.npz"
        write_trace(stream or self.make_stream(), str(path), grid=GRID)
        with np.load(path) as data:
            arrays = dict(data)
        assert arrays["gt_counts"][5] > 0
        mutate(arrays)
        with open(path, "wb") as f:
            np.savez(f, **arrays)  # pickles an object array, which read_trace refuses
        return str(path)

    def test_truncated_file_names_line(self, tmp_path):
        path = tmp_path / "trace.npz"
        write_trace(self.make_stream(), str(path), grid=GRID)
        path.write_bytes(path.read_bytes()[:len(path.read_bytes()) // 2])
        with pytest.raises(TraceError, match=rf"^{path}: cannot read it: File is not a zip file"):
            read_trace(str(path))

    @pytest.mark.parametrize("keep", [0, 1, 4, 30, 600, -22, -1])
    def test_truncated_at_any_length_names_path(self, tmp_path, keep):
        path = tmp_path / "trace.npz"
        write_trace(self.make_stream(), str(path), grid=GRID)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(TraceError, match=rf"^{path}: cannot read it"):
            read_trace(str(path))

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = self.corrupt(tmp_path, lambda arrays: arrays["header"].__setitem__(1, 8))
        with pytest.raises(TraceError, match=r"features is float64 \(10, 5, 5, 8\), "
                                             r"not float64 \(10, 8, 8, 8\)$"):
            read_trace(path)

    def test_repeated_frame_id_names_line(self, tmp_path):
        # ids that restart would collide in the selector's per-frame feedback
        stream = self.make_stream()
        stream[5].frame_id = 0
        path = str(tmp_path / "trace.npz")
        write_trace(stream, path, grid=GRID)
        with pytest.raises(TraceError,
                           match=rf"^{path}: frame 5 \(id 0\): frame id 0 does not follow 4$"):
            read_trace(path)

    @pytest.mark.parametrize("class_id", [GRID.c, -1])
    def test_class_id_outside_grid_names_line(self, tmp_path, class_id):
        # an id past c breaks encoding; a negative one lands in a box channel
        stream = self.make_stream()
        stream[5].gt[0, 4] = class_id
        path = str(tmp_path / "trace.npz")
        write_trace(stream, path, grid=GRID)
        with pytest.raises(TraceError,
                           match=rf"frame 5 \(id 5\): class id {class_id} not in \[0, 3\)$"):
            read_trace(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = self.corrupt(tmp_path, lambda arrays: arrays["header"].__setitem__(0, 9))
        with pytest.raises(TraceError, match="unsupported trace version 9$"):
            read_trace(path)

    def test_version_1_trace_rejected(self, tmp_path):
        # a version-1 trace without oracle tensors would replay with the
        # oracle noise of before each scene got one layout
        path = self.corrupt(tmp_path, lambda arrays: arrays["header"].__setitem__(0, 1))
        with pytest.raises(TraceError, match=rf"^{path}: unsupported trace version 1$"):
            read_trace(path)

    @pytest.mark.parametrize("version", [2, 4])
    def test_other_header_version_rejected(self, tmp_path, version):
        path = self.corrupt(tmp_path, lambda arrays: arrays["header"].__setitem__(0, version))
        with pytest.raises(TraceError, match=rf"^{path}: unsupported trace version {version}$"):
            read_trace(path)

    def test_version_2_jsonl_trace_rejected(self, tmp_path):
        # the format before version 3: a JSON header line, then a line per frame
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps({"version": 2, "s": 5, "c": 3, "d": 8, "n_frames": 1}) + "\n"
                        + json.dumps({"frame_id": 0, "scene_id": 0, "features": [0.0] * 200,
                                      "gt": [], "oracle": None}) + "\n")
        with pytest.raises(TraceError, match=rf"^{path}: a JSON lines trace; the trace format "
                                             r"changed to \.npz in version 3, so regenerate"):
            read_trace(str(path))

    def test_missing_file(self):
        with pytest.raises(TraceError, match="^/nonexistent/trace.npz: cannot read it"):
            read_trace("/nonexistent/trace.npz")

    @pytest.mark.parametrize("name", TRACE_ARRAYS)
    def test_missing_array_names_it(self, tmp_path, name):
        path = self.corrupt(tmp_path, lambda arrays: arrays.pop(name))
        with pytest.raises(TraceError, match=rf"^{path}: no {name} array$"):
            read_trace(path)

    @pytest.mark.parametrize("name", TRACE_ARRAYS)
    @pytest.mark.parametrize("change", ["dtype", "shape"])
    def test_wrong_dtype_or_shape_names_array(self, tmp_path, name, change):
        def mutate(arrays):
            a = arrays[name]
            arrays[name] = a.astype(np.float32) if change == "dtype" else a[..., None]
        path = self.corrupt(tmp_path, mutate)
        with pytest.raises(TraceError, match=rf"^{path}: {name} is "):
            read_trace(path)

    def test_header_not_an_object_rejected(self, tmp_path):
        path = self.corrupt(tmp_path, lambda arrays: arrays.update(header=np.array([1, 2])))
        with pytest.raises(TraceError, match=r"header is int64 \(2,\), not int64 \(5,\)$"):
            read_trace(path)

    def test_non_integer_header_field_rejected(self, tmp_path):
        path = self.corrupt(tmp_path, lambda arrays: arrays.update(
            header=arrays["header"].astype(str)))
        with pytest.raises(TraceError, match=r"header is <U21 \(5,\), not int64 \(5,\)$"):
            read_trace(path)

    def test_header_grid_out_of_range_rejected(self, tmp_path):
        path = self.corrupt(tmp_path, lambda arrays: arrays["header"].__setitem__(2, 0))
        with pytest.raises(TraceError, match=rf"^{path}: header c 0 is not an integer >= 1$"):
            read_trace(path)

    @pytest.mark.parametrize("name,change,message", [
        ("gt_counts", {3: +1}, "gt_counts adds up to 21, not 20$"),
        ("gt_counts", {0: -3, 1: +3}, r"frame 0 \(id 0\): gt count -1 is negative$"),
        ("has_oracle", {2: -1}, "has_oracle adds up to 9, not 10$"),
    ])
    def test_counts_that_do_not_add_up(self, tmp_path, name, change, message):
        def mutate(arrays):
            assert arrays["gt_counts"].tolist()[:2] == [2, 2] and len(arrays["gt"]) == 20
            for i, delta in change.items():
                arrays[name][i] += delta
        with pytest.raises(TraceError, match=message):
            read_trace(self.corrupt(tmp_path, mutate))

    def test_counts_that_wrap_around_in_int64_rejected(self, tmp_path):
        def mutate(arrays):
            arrays["gt"] = arrays["gt"][:0]
            arrays["gt_counts"][:] = [2 ** 62] * 4 + [0] * 6  # 0 as an int64 sum
        with pytest.raises(TraceError, match=rf"gt_counts adds up to {2 ** 64}, not 0$"):
            read_trace(self.corrupt(tmp_path, mutate))

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "t.npz"
        write_trace(self.make_stream(), str(path), grid=GRID)
        before = path.read_bytes()
        stream = self.make_stream(n=12)
        stream[6].features = stream[6].features[:, :, :1]  # fails with the temp file open
        with pytest.raises(ValueError, match="same shape"):
            write_trace(stream, str(path), grid=GRID)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.npz"]

    @pytest.mark.parametrize("key,value", [
        ("frame_id", 5.5), ("frame_id", True), ("frame_id", "5"), ("scene_id", -1),
        ("scene_id", 2 ** 64),
    ])
    def test_id_that_is_not_a_64_bit_integer_rejected_before_writing(self, tmp_path, key,
                                                                     value):
        # the uint64 ids array would take 5.5 as 5 and True as 1
        stream = self.make_stream(n=12)
        setattr(stream[7], key, value)
        with pytest.raises(ValueError, match=rf"^frame 7 {key} {re.escape(repr(value))} is not "
                                             rf"an integer in \[0, {2 ** 64}\)$"):
            write_trace(stream, str(tmp_path / "t.npz"), grid=GRID)
        assert list(tmp_path.iterdir()) == []

    def test_grid_disagreeing_with_frames_rejected_before_writing(self, tmp_path):
        path = tmp_path / "t.npz"
        with pytest.raises(ValueError, match="s=4"):
            write_trace(self.make_stream(), str(path), grid=GridShape(s=4, c=GRID.c))
        assert list(tmp_path.iterdir()) == []

    def test_byte_identical_rewrites(self, tmp_path):
        stream = self.make_stream()
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        write_trace(stream, str(p1), grid=GRID)
        write_trace(stream, str(p2), grid=GRID)
        assert p1.read_bytes() == p2.read_bytes()

    # SHA-256 of make_stream()'s trace, taken when the trace version became 3
    TRACE_PIN = "2a946ab4158187eb26924b825e09e7c796961ce4d91419082761ce594cdc2457"

    def test_trace_bytes_match_pin_and_survive_write_read_write(self, tmp_path):
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        write_trace(self.make_stream(), str(p1), grid=GRID)
        assert hashlib.sha256(p1.read_bytes()).hexdigest() == self.TRACE_PIN
        write_trace(read_trace(str(p1))[0], str(p2), grid=GRID)
        assert p2.read_bytes() == p1.read_bytes()

    def frame_5(self, arrays, key):
        """The rows of arrays[key] that hold frame 5, a view."""
        counts = {"gt": arrays["gt_counts"], "oracle": arrays["has_oracle"]}.get(
            key, np.ones(10)).astype(int)
        start = int(counts[:5].sum())
        return arrays[key][start:start + counts[5]]

    @pytest.mark.parametrize("key,index,value", [
        ("features", 3, float("inf")), ("gt", (0, 0), float("nan")),
        ("gt", (0, 3), float("-inf")), ("oracle", 0, float("nan")),
    ])
    def test_non_finite_value_names_line(self, tmp_path, key, index, value):
        def mutate(arrays):
            rows = self.frame_5(arrays, key)
            if key == "gt":
                rows[index] = value
            else:
                rows.flat[index] = value
        with pytest.raises(TraceError, match=rf"frame 5 \(id 5\): non-finite value in {key}$"):
            read_trace(self.corrupt(tmp_path, mutate))

    @pytest.mark.parametrize("key,index,value", [
        ("features", 0, "0.25"), ("features", 1, True), ("oracle", 2, False), ("oracle", 3, None),
    ])
    def test_feature_or_oracle_value_not_a_number_names_line(self, tmp_path, key, index, value):
        # the array takes the value's kind: str and bool arrays load and fail
        # their dtype, an object array (None) cannot be loaded
        def mutate(arrays):
            arrays[key] = arrays[key].astype(object if value is None else type(value))
            self.frame_5(arrays, key).flat[index] = value
        path = self.corrupt(tmp_path, mutate)
        with pytest.raises(TraceError, match=rf"^{path}: (cannot read {key}: |{key} is )"):
            read_trace(path)

    @pytest.mark.parametrize("gt", [
        lambda gt: gt[:, :5], lambda gt: np.hstack([gt, gt[:, :1]]), lambda gt: gt.astype(str),
        lambda gt: gt.astype(bool), lambda gt: np.array([[0.5, 0.5, 0.2, 0.2, 0, None]] * len(gt)),
        lambda gt: gt.ravel(), lambda gt: np.array({"cx": 0.5}),
    ], ids=["five", "seven", "string", "bool", "null", "flat", "object"])
    def test_gt_not_rows_of_six_numbers_names_line(self, tmp_path, gt):
        path = self.corrupt(tmp_path, lambda arrays: arrays.update(gt=gt(arrays["gt"])))
        with pytest.raises(TraceError, match=rf"^{path}: (cannot read gt: |gt is )"):
            read_trace(path)

    @pytest.mark.parametrize("column,value", [(4, 1.5), (5, 2.25), (4, -0.5)])
    def test_non_integral_class_or_object_id_names_line(self, tmp_path, column, value):
        # a class id of 1.5 used to load as class 1
        path = self.corrupt(tmp_path, lambda arrays: self.frame_5(arrays, "gt")[0].__setitem__(
            column, value))
        with pytest.raises(TraceError, match=rf"frame 5 \(id 5\): class or object id {value} "
                                             r"is not an integer$"):
            read_trace(path)

    @pytest.mark.parametrize("column,value", [(2, 0.0), (3, -0.1)])
    def test_box_without_extent_names_line(self, tmp_path, column, value):
        path = self.corrupt(tmp_path, lambda arrays: self.frame_5(arrays, "gt")[0].__setitem__(
            column, value))
        with pytest.raises(TraceError, match=rf"frame 5 \(id 5\): box w or h {value} is not > 0$"):
            read_trace(path)

    @pytest.mark.parametrize("key,value", [
        ("frame_id", 5.0), ("frame_id", "5"), ("scene_id", 0.5), ("scene_id", None),
        ("frame_id", 2 ** 64), ("scene_id", -1),
    ])
    def test_non_integer_frame_or_scene_id_names_line(self, tmp_path, key, value):
        # ids are uint64, so each of these makes the array another dtype (an
        # object one for None and 2**64, which cannot be loaded); a scene id
        # of -1, outside the oracle's 64-bit key words, once loaded and failed
        # inside the run's oracle
        def mutate(arrays):
            ids = arrays["ids"].tolist()
            ids[5][("frame_id", "scene_id").index(key)] = value
            arrays["ids"] = np.array(ids)
        path = self.corrupt(tmp_path, mutate)
        with pytest.raises(TraceError, match=rf"^{path}: (cannot read ids: |ids is )"):
            read_trace(path)


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
        with pytest.raises(ValueError, match="object_count_range"):
            # once accepted, and spawned no objects
            SceneSpec(scene_id=0, class_probs=(1.0,), object_count_range=(-1, 2))
        for durations in ((0, 0), (0, 5)):
            # a scene of 0 frames once let generate_stream loop forever
            with pytest.raises(ValueError, match="duration_range"):
                SceneSpec(scene_id=0, class_probs=(1.0,), duration_range=durations)
        with pytest.raises(ValueError):
            OracleNoiseSpec(empty_cell_noise_rate=1.5)

    @pytest.mark.parametrize("kwargs", [
        {"box_jitter_sigma": -0.5}, {"noise_wobble": -0.1},
        {"class_flip_prob": 2.0}, {"class_flip_prob": -0.1},
    ])
    def test_oracle_noise_rejects_bad_values(self, kwargs):
        # a negative sigma or wobble would silently switch that noise off
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            OracleNoiseSpec(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"feature_dim": 0}, {"background_noise": -1.0}, {"transition_len": 1},
    ])
    def test_stream_config_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            StreamConfig(grid=GRID, **kwargs)

    @pytest.mark.parametrize("sigma", [-0.01, float("nan"), float("inf")])
    def test_scene_rejects_negative_or_non_finite_motion_sigma(self, sigma):
        # a negative sigma once gave a static scene, and NaN passed sigma < 0
        with pytest.raises(ValueError, match="motion_sigma"):
            SceneSpec(scene_id=0, class_probs=(1.0,), motion_sigma=sigma)
        SceneSpec(scene_id=0, class_probs=(1.0,), motion_sigma=0.0)

    @pytest.mark.parametrize("noise", [float("nan"), float("inf")])
    def test_stream_config_rejects_non_finite_background_noise(self, noise):
        with pytest.raises(ValueError, match="background_noise"):
            StreamConfig(grid=GRID, background_noise=noise)
        StreamConfig(grid=GRID, background_noise=0.0)
