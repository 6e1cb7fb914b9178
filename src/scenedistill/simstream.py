"""Synthetic scene streams, the synthetic oracle, and trace persistence.

Streams carry pre-featurized frames: each object is rendered into its grid
cell as a class-specific feature signature modulated by the object's
position and size, over a low-amplitude noise background.  Scenes follow
each other with linear feature blending across a short transition window.
The walk and the render keep per-object values in Python floats, with one
normal draw per object set and frame: with a few objects per frame, a numpy
call on one value (np.clip, a scalar draw) costs microseconds, more than its
arithmetic, and every run builds its stream before its first frame.
A frame's ground truth is a (g, 6) float array of [cx, cy, w, h, class,
object_id] rows: the row layout of a trace and of a decoded detection,
whose sixth column is its confidence instead.  The synthetic oracle, one
synthesizer (oracle_tensors) for a block of frames or for one
(oracle_for_frame), emits near-ground-truth logit tensors with jittered
boxes, occasional class flips, and sub-threshold spurious objectness on
empty cells, like the systematic noise a real heavy detector produces in a
fixed environment.  The spurious layout is persistent per scene, and a
frame's draws are a pure function of (seed, scene, frame).
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from dataclasses import dataclass

import numpy as np

from .detection import GridShape, NonFinite, check_number, check_numbers, encode_objects

SIGNATURE_SEED = 90131  # class signatures are global, not per stream
LAYOUT_TAG = 1000003    # namespaces the per-scene oracle noise layout
SIGNATURE_SCALE = 2.0   # gain of an object's class signature over the background
SIZE_RANGE = (0.12, 0.3)  # uniform range of a spawned object's width and height
OBJ_LOGIT = 4.0         # the oracle's objectness logit for true objects
EMPTY_LOGIT = -6.0      # the oracle's objectness logit baseline for empty cells
# attach_oracle and scoring synthesize oracle tensors, and scoring decodes and
# matches, this many frames at a time.  At 32, 64 and 128, evaluate_report took
# 25.2, 23.0 and 22.7 ms (min of 15) on perfbench's adapt_sequential stream 3000
# (2-vCPU VM); perfbench's peak_rss_mb read 49.0-49.1, 48.8-49.1 and 49.0-49.3 MB
# (3 runs each); scoring's own peak rose 0.3 MB at 64 and 1.2 MB at 128 over 32
GT_BLOCK_FRAMES = 64


class TraceError(ValueError):
    pass


@dataclass(frozen=True)
class SceneSpec:
    scene_id: int
    class_probs: tuple[float, ...]
    object_count_range: tuple[int, int] = (2, 4)
    motion_sigma: float = 0.005
    duration_range: tuple[int, int] = (100, 200)

    def __post_init__(self):
        check_number(self.scene_id, "scene_id", f"[0, {2**64})", integer=True)  # an oracle key word
        for p in self.class_probs:
            check_number(p, "class_probs", "[0, inf)")
        if abs(float(np.asarray(self.class_probs, dtype=float).sum()) - 1.0) > 1e-9:
            raise ValueError(f"class_probs must be a distribution, got {self.class_probs}")
        # a scene of 0 frames would let generate_stream draw scenes forever
        for name, low in (("object_count_range", 0), ("duration_range", 1)):
            lo = check_number(getattr(self, name)[0], f"{name}[0]", f"[{low}, inf)", integer=True)
            check_number(getattr(self, name)[1], f"{name}[1]", f"[{lo}, inf)", integer=True)
        # a negative sigma would silently give a static scene
        check_number(self.motion_sigma, "motion_sigma", "[0, inf)")


@dataclass(frozen=True)
class StreamConfig:
    grid: GridShape
    feature_dim: int = 12
    transition_len: int = 4
    background_noise: float = 0.05

    def __post_init__(self):
        check_number(self.feature_dim, "feature_dim", "[1, inf)", integer=True)
        check_number(self.transition_len, "transition_len", "[2, inf)", integer=True)
        check_number(self.background_noise, "background_noise", "[0, inf)")


@dataclass
class FrameRecord:
    frame_id: int
    scene_id: int
    features: np.ndarray  # (s, s, d)
    gt: np.ndarray        # (g, 6) rows [cx, cy, w, h, class, object_id]
    oracle_tensor: np.ndarray | None = None


@dataclass(frozen=True)
class OracleNoiseSpec:
    """Noise model for the synthetic oracle.

    Spurious objectness appears on empty cells at empty_cell_noise_rate with
    logits drawn from noise_logit_range; the default range keeps the
    activated values below 0.5 so noise never enters the high-confidence
    partition.  box_jitter_sigma and class_flip_prob corrupt true objects.
    """

    empty_cell_noise_rate: float = 0.0
    noise_logit_range: tuple[float, float] = (-4.0, -1.0)
    box_jitter_sigma: float = 0.0
    class_flip_prob: float = 0.0
    noise_wobble: float = 0.1     # per-frame jitter on spurious logits

    def __post_init__(self):
        check_number(self.empty_cell_noise_rate, "empty_cell_noise_rate", "[0, 1]")
        lo = check_number(self.noise_logit_range[0], "noise_logit_range[0]")
        check_number(self.noise_logit_range[1], "noise_logit_range[1]", f"[{float(lo)}, inf)")
        check_number(self.box_jitter_sigma, "box_jitter_sigma", "[0, inf)")
        check_number(self.class_flip_prob, "class_flip_prob", "[0, 1]")
        check_number(self.noise_wobble, "noise_wobble", "[0, inf)")


def class_signatures(n_classes: int, feature_dim: int) -> np.ndarray:
    """Fixed (c, d, 5) rendering matrices mapping [1, dx, dy, w, h] to features.

    Seeded globally by class id so that independently generated streams share
    the same object appearance model (what makes cross-stream transfer
    meaningful).
    """
    rng = np.random.default_rng(SIGNATURE_SEED)
    sig = rng.normal(0.0, 1.0, size=(n_classes, feature_dim, 5))
    sig[:, :, 0] *= 1.0 / np.sqrt(feature_dim)   # presence direction
    sig[:, :, 1:] *= 0.6 / np.sqrt(feature_dim)  # geometry modulation
    return sig


def _cell_of(cx: float, cy: float, s: int) -> tuple[int, int]:
    return min(int(cy * s), s - 1), min(int(cx * s), s - 1)


def _spawn_objects(scene: SceneSpec, cfg: StreamConfig, rng,
                   next_id: int) -> tuple[list[tuple], int]:
    """A scene's objects as (cx, cy, w, h, class, id) tuples, one per cell."""
    lo, hi = scene.object_count_range
    count = int(rng.integers(lo, hi + 1))
    s = cfg.grid.s
    objs = []
    used_cells = set()
    for _ in range(count):
        for _attempt in range(200):
            w = float(rng.uniform(*SIZE_RANGE))
            h = float(rng.uniform(*SIZE_RANGE))
            cx = float(rng.uniform(w / 2 + 0.01, 1 - w / 2 - 0.01))
            cy = float(rng.uniform(h / 2 + 0.01, 1 - h / 2 - 0.01))
            if _cell_of(cx, cy, s) not in used_cells:
                break
        else:
            continue  # grid too crowded, drop the extra object
        used_cells.add(_cell_of(cx, cy, s))
        class_id = int(rng.choice(len(scene.class_probs), p=np.asarray(scene.class_probs)))
        objs.append((cx, cy, w, h, class_id, next_id))
        next_id += 1
    return objs, next_id


def _move_objects(objs: list[tuple], sigma: float, rng, s: int) -> list[tuple]:
    """Random-walk object centers; a move into an occupied cell is blocked.

    A destination counts as occupied if an earlier object already claimed it
    or a later object still sits there, so a blocked object can always keep
    its own cell and per-frame cell uniqueness is preserved.  The set's moves
    are one (n, 2) draw, none if sigma <= 0 or the set is empty.
    """
    cells = [_cell_of(o[0], o[1], s) for o in objs]
    steps = (rng.normal(0.0, sigma, size=(len(objs), 2)).tolist() if sigma > 0 and objs
             else [(0.0, 0.0)] * len(objs))
    claimed: set[tuple[int, int]] = set()
    moved = []
    for i, ((cx, cy, w, h, class_id, object_id), (dx, dy)) in enumerate(zip(objs, steps)):
        new_cx = min(max(cx + dx, w / 2 + 0.01), 1 - w / 2 - 0.01)
        new_cy = min(max(cy + dy, h / 2 + 0.01), 1 - h / 2 - 0.01)
        cell = _cell_of(new_cx, new_cy, s)
        if cell != cells[i] and (cell in claimed or cell in cells[i + 1:]):
            new_cx, new_cy, cell = cx, cy, cells[i]
        claimed.add(cell)
        moved.append((new_cx, new_cy, w, h, class_id, object_id))
    return moved


def _render(objs: list[tuple], cfg: StreamConfig, sig: np.ndarray, rng) -> np.ndarray:
    """One frame's features; sig is the class signatures times SIGNATURE_SCALE."""
    s, d = cfg.grid.s, cfg.feature_dim
    out = rng.normal(0.0, cfg.background_noise, size=(s, s, d))
    for cx, cy, w, h, class_id, _ in objs:
        row, col = _cell_of(cx, cy, s)
        out[row, col] += sig[class_id].dot((1.0, cx * s - col, cy * s - row, w, h))
    return out


def generate_stream(scenes: list[SceneSpec], n_frames: int, cfg: StreamConfig,
                    seed: int) -> list[FrameRecord]:
    """Deterministic scene stream: scenes cycle in order, objects persist and
    drift within a scene, features blend linearly across scene changes with
    ground truth switching at the window midpoint.
    """
    if not scenes:
        raise ValueError("at least one scene is required")
    check_number(n_frames, "n_frames", "[1, inf)", integer=True)

    for spec in scenes:
        if len(spec.class_probs) != cfg.grid.c:
            raise ValueError(f"scene {spec.scene_id} has {len(spec.class_probs)} class probs, "
                             f"grid expects {cfg.grid.c}")

    rng = np.random.default_rng(seed)
    # scaled once here, not per object: exact only because the scale is 2.0,
    # a power of two, which scales every product and sum without rounding
    sig = SIGNATURE_SCALE * class_signatures(cfg.grid.c, cfg.feature_dim)
    records: list[FrameRecord] = []
    next_id = 0
    frame_id = 0
    visit = 0
    prev_objs: list[tuple] = []
    prev_scene: SceneSpec | None = None

    while frame_id < n_frames:
        scene = scenes[visit % len(scenes)]
        duration = int(rng.integers(scene.duration_range[0], scene.duration_range[1] + 1))
        objs, next_id = _spawn_objects(scene, cfg, rng, next_id)
        for i in range(min(duration, n_frames - frame_id)):
            objs = _move_objects(objs, scene.motion_sigma, rng, cfg.grid.s)
            if prev_scene is not None and i < cfg.transition_len:
                prev_objs = _move_objects(prev_objs, prev_scene.motion_sigma, rng, cfg.grid.s)
                w = (i + 1) / cfg.transition_len
                feat = (1 - w) * _render(prev_objs, cfg, sig, rng) + w * _render(objs, cfg, sig, rng)
                gt_objs, scene_id = ((objs, scene.scene_id) if w >= 0.5
                                     else (prev_objs, prev_scene.scene_id))
            else:
                feat, gt_objs, scene_id = _render(objs, cfg, sig, rng), objs, scene.scene_id
            records.append(FrameRecord(frame_id, scene_id, feat,
                                       np.array(gt_objs, dtype=float).reshape(-1, 6)))
            frame_id += 1
        prev_objs, prev_scene = objs, scene
        visit += 1
    return records


def scene_change_frames(stream: list[FrameRecord]) -> list[int]:
    """Frames where the active scene id switches (the GT midpoint of each blend)."""
    return [
        rec.frame_id for prev, rec in zip(stream, stream[1:])
        if rec.scene_id != prev.scene_id
    ]


@functools.lru_cache(maxsize=1024)
def _noise_layout(seed: int, scene_id: int, rate: float, logit_range: tuple[float, float],
                  s: int, c: int) -> np.ndarray:
    """A scene's spurious detections, read-only, a column per cell: [shown,
    cx, cy, w, h, class, base_logit].  Every cell draws the same values
    whatever a frame holds, so a scene has exactly one layout."""
    rng = np.random.default_rng([seed, LAYOUT_TAG, scene_id])
    shown = rng.random(s * s) < rate
    base, w, h, dx, dy = rng.uniform([logit_range[0], 0.08, 0.08, 0.3, 0.3],
                                     [logit_range[1], 0.18, 0.18, 0.7, 0.7], size=(s * s, 5)).T
    row, col = np.divmod(np.arange(s * s), s)
    layout = np.array([shown, (col + dx) / s, (row + dy) / s, w, h,
                       rng.integers(c, size=s * s), base])
    layout.flags.writeable = False
    return layout


# The one generator every frame draws from: its key is set to (seed, scene)
# and its counter to (0, frame, 0, 0) before the frame's draws, about a
# tenth of the cost of seeding a new generator.  Not for concurrent use.
_PHILOX = np.random.Philox(0)
_FRAME_DRAWS = np.random.Generator(_PHILOX)
_PHILOX_STATE = {"bit_generator": "Philox", "state": {"key": [0, 0], "counter": [0, 0, 0, 0]},
                 "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def oracle_for_frame(record: FrameRecord, noise: OracleNoiseSpec, shape: GridShape,
                     seed: int) -> np.ndarray:
    """Oracle tensor for one frame: the record's cached tensor itself if it
    has one, else oracle_tensors on a block of one, a new tensor per call.
    """
    if record.oracle_tensor is not None:
        return record.oracle_tensor
    return oracle_tensors([record], noise, shape, seed)[0]


def oracle_tensors(records: list[FrameRecord], noise: OracleNoiseSpec, shape: GridShape,
                   seed: int) -> np.ndarray:
    """Near-ground-truth oracle logit tensors for a block of frames,
    (n, s, s, 5 + c); a record's cached tensor is copied in.

    True objects get high objectness (activated >= 0.95) with jittered boxes
    and occasional class flips; of two in one cell the one nearer its center
    wins.  Empty cells show their scene's layout, persistent per scene, of
    sub-threshold spurious detections with plausible boxes and classes.
    Each frame draws a fixed slot per cell from one generator keyed by
    (seed, scene), the frame id its counter: a uniform for the class flip, a
    normal for the wobble and four for the box jitter.  So no draw depends
    on which cells hold objects, and any consumer (mode, call order, block)
    sees the same supervision.  Ids outside [0, 2**64) are a ValueError.
    """
    s, c, cells = shape.s, shape.c, shape.s * shape.s
    wobble, sigma, flip = noise.noise_wobble, noise.box_jitter_sigma, noise.class_flip_prob
    tensors = np.zeros((len(records), s, s, shape.channels))
    tensors[..., 0] = EMPTY_LOGIT
    for i, rec in enumerate(records):
        if rec.oracle_tensor is not None:
            tensors[i] = rec.oracle_tensor
    live = [i for i, rec in enumerate(records) if rec.oracle_tensor is None]
    if not live:
        return tensors
    recs = [records[i] for i in live]
    scene_ids, frame_ids = [rec.scene_id for rec in recs], [rec.frame_id for rec in recs]
    bad = [(name, i) for name, ids in (("seed", [seed]), ("scene", scene_ids), ("frame", frame_ids))
           for i in ids if not 0 <= i < 2 ** 64]  # each fills a 64-bit word of key or counter
    if bad:
        raise ValueError("oracle {} id {} is not in [0, 2**64)".format(*bad[0]))
    # a frame's slots: a uniform per cell, then five normals per cell as five
    # blocks; a slot is a cell of a frame of the block, frame * cells + cell
    draws = np.empty((len(recs), 6, cells))
    if wobble > 0 or sigma > 0 or flip > 0:
        key, counter = _PHILOX_STATE["state"]["key"], _PHILOX_STATE["state"]["counter"]
        for j, (scene, frame) in enumerate(zip(scene_ids, frame_ids)):
            key[:] = seed, scene
            counter[1] = frame
            _PHILOX.state = _PHILOX_STATE
            _FRAME_DRAWS.random(out=draws[j, 0])
            _FRAME_DRAWS.standard_normal(out=draws[j, 1:])
    draws = draws.transpose(1, 0, 2).reshape(6, -1)  # a row per value, a column per slot

    # each frame's objects in ground-truth order, as rows cx, cy, w, h,
    # class, id; only where two share a cell does a lexsort pick the one
    # nearer the cell center, the first on a tie
    objects = np.concatenate([rec.gt.T for rec in recs], axis=1)
    col_row = np.minimum((objects[:2] * s).astype(np.intp), s - 1)  # truncates like int()
    obj_slots = (1, s) @ col_row
    obj_slots += np.arange(0, len(recs) * cells, cells).repeat([len(rec.gt) for rec in recs])
    if len(set(obj_slots.tolist())) < len(obj_slots):
        order = np.lexsort((np.hypot(*(objects[:2] * s - col_row - 0.5)), obj_slots))
        keep = np.sort(order[np.diff(obj_slots[order], prepend=-1) != 0])
        objects, obj_slots = objects.take(keep, axis=1), obj_slots[keep]
    objects[5] = OBJ_LOGIT  # the id row becomes the logit row
    if flip > 0:
        # a flip moves the class on by 1 to c - 1, picked by the same uniform
        u = draws[0][obj_slots]
        hit = u < flip
        if np.count_nonzero(hit):
            step = np.minimum(np.floor(u[hit] * ((c - 1) / flip)), c - 2)  # c = 1: no change
            objects[4, hit] = (objects[4, hit] + step + 1) % c

    # spurious detections on cells without objects, written first so that an
    # object jittered into their cell overwrites them; a row per value
    rate, logit_range = noise.empty_cell_noise_rate, tuple(noise.noise_logit_range)
    table = np.concatenate([_noise_layout(seed, scene, rate, logit_range, s, c)
                            for scene in scene_ids], axis=1)
    shown = table[0] > 0
    shown[obj_slots] = False
    sp_slots = shown.nonzero()[0]
    slots = np.concatenate([sp_slots, obj_slots])
    dets = np.concatenate([table.take(sp_slots, axis=1)[1:], objects], axis=1)
    z = draws.take(slots, axis=1)  # rows: uniform, wobble, jitter of cx, cy, w, h
    logits = dets[5, :len(sp_slots)]
    if wobble > 0:
        logits += wobble * z[1, :len(sp_slots)]
    np.minimum(logits, -1e-3, out=logits)
    if sigma > 0:
        # w = min(max(w + sigma * zw, 0.02), 0.98), then
        # cx = min(max(cx + sigma * zx, w / 2), 1 - w / 2), in place
        dets[:4] += sigma * z[2:]
        wh, centers = dets[2:4], dets[:2]
        np.minimum(np.maximum(wh, 0.02, out=wh), 0.98, out=wh)
        half = wh / 2
        np.minimum(np.maximum(centers, half, out=centers), 1 - half, out=centers)
    one = len(tensors) == 1  # one frame needs no frame index
    encode_objects(tensors[0] if one else tensors, shape, dets[:4].T, dets[4].astype(np.intp),
                   dets[5], frames=None if one else np.array(live)[slots // cells])
    return tensors


def attach_oracle(stream: list[FrameRecord], noise: OracleNoiseSpec, shape: GridShape,
                  seed: int) -> list[FrameRecord]:
    """Fill every empty oracle cache in place, GT_BLOCK_FRAMES records per
    oracle_tensors call; returns the stream."""
    todo = [rec for rec in stream if rec.oracle_tensor is None]
    for start in range(0, len(todo), GT_BLOCK_FRAMES):
        block = todo[start:start + GT_BLOCK_FRAMES]
        for rec, tensor in zip(block, oracle_tensors(block, noise, shape, seed)):
            rec.oracle_tensor = tensor
    return stream


TRACE_VERSION = 2


@contextlib.contextmanager
def atomic_open(path: str):
    """Text file to write whose contents replace path only when the block
    completes; if it raises, path keeps its old bytes and the temp file,
    written next to path, is removed.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            yield f
            f.flush()
            os.fsync(f.fileno())  # the new bytes are on disk before the rename
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_trace(stream: list[FrameRecord], path: str, grid: GridShape) -> None:
    """Line-delimited trace: one JSON header, then one JSON record per frame.

    The header's grid size and feature width are the frames' own; grid must
    agree with them and supplies the class count.  Floats are serialized
    with full repr, so a round trip reproduces values exactly (well within
    the documented 1e-6 budget).
    """
    if not stream:
        raise ValueError("cannot write an empty stream")
    s, _, d = stream[0].features.shape
    if grid.s != s:
        raise ValueError(f"grid s={grid.s} disagrees with the frames' {s}x{s} cells")
    header = {"version": TRACE_VERSION, "s": s, "c": grid.c, "d": d, "n_frames": len(stream)}
    with atomic_open(path) as f:
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for rec in stream:
            row = {
                "frame_id": rec.frame_id,
                "scene_id": rec.scene_id,
                "features": rec.features.reshape(-1).tolist(),
                "gt": [[cx, cy, w, h, int(cls), int(oid)]
                       for cx, cy, w, h, cls, oid in rec.gt.tolist()],
                "oracle": (rec.oracle_tensor.reshape(-1).tolist()
                           if rec.oracle_tensor is not None else None),
            }
            f.write(json.dumps(row, sort_keys=True) + "\n")


def _frame_record(row: dict, grid: GridShape, d: int, prev_id: int | None) -> FrameRecord:
    """One trace line's frame; a ValueError says what is wrong with it."""
    frame_id = check_number(row["frame_id"], "frame_id", integer=True)
    scene_id = check_number(row["scene_id"], "scene_id", integer=True)
    if prev_id is not None and frame_id <= prev_id:
        raise ValueError(f"frame_id {frame_id} does not follow {prev_id}")
    try:
        gt = check_numbers(row["gt"], "gt")
    except NonFinite:
        raise
    except ValueError:
        gt = None
    if gt is None or gt.shape[1:] != (6,) and gt.shape != (0,):
        raise ValueError("gt is not a list of [cx, cy, w, h, class, object_id] rows")
    s, gt, oracle = grid.s, gt.reshape(-1, 6), row.get("oracle")
    feats = check_numbers(row["features"], "features")
    oracle = None if oracle is None else check_numbers(oracle, "oracle")
    for name, values, size in (("features", feats, s * s * d), ("oracle", oracle, grid.n_values)):
        if values is not None and values.size != size:
            raise ValueError(f"{name} length {values.size} != {size}")
    fractional = gt[:, 4:][gt[:, 4:] % 1 != 0]
    if fractional.size:
        raise ValueError(f"class or object id {fractional[0]} is not an integer")
    flat = gt[:, 2:4][gt[:, 2:4] <= 0]
    if flat.size:
        raise ValueError(f"box w or h {flat[0]} is not > 0")
    outside = (gt[:, 4] < 0) | (gt[:, 4] >= grid.c)
    if outside.any():
        raise ValueError(f"class id {int(gt[outside, 4][0])} not in [0, {grid.c})")
    return FrameRecord(frame_id, scene_id, feats.reshape(s, s, d), gt,
                       None if oracle is None else oracle.reshape(s, s, grid.channels))


def read_trace(path: str) -> tuple[list[FrameRecord], GridShape, int]:
    """Read a trace; returns (stream, grid, feature_dim).

    Malformed lines, dimension mismatches, feature or oracle values that are
    not numbers, non-finite values, ground truth that is not [cx, cy, w, h,
    class, object_id] rows with w, h > 0 and integral ids, class ids outside
    [0, c), frame or scene ids that are not integers, and frame ids that do
    not increase are rejected with the offending line number; unknown
    header versions are rejected outright.
    """
    if not os.path.exists(path):
        raise TraceError(f"trace not found: {path}")
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        raise TraceError(f"{path}: empty trace (line 1)")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise TraceError(f"{path}: malformed header (line 1): {e}") from e
    if not isinstance(header, dict):
        raise TraceError(f"{path}: header is not a JSON object (line 1)")
    if header.get("version") != TRACE_VERSION:
        raise TraceError(f"{path}: unsupported trace version {header.get('version')!r} (line 1)")
    try:  # a missing field reads as None, not an integer
        s, c, d, n_frames = (check_number(header.get(k), f"header field {k!r}", integer=True)
                             for k in ("s", "c", "d", "n_frames"))
        grid = GridShape(s=s, c=c)
    except ValueError as e:
        raise TraceError(f"{path}: {e} (line 1)") from e

    records: list[FrameRecord] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            records.append(_frame_record(json.loads(line), grid, d,
                                         records[-1].frame_id if records else None))
        except (json.JSONDecodeError, KeyError, IndexError, TypeError) as e:
            raise TraceError(f"{path}: malformed record (line {lineno}): {e}") from e
        except ValueError as e:
            raise TraceError(f"{path}: {e} (line {lineno})") from None
    if len(records) != n_frames:
        raise TraceError(f"{path}: header declares {n_frames} frames but {len(records)} records "
                         f"found (line {len(lines)})")
    return records, grid, d
