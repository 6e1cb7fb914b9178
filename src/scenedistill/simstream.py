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
object_id] rows: the row layout of a decoded detection, whose sixth
column is its confidence instead.  The synthetic oracle, one
synthesizer (oracle_tensors) for a block of frames or for one
(oracle_for_frame), emits near-ground-truth logit tensors with jittered
boxes, occasional class flips, and sub-threshold spurious objectness on
empty cells, like the systematic noise a real heavy detector produces in a
fixed environment.  The spurious layout is persistent per scene, and a
frame's draws are a pure function of (seed, scene, frame).  A trace is one
.npz of a stream's arrays (write_trace), which read_trace checks rule by
rule on whole arrays, with no loop over values in Python.
"""

from __future__ import annotations

import contextlib
import functools
import os
from dataclasses import dataclass

import numpy as np

from .detection import GridShape, check_number, encode_objects

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
    A cached tensor that is not (s, s, 5 + c) for shape is a ValueError.
    """
    tensor = record.oracle_tensor
    if tensor is None:
        return oracle_tensors([record], noise, shape, seed)[0]
    if tensor.shape != (shape.s, shape.s, shape.channels):
        raise ValueError(f"frame {record.frame_id}: cached oracle tensor of shape {tensor.shape} "
                         f"does not match grid {(shape.s, shape.s, shape.channels)}")
    return tensor


def oracle_tensors(records: list[FrameRecord], noise: OracleNoiseSpec, shape: GridShape,
                   seed: int) -> np.ndarray:
    """Near-ground-truth oracle logit tensors for a block of frames,
    (n, s, s, 5 + c); a record's cached tensor is copied in, as
    oracle_for_frame reads and checks it.

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
            tensors[i] = oracle_for_frame(rec, noise, shape, seed)
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
    encode_objects(tensors[0] if one else tensors, dets[:4].T, dets[4].astype(np.intp),
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


TRACE_VERSION = 3
# a trace's arrays, in the order write_trace stores them
TRACE_ARRAYS = ("header", "ids", "features", "gt", "gt_counts", "oracle", "has_oracle")


@contextlib.contextmanager
def atomic_open(path: str, binary: bool = False):
    """File to write, text unless binary, whose contents replace path only
    when the block completes; if it raises, path keeps its old bytes and the
    temp file, written next to path, is removed.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb" if binary else "w", encoding=None if binary else "utf-8") as f:
            yield f
            f.flush()
            os.fsync(f.fileno())  # the new bytes are on disk before the rename
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_trace(stream: list[FrameRecord], path: str, grid: GridShape) -> None:
    """One .npz of whole-stream arrays, whatever path's suffix: header int64
    [version, s, c, d, n]; ids uint64 (n, 2) of [frame_id, scene_id] (an id
    that is not an integer in [0, 2**64) is a ValueError naming its frame,
    raised before anything is written); features (n, s, s, d); gt (G, 6)
    rows, gt_counts (n,) of them per frame; oracle (k, s, s, 5 + c), the
    tensors of the k frames has_oracle (n,) marks.  The header's s and d are
    the frames' own, and grid, which must agree, gives c.  Values keep their
    bits, and the same stream gives the same bytes (entries carry a fixed date).
    """
    if not stream:
        raise ValueError("cannot write an empty stream")
    s, _, d = stream[0].features.shape
    if grid.s != s:
        raise ValueError(f"grid s={grid.s} disagrees with the frames' {s}x{s} cells")
    for i, rec in enumerate(stream):  # np.array(..., dtype=np.uint64) takes 5.5 as 5
        for name in ("frame_id", "scene_id"):
            check_number(getattr(rec, name), f"frame {i} {name}", f"[0, {2**64})", integer=True)
    with atomic_open(path, binary=True) as f:
        tensors = [rec.oracle_tensor for rec in stream if rec.oracle_tensor is not None]
        np.savez(f, header=np.array([TRACE_VERSION, s, grid.c, d, len(stream)], dtype=np.int64),
                 ids=np.array([(rec.frame_id, rec.scene_id) for rec in stream], dtype=np.uint64),
                 features=np.stack([rec.features for rec in stream]),
                 gt=np.concatenate([rec.gt for rec in stream]),
                 gt_counts=np.array([len(rec.gt) for rec in stream], dtype=np.int64),
                 oracle=np.stack(tensors) if tensors else np.empty((0, s, s, grid.channels)),
                 has_oracle=np.array([rec.oracle_tensor is not None for rec in stream]))


def read_trace(path: str) -> tuple[list[FrameRecord], GridShape, int]:
    """Read a trace that write_trace wrote; returns (stream, grid, feature_dim).

    Each rule is checked once on a whole array: every array is there with
    write_trace's dtype and shape; every value is finite; frame ids
    increase; gt rows have w, h > 0, integral class and object ids and
    classes in [0, c); the counts add up.  A TraceError names the path and,
    for a rule on values, the first frame that breaks it: "frame 7 (id 512):
    ...".  A JSON lines trace, the format up to version 2, is one too.  The
    records' arrays are views of the trace's.
    """
    arrays, name = {}, "it"
    try:
        with open(path, "rb") as f:
            jsonl = f.read(1) == b"{"
            f.seek(0)
            data = {} if jsonl else np.load(f, allow_pickle=False)
            for name in TRACE_ARRAYS:
                if name in data:
                    arrays[name] = data[name]
    except Exception as e:  # zipfile and np.load raise about ten kinds on a damaged file
        raise TraceError(f"{path}: cannot read {name}: {e}") from e
    if jsonl:
        raise TraceError(f"{path}: a JSON lines trace; the trace format changed to .npz in "
                         f"version {TRACE_VERSION}, so regenerate the trace")

    def form(name, dtype, *shape):  # a str in shape stands for any length
        a = arrays.get(name)
        if a is None:
            raise TraceError(f"{path}: no {name} array")
        if a.dtype != dtype or len(a.shape) != len(shape) or any(
                k != m and not isinstance(k, str) for k, m in zip(shape, a.shape)):
            want = str(shape).replace("'", "")
            raise TraceError(f"{path}: {name} is {a.dtype} {a.shape}, not {np.dtype(dtype)} {want}")
        return a

    version, s, c, d, n = form("header", np.int64, 5).tolist()
    if version != TRACE_VERSION:
        raise TraceError(f"{path}: unsupported trace version {version}")
    try:
        grid = GridShape(s=s, c=c)
    except ValueError as e:
        raise TraceError(f"{path}: header {e}") from None
    ids, features, gt, gt_counts, oracle, has_oracle = (
        form("ids", np.uint64, n, 2), form("features", np.float64, n, s, s, d),
        form("gt", np.float64, "G", 6), form("gt_counts", np.int64, n),
        form("oracle", np.float64, "k", s, s, grid.channels), form("has_oracle", np.bool_, n))
    frame_ids = ids[:, 0].tolist()

    def first_bad(bad, frames, say):  # rejects frames[i] for the first true bad[i]
        if bad.any():
            i = int(bad.argmax())
            raise TraceError(f"{path}: frame {frames[i]} (id {frame_ids[frames[i]]}): {say(i)}")

    every = np.arange(n)
    first_bad(ids[1:, 0] <= ids[:-1, 0], every[1:],
              lambda i: f"frame id {frame_ids[i + 1]} does not follow {frame_ids[i]}")
    first_bad(gt_counts < 0, every, lambda i: f"gt count {gt_counts[i]} is negative")
    for counts, rows in (("gt_counts", len(gt)), ("has_oracle", len(oracle))):
        total = sum(arrays[counts].tolist())  # a Python int cannot wrap around
        if total != rows:
            raise TraceError(f"{path}: {counts} adds up to {total}, not {rows}")
    gt_frames = every.repeat(gt_counts)
    for name, values, frames in (("gt", gt, gt_frames), ("features", features, every),
                                 ("oracle", oracle, has_oracle.nonzero()[0])):
        first_bad(~np.isfinite(values).all(axis=tuple(range(1, values.ndim))), frames,
                  lambda i: f"non-finite value in {name}")
    first_bad((gt[:, 4:] % 1 != 0).any(axis=1), gt_frames, lambda i: "class or object id "
              f"{next(v for v in gt[i, 4:].tolist() if v % 1)} is not an integer")
    first_bad((gt[:, 2:4] <= 0).any(axis=1), gt_frames,
              lambda i: f"box w or h {next(v for v in gt[i, 2:4].tolist() if v <= 0)} is not > 0")
    first_bad((gt[:, 4] < 0) | (gt[:, 4] >= c), gt_frames,
              lambda i: f"class id {int(gt[i, 4])} not in [0, {c})")
    tensors, ends = iter(oracle), np.cumsum(gt_counts).tolist()
    return [FrameRecord(frame_id, scene_id, feats, gt[end - count:end],
                        next(tensors) if has else None)
            for (frame_id, scene_id), feats, count, end, has
            in zip(ids.tolist(), features, gt_counts.tolist(), ends, has_oracle.tolist())], grid, d
