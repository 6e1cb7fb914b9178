"""Synthetic scene streams, the synthetic oracle, and trace persistence.

Streams carry pre-featurized frames: each object is rendered into its grid
cell as a class-specific feature signature modulated by the object's
position and size, over a low-amplitude noise background.  Scenes follow
each other with linear feature blending across a short transition window.
A frame's ground truth is a (g, 6) float array of [cx, cy, w, h, class,
object_id] rows: the row layout of a trace and of a decoded detection,
whose sixth column is its confidence instead.  The synthetic oracle, one
synthesizer (oracle_tensors) for a block of frames or for one
(oracle_for_frame), emits near-ground-truth logit tensors with jittered
boxes, occasional class flips, and sub-threshold spurious objectness on
empty cells, like the systematic noise a real heavy detector produces in a
fixed environment.  Each frame's draws come from its own generator, seeded
by (seed, scene, frame).  The spurious layout depends on the seed, the
scene and the set of cells that hold objects, so within a scene it stays
put until an object enters or leaves a cell, and then shifts (ROADMAP, "One
noise layout per scene").
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from dataclasses import dataclass

import numpy as np

from .detection import GridShape, encode_objects

SIGNATURE_SEED = 90131  # class signatures are global, not per stream
LAYOUT_TAG = 1000003    # namespaces the per-scene oracle noise layout
SIGNATURE_SCALE = 2.0   # gain of an object's class signature over the background
SIZE_RANGE = (0.12, 0.3)  # uniform range of a spawned object's width and height
OBJ_LOGIT = 4.0         # the oracle's objectness logit for true objects
EMPTY_LOGIT = -6.0      # the oracle's objectness logit baseline for empty cells


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
        p = np.asarray(self.class_probs, dtype=float)
        if np.any(p < 0) or abs(float(p.sum()) - 1.0) > 1e-9:
            raise ValueError(f"class_probs must be a distribution, got {self.class_probs}")
        if self.object_count_range[0] > self.object_count_range[1]:
            raise ValueError(f"bad object_count_range {self.object_count_range}")
        if self.duration_range[0] > self.duration_range[1]:
            raise ValueError(f"bad duration_range {self.duration_range}")


@dataclass(frozen=True)
class StreamConfig:
    grid: GridShape
    feature_dim: int = 12
    transition_len: int = 4
    background_noise: float = 0.05

    def __post_init__(self):
        if self.feature_dim < 1:
            raise ValueError(f"feature_dim must be >= 1, got {self.feature_dim}")
        if self.transition_len < 2:
            raise ValueError(f"transition_len must be >= 2, got {self.transition_len}")
        if self.background_noise < 0:
            raise ValueError(f"background_noise must be >= 0, got {self.background_noise}")


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
        if not 0.0 <= self.empty_cell_noise_rate <= 1.0:
            raise ValueError(f"noise rate must be in [0, 1], got {self.empty_cell_noise_rate}")
        if self.noise_logit_range[0] > self.noise_logit_range[1]:
            raise ValueError(f"bad noise_logit_range {self.noise_logit_range}")
        if self.box_jitter_sigma < 0:
            raise ValueError(f"box_jitter_sigma must be >= 0, got {self.box_jitter_sigma}")
        if not 0.0 <= self.class_flip_prob <= 1.0:
            raise ValueError(f"class_flip_prob must be in [0, 1], got {self.class_flip_prob}")
        if self.noise_wobble < 0:
            raise ValueError(f"noise_wobble must be >= 0, got {self.noise_wobble}")


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
    its own cell and per-frame cell uniqueness is preserved.
    """
    cells = [_cell_of(o[0], o[1], s) for o in objs]
    claimed: set[tuple[int, int]] = set()
    moved = []
    for i, (cx, cy, w, h, class_id, object_id) in enumerate(objs):
        old_cell = cells[i]
        if sigma > 0:
            dx, dy = rng.normal(0.0, sigma, size=2)
        else:
            dx = dy = 0.0
        new_cx = float(np.clip(cx + dx, w / 2 + 0.01, 1 - w / 2 - 0.01))
        new_cy = float(np.clip(cy + dy, h / 2 + 0.01, 1 - h / 2 - 0.01))
        cell = _cell_of(new_cx, new_cy, s)
        if cell != old_cell and (cell in claimed or cell in cells[i + 1:]):
            new_cx, new_cy, cell = cx, cy, old_cell
        claimed.add(cell)
        moved.append((new_cx, new_cy, w, h, class_id, object_id))
    return moved


def _render(objs: list[tuple], cfg: StreamConfig, sig: np.ndarray, rng) -> np.ndarray:
    s, d = cfg.grid.s, cfg.feature_dim
    out = rng.normal(0.0, cfg.background_noise, size=(s, s, d))
    for cx, cy, w, h, class_id, _ in objs:
        row, col = _cell_of(cx, cy, s)
        attrs = np.array([1.0, cx * s - col, cy * s - row, w, h])
        out[row, col] += SIGNATURE_SCALE * (sig[class_id] @ attrs)
    return out


def generate_stream(scenes: list[SceneSpec], n_frames: int, cfg: StreamConfig,
                    seed: int) -> list[FrameRecord]:
    """Deterministic scene stream: scenes cycle in order, objects persist and
    drift within a scene, features blend linearly across scene changes with
    ground truth switching at the window midpoint.
    """
    if not scenes:
        raise ValueError("at least one scene is required")
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")

    for spec in scenes:
        if len(spec.class_probs) != cfg.grid.c:
            raise ValueError(
                f"scene {spec.scene_id} has {len(spec.class_probs)} class probs, grid expects {cfg.grid.c}"
            )

    rng = np.random.default_rng(seed)
    sig = class_signatures(cfg.grid.c, cfg.feature_dim)
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
        for i in range(duration):
            if frame_id >= n_frames:
                break
            objs = _move_objects(objs, scene.motion_sigma, rng, cfg.grid.s)
            in_transition = prev_scene is not None and i < cfg.transition_len
            if in_transition:
                prev_objs = _move_objects(prev_objs, prev_scene.motion_sigma, rng, cfg.grid.s)
                w = (i + 1) / cfg.transition_len
                feat = (1 - w) * _render(prev_objs, cfg, sig, rng) + w * _render(objs, cfg, sig, rng)
                use_new = w >= 0.5
                gt_objs = objs if use_new else prev_objs
                scene_id = scene.scene_id if use_new else prev_scene.scene_id
            else:
                feat = _render(objs, cfg, sig, rng)
                gt_objs = objs
                scene_id = scene.scene_id
            records.append(FrameRecord(
                frame_id=frame_id,
                scene_id=scene_id,
                features=feat,
                gt=np.array(gt_objs, dtype=float).reshape(-1, 6),
            ))
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


def _objects_by_cell(gt: list[list[float]], s: int) -> dict[tuple[int, int], list[float]]:
    """Each occupied cell's ground-truth row, the one nearest the cell center."""
    by_cell: dict[tuple[int, int], list[float]] = {}
    for obj in gt:
        cell = _cell_of(obj[0], obj[1], s)
        incumbent = by_cell.get(cell)
        if incumbent is None or _center_dist(obj, cell, s) < _center_dist(incumbent, cell, s):
            by_cell[cell] = obj
    return by_cell


def _center_dist(obj: list[float], cell: tuple[int, int], s: int) -> float:
    row, col = cell
    return float(np.hypot(obj[0] * s - (col + 0.5), obj[1] * s - (row + 0.5)))


@functools.lru_cache(maxsize=1024)
def _noise_layout(seed: int, scene_id: int, rate: float, logit_range: tuple[float, float],
                  shape: GridShape, occupied: frozenset[tuple[int, int]]) -> tuple:
    """(base_logit, (cx, cy, w, h), class) of each spurious detection, drawn
    once per distinct key.

    A cell in occupied skips its six value draws, which shifts every later
    cell's values: the layout depends on which cells hold objects (ROADMAP,
    "One noise layout per scene").
    """
    rng = np.random.default_rng([seed, LAYOUT_TAG, scene_id])
    s = shape.s
    lo, hi = logit_range
    layout = []
    for row in range(s):
        for col in range(s):
            if rng.random() >= rate or (row, col) in occupied:
                continue
            base_logit = float(rng.uniform(lo, hi))
            w = float(rng.uniform(0.08, 0.18))
            h = float(rng.uniform(0.08, 0.18))
            cx = (col + float(rng.uniform(0.3, 0.7))) / s
            cy = (row + float(rng.uniform(0.3, 0.7))) / s
            layout.append((base_logit, (cx, cy, w, h), int(rng.integers(shape.c))))
    return tuple(layout)


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
    and occasionally flipped classes; when two objects fall in one cell the
    one nearer the cell center wins.  Empty cells get spurious sub-threshold
    objectness (with a plausible box and class, like a weak false detection)
    at the configured rate.

    Each record follows its own draw order, from a generator seeded by
    (seed, scene, frame): each spurious detection's wobble and box jitter,
    then each true object's class flip and box jitter.  So any consumer
    (sequential or parallel, any call order, any block) sees identical
    supervision.  The spurious detections' placement comes from a layout
    seeded per scene that also depends on which cells hold objects, so it
    shifts when an object enters or leaves a cell (ROADMAP, "One noise layout
    per scene"); layouts are cached per (seed, scene, noise rate and range,
    grid, occupied cells).
    The box jitter and the encoding then run once for the whole block.
    """
    c = shape.c
    wobble, sigma = noise.noise_wobble, noise.box_jitter_sigma
    n_draws = (wobble > 0) + 4 * (sigma > 0)  # per spurious detection: wobble, box jitter
    tensors = np.zeros((len(records), shape.s, shape.s, shape.channels))
    tensors[..., 0] = EMPTY_LOGIT
    # every detection in write order, spurious ones first and true objects on
    # top: its box, then, with a jitter, the box's four normals
    frames, rows, classes, logits = [], [], [], []
    for i, rec in enumerate(records):
        if rec.oracle_tensor is not None:
            tensors[i] = rec.oracle_tensor
            continue
        by_cell = _objects_by_cell(rec.gt.tolist(), shape.s)
        layout = _noise_layout(seed, rec.scene_id, noise.empty_cell_noise_rate,
                               tuple(noise.noise_logit_range), shape, frozenset(by_cell))
        rng = np.random.default_rng([seed, rec.scene_id, rec.frame_id])
        # one call fills row by row, so each spurious detection gets the
        # normals a loop drawing detection by detection would give it
        draws = rng.standard_normal((len(layout), n_draws)).tolist()
        for (base_logit, box, cls), z in zip(layout, draws):
            logits.append(min(base_logit + (wobble * z[0] if wobble > 0 else 0.0), -1e-3))
            rows.append(box + tuple(z[-4:]) if sigma > 0 else box)
            classes.append(cls)
        for cx, cy, w, h, cls, _ in by_cell.values():
            cls = int(cls)
            if noise.class_flip_prob > 0 and rng.random() < noise.class_flip_prob:
                cls = int((cls + 1 + rng.integers(c - 1)) % c) if c > 1 else cls
            box = (cx, cy, w, h)
            rows.append(box + tuple(rng.standard_normal(4).tolist()) if sigma > 0 else box)
            classes.append(cls)
            logits.append(OBJ_LOGIT)
        frames += [i] * (len(rows) - len(frames))

    # one row per box value, so each step of the jitter runs on contiguous
    # memory; geo is the (n, 4) view encode_objects reads
    values = np.array(list(zip(*rows)), dtype=float).reshape(8 if sigma > 0 else 4, len(rows))
    geo = values[:4].T
    if sigma > 0:
        # the per-box rule w = min(max(w + sigma * zw, 0.02), 0.98), then
        # cx = min(max(cx + sigma * zx, w / 2), 1 - w / 2), in place:
        # np.minimum/np.maximum equal float min/max on finite values
        jittered = values[4:]
        jittered *= sigma
        jittered += values[:4]
        wh, centers = jittered[2:], jittered[:2]
        np.maximum(wh, 0.02, out=wh)
        np.minimum(wh, 0.98, out=wh)
        half = wh / 2
        np.maximum(centers, half, out=centers)
        np.minimum(centers, 1 - half, out=centers)
        geo = jittered.T
    if len(tensors) == 1:  # one frame needs no frame index
        encode_objects(tensors[0], shape, geo, classes, logits)
    else:
        encode_objects(tensors, shape, geo, classes, logits,
                       frames=np.array(frames, dtype=np.intp))
    return tensors


def attach_oracle(stream: list[FrameRecord], noise: OracleNoiseSpec, shape: GridShape,
                  seed: int) -> list[FrameRecord]:
    """Fill every record's oracle cache in place; returns the stream."""
    for rec in stream:
        if rec.oracle_tensor is None:
            rec.oracle_tensor = oracle_for_frame(rec, noise, shape, seed)
    return stream


TRACE_VERSION = 1


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
    """One trace line's frame; TraceError says what is wrong with it."""
    for name in ("frame_id", "scene_id"):
        if type(row[name]) is not int:
            raise TraceError(f"{name} {row[name]!r} is not an integer")
    if prev_id is not None and row["frame_id"] <= prev_id:
        raise TraceError(f"frame_id {row['frame_id']} does not follow {prev_id}")
    gt = row["gt"]
    if not (isinstance(gt, list) and all(
            isinstance(g, list) and len(g) == 6 and all(type(x) in (int, float) for x in g)
            for g in gt)):
        raise TraceError("gt is not a list of [cx, cy, w, h, class, object_id] rows")
    s = grid.s
    gt = np.array(gt, dtype=float).reshape(-1, 6)
    feats = np.asarray(row["features"], dtype=float)
    oracle = None if row.get("oracle") is None else np.asarray(row["oracle"], dtype=float)
    for name, values, size in (("features", feats, s * s * d), ("oracle", oracle, grid.n_values)):
        if values is not None and values.size != size:
            raise TraceError(f"{name} length {values.size} != {size}")
    for name, values in (("features", feats), ("gt", gt), ("oracle", oracle)):
        if values is not None and not np.isfinite(values).all():
            raise TraceError(f"non-finite value in {name}")
    fractional = gt[:, 4:][gt[:, 4:] % 1 != 0]
    if fractional.size:
        raise TraceError(f"class or object id {fractional[0]} is not an integer")
    flat = gt[:, 2:4][gt[:, 2:4] <= 0]
    if flat.size:
        raise TraceError(f"box w or h {flat[0]} is not > 0")
    outside = (gt[:, 4] < 0) | (gt[:, 4] >= grid.c)
    if outside.any():
        raise TraceError(f"class id {int(gt[outside, 4][0])} not in [0, {grid.c})")
    return FrameRecord(row["frame_id"], row["scene_id"], feats.reshape(s, s, d), gt,
                       None if oracle is None else oracle.reshape(s, s, grid.channels))


def read_trace(path: str) -> tuple[list[FrameRecord], GridShape, int]:
    """Read a trace; returns (stream, grid, feature_dim).

    Malformed lines, dimension mismatches, non-finite values, ground truth
    that is not [cx, cy, w, h, class, object_id] rows with w, h > 0 and
    integral ids, class ids outside [0, c) and frame or scene ids that are
    not integers, or frame ids that do not increase, are rejected with the
    offending line number; unknown header versions are rejected outright.
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
    try:
        s, c, d, n_frames = header["s"], header["c"], header["d"], header["n_frames"]
    except KeyError as e:
        raise TraceError(f"{path}: header missing field {e} (line 1)") from e
    for name, value in (("s", s), ("c", c), ("d", d), ("n_frames", n_frames)):
        if type(value) is not int:
            raise TraceError(f"{path}: header field {name!r} is {value!r}, not an integer (line 1)")
    try:
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
        except TraceError as e:
            raise TraceError(f"{path}: {e} (line {lineno})") from None
        except (KeyError, IndexError, TypeError, ValueError, OverflowError) as e:
            raise TraceError(f"{path}: malformed record (line {lineno}): {e}") from e
    if len(records) != n_frames:
        raise TraceError(
            f"{path}: header declares {n_frames} frames but {len(records)} records found "
            f"(line {len(lines)})"
        )
    return records, grid, d
