"""Run metrics and output checks derived from public PipelineReport fields.

Everything here reads only `decisions`, `feedbacks`, `versions`,
`latencies`, `detections`, `dropped_key_frames`, `n_frames` and `error`,
so it works on any report the program returns, traced or not.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class KeyFrames:
    """Fate of every key frame the selector picked."""

    selected: int
    commits: int
    dropped: int
    errored: int

    @property
    def fail_ratio(self) -> float:
        """(dropped + errored) / selected; 0 when nothing was selected."""
        return (self.dropped + self.errored) / self.selected if self.selected else 0.0


def key_frames(report) -> KeyFrames:
    errored = sum(1 for fb in report.feedbacks if fb["error"] is not None)
    return KeyFrames(
        selected=sum(1 for d in report.decisions if d["train"]),
        commits=len(report.feedbacks) - errored,
        dropped=report.dropped_key_frames,
        errored=errored,
    )


def version_step(versions: list[int]) -> int:
    """Version increment of one commit: gcd of the observed version jumps.

    0 when no frame ever saw a new version.
    """
    step = 0
    for a, b in zip(versions, versions[1:]):
        if b > a:
            step = math.gcd(step, b - a)
    return step


def commit_visibility(report) -> list[tuple[int, int | None]]:
    """(key frame id, index of the first frame run on its commit) per commit.

    Commits are taken in the order of the successful feedbacks, which is
    the order the single writer committed them.  The index is None for a
    commit no frame saw (it landed after the last frame).
    """
    versions = report.versions
    step = version_step(versions)
    out: list[tuple[int, int | None]] = []
    committed = [fb["frame_id"] for fb in report.feedbacks if fb["error"] is None]
    if not versions:
        return [(f, None) for f in committed]
    idx = 0
    for j, frame_id in enumerate(committed, start=1):
        if step == 0:
            out.append((frame_id, None))
            continue
        target = versions[0] + j * step
        while idx < len(versions) and versions[idx] < target:
            idx += 1
        out.append((frame_id, idx if idx < len(versions) else None))
    return out


def commit_staleness(report) -> list[int]:
    """Frames from a key frame's selection to the first frame run on its commit.

    1 means the very next frame used the new weights, as in sequential mode.
    Commits no frame saw are left out.
    """
    frame_ids = [d["frame_id"] for d in report.decisions]
    return [frame_ids[i] - f for f, i in commit_visibility(report) if i is not None]


def queue_wait_frames(report) -> list[int]:
    """Frames each committed key frame waited for the previous commit.

    The worker handles one event at a time, so event j cannot start before
    event j-1 is committed; the wait is counted from j's selection to the
    first frame that saw j-1's commit, and is 0 when j-1 was already
    visible.  A frame-granular lower bound on time spent queued.
    """
    frame_ids = [d["frame_id"] for d in report.decisions]
    vis = commit_visibility(report)
    waits = []
    for (_, prev_idx), (frame_id, _) in zip(vis, vis[1:]):
        if prev_idx is None:
            continue
        waits.append(max(0, frame_ids[prev_idx] - frame_id))
    return waits


def check_report(report, n_frames: int) -> list[str]:
    """Every violated output invariant, as readable messages."""
    problems = []
    if report.error is not None:
        problems.append(f"run reported an error: {report.error}")
    lengths = {
        "n_frames": report.n_frames,
        "latencies": len(report.latencies),
        "detections": len(report.detections),
        "decisions": len(report.decisions),
        "versions": len(report.versions),
    }
    if set(lengths.values()) != {n_frames}:
        problems.append(f"expected {n_frames} answered frames, got {lengths}")
    if any(b < a for a, b in zip(report.versions, report.versions[1:])):
        problems.append("param versions decreased")
    kf = key_frames(report)
    if kf.selected != kf.commits + kf.dropped + kf.errored:
        problems.append(f"key-frame accounting does not close: {kf}")
    return problems


def detection_digest(detections) -> str:
    """Order-sensitive hash of every detection, at full float precision."""
    rows = [
        [[d.box.cx, d.box.cy, d.box.w, d.box.h, d.class_id, d.confidence] for d in frame]
        for frame in detections
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
