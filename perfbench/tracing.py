"""Span recorder that traces scenedistill from the outside.

The recorder wraps callables the program looks up at call time (module
globals and class attributes), keeps one span per call in memory, and
restores the originals when the tracing window closes.  Nothing inside the
program is edited: a callable that is renamed or no longer called simply
records no spans, and its call count reads 0.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple


class Span(NamedTuple):
    """One call: name, thread ident, [start, end] in perf_counter_ns.

    frame is the frame id when the call's arguments expose one; tag is a
    small value derived from the call's result (a detection count, a
    cache-hit flag), or None.
    """

    name: str
    thread: int
    start: int
    end: int
    frame: int | None = None
    tag: object = None

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """A callable to trace: attribute `attr` of `owner`, recorded as `name`.

    framed: look for a frame id in the arguments; tag: derive a value from
    (args, result) to keep on the span.
    """

    name: str
    owner: object
    attr: str
    framed: bool = False
    tag: Callable[[tuple, object], object] | None = None


def frame_of(args: tuple, kwargs: dict) -> int | None:
    """Frame id from a `frame_id=` keyword or the first argument carrying one."""
    fid = kwargs.get("frame_id")
    if type(fid) is int:
        return fid
    for a in args:
        fid = getattr(a, "frame_id", None)
        if type(fid) is int:
            return fid
    return None


class Recorder:
    """In-memory span store; list.append is atomic, so threads share it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.thread_names: dict[int, str] = {}

    def _record(self, name, start, end, frame=None, tag=None) -> None:
        ident = threading.get_ident()
        if ident not in self.thread_names:
            self.thread_names[ident] = threading.current_thread().name
        self.spans.append(Span(name, ident, start, end, frame, tag))

    def wrap(self, name: str, fn: Callable, framed: bool = False,
             tag: Callable | None = None) -> Callable:
        record = self._record
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record(name, t0, clock(), frame_of(args, kwargs) if framed else None)
                raise
            t1 = clock()
            record(name, t0, t1, frame_of(args, kwargs) if framed else None,
                   tag(args, result) if tag is not None else None)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._record(name, t0, time.perf_counter_ns())

    @contextmanager
    def installed(self, targets: Iterable[Target]):
        """Wrap every target that exists, then restore each one on exit."""
        restore = []  # (owner, attr, original, was_own_attribute)
        seen = set()
        try:
            for t in targets:
                key = (id(t.owner), t.attr)
                if t.owner is None or key in seen or not hasattr(t.owner, t.attr):
                    continue
                seen.add(key)
                own = isinstance(t.owner, type) and t.attr in vars(t.owner)
                original = vars(t.owner)[t.attr] if own else getattr(t.owner, t.attr)
                restore.append((t.owner, t.attr, original,
                                own or not isinstance(t.owner, type)))
                setattr(t.owner, t.attr, self.wrap(t.name, original, t.framed, t.tag))
            yield self
        finally:
            for owner, attr, original, own in reversed(restore):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)  # it was inherited; drop the shadow

    def write(self, path: str) -> None:
        """One JSON object per span, in recording order."""
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "name": s.name, "thread": self.thread_names.get(s.thread, str(s.thread)),
                    "start_ns": s.start, "end_ns": s.end, "frame": s.frame,
                    "tag": s.tag if isinstance(s.tag, (int, float, bool)) else None,
                }) + "\n")


def self_times(spans: list[Span]) -> list[int]:
    """Self time of each span, aligned with `spans`.

    A span's self time is its duration minus the part of its interval
    covered by its children.  A child is a span on the same thread that
    starts inside it and not inside a deeper child; a child that outlasts
    its parent is clipped to the parent's end.
    """
    covered = [0] * len(spans)
    by_thread = defaultdict(list)
    for i, s in enumerate(spans):
        by_thread[s.thread].append(i)
    for idxs in by_thread.values():
        idxs.sort(key=lambda i: (spans[i].start, -spans[i].end))
        stack: list[int] = []
        for i in idxs:
            s = spans[i]
            while stack and spans[stack[-1]].end <= s.start:
                stack.pop()
            if stack:
                covered[stack[-1]] += min(s.end, spans[stack[-1]].end) - s.start
            stack.append(i)
    return [s.duration - c for s, c in zip(spans, covered)]


def top_level(spans: list[Span], thread: int, start: int, end: int) -> list[Span]:
    """Outermost spans of one thread that start inside [start, end), by start."""
    own = sorted((s for s in spans if s.thread == thread and start <= s.start < end),
                 key=lambda s: (s.start, -s.end))
    out: list[Span] = []
    for s in own:
        if out and s.start < out[-1].end:
            continue  # nested in the previous outermost span
        out.append(s)
    return out


def frame_self_times(top: list[Span], anchors: list[int], latencies_ns: list[int]) -> list[int]:
    """Per-frame time not covered by traced calls on the inference thread.

    `top` holds the inference thread's outermost spans during the run,
    sorted by start; `anchors[f]` is the start of frame f's first traced
    call with its frame id (the backbone); `latencies_ns[f]` is the frame's
    latency as the program reports it.  A frame's window starts at its
    earliest span after the previous frame's window (work the runner does
    before the backbone, such as applying queued feedback) and lasts its
    reported latency.  Its self time is that latency minus the spans that
    start inside the window, which leaves runner overhead and waits for
    the interpreter lock.
    """
    out = []
    j = 0
    prev_end = anchors[0] if anchors else 0
    for anchor, lat in zip(anchors, latencies_ns):
        while j < len(top) and top[j].start < prev_end:
            j += 1
        t0 = min(top[j].start, anchor) if j < len(top) else anchor
        end = t0 + lat
        busy = 0
        while j < len(top) and top[j].start < end:
            busy += min(top[j].end, end) - top[j].start
            j += 1
        out.append(lat - busy)
        prev_end = end
    return out
