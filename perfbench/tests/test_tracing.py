import threading
import types

import pytest

from tracing import Recorder, Span, Target, frame_self_times, self_times, top_level


def span(name, start, end, thread=1, frame=None):
    return Span(name, thread, start, end, frame)


class TestSelfTimes:
    def test_leaf_self_time_is_its_duration(self):
        assert self_times([span("a", 10, 35)]) == [25]

    def test_children_are_subtracted_from_parent(self):
        spans = [span("p", 0, 100), span("c1", 10, 30), span("c2", 40, 70)]
        assert self_times(spans) == [50, 20, 30]

    def test_grandchild_counts_against_its_parent_only(self):
        spans = [span("p", 0, 100), span("c", 10, 60), span("g", 20, 30)]
        assert self_times(spans) == [50, 40, 10]

    def test_order_of_input_does_not_matter(self):
        spans = [span("g", 20, 30), span("c", 10, 60), span("p", 0, 100)]
        assert self_times(spans) == [10, 40, 50]

    def test_spans_on_other_threads_are_not_children(self):
        spans = [span("p", 0, 100, thread=1), span("w", 10, 90, thread=2)]
        assert self_times(spans) == [100, 80]

    def test_touching_children_and_zero_length_spans(self):
        spans = [span("p", 0, 50), span("c1", 10, 20), span("c2", 20, 30), span("z", 40, 40)]
        assert self_times(spans) == [30, 10, 10, 0]

    def test_a_span_starting_inside_another_is_its_clipped_child(self):
        # not produced by real call stacks; self time still never goes negative
        spans = [span("p", 0, 100), span("c1", 10, 50), span("c2", 30, 120)]
        assert self_times(spans) == [60, 20, 90]

    def test_siblings_after_a_parent_ends_are_not_its_children(self):
        spans = [span("a", 0, 10), span("b", 10, 20), span("c", 20, 30)]
        assert self_times(spans) == [10, 10, 10]


class TestTopLevel:
    def test_keeps_outermost_spans_of_one_thread_in_window(self):
        spans = [span("p", 0, 100), span("c", 10, 20), span("q", 100, 150),
                 span("w", 5, 6, thread=2), span("late", 200, 210)]
        assert [s.name for s in top_level(spans, 1, 0, 200)] == ["p", "q"]


class TestFrameSelfTimes:
    def test_single_thread_frames(self):
        # frame 0: [0, 100) with calls covering 70; frame 1: [100, 180) covering 50
        top = [span("backbone", 0, 20, frame=0), span("merge", 25, 75),
               span("backbone", 100, 120, frame=1), span("merge", 130, 160)]
        assert frame_self_times(top, [0, 100], [100, 80]) == [30, 30]

    def test_work_before_the_backbone_belongs_to_its_frame(self):
        # frame 1 applies queued feedback at 100..110 before its backbone at 112
        top = [span("backbone", 0, 20, frame=0),
               span("feedback", 100, 110), span("backbone", 112, 130, frame=1)]
        assert frame_self_times(top, [0, 112], [100, 50]) == [80, 22]

    def test_spans_before_the_first_frame_and_after_the_last_are_ignored(self):
        top = [span("checkpoint_load", -50, -10), span("backbone", 0, 20, frame=0),
               span("final_drain", 500, 520)]
        assert frame_self_times(top, [0], [40]) == [20]


class TestRecorder:
    def test_wrapped_calls_record_spans_with_frame_and_tag(self):
        rec = Recorder()
        mod = types.SimpleNamespace(f=lambda frame, n: list(range(n)))
        frame = types.SimpleNamespace(frame_id=7)
        with rec.installed([Target("layer.f", mod, "f", framed=True,
                                   tag=lambda args, result: len(result))]):
            assert mod.f(frame, 3) == [0, 1, 2]
        (s,) = rec.spans
        assert (s.name, s.frame, s.tag, s.thread) == ("layer.f", 7, 3, threading.get_ident())
        assert s.end >= s.start

    def test_originals_are_restored_even_on_error(self):
        rec = Recorder()

        def original():
            raise KeyError("boom")

        mod = types.SimpleNamespace(f=original)
        with pytest.raises(KeyError):
            with rec.installed([Target("layer.f", mod, "f")]):
                mod.f()
        assert mod.f is original
        assert [s.name for s in rec.spans] == ["layer.f"]

    def test_inherited_methods_are_restored_to_inheritance(self):
        class Base:
            def decide(self):
                return "base"

        class Child(Base):
            pass

        rec = Recorder()
        with rec.installed([Target("selector.decide", Child, "decide")]):
            assert Child().decide() == "base"
            assert "decide" in vars(Child)
        assert "decide" not in vars(Child)
        assert len(rec.spans) == 1

    def test_missing_targets_are_skipped_and_duplicates_wrapped_once(self):
        rec = Recorder()
        mod = types.SimpleNamespace(f=lambda: 1)
        with rec.installed([Target("a", mod, "f"), Target("a", mod, "f"),
                            Target("b", mod, "gone"), Target("c", None, "f")]):
            mod.f()
        assert [s.name for s in rec.spans] == ["a"]

    def test_frame_id_keyword_wins(self):
        rec = Recorder()
        mod = types.SimpleNamespace(step=lambda params, frame_id=-1: None)
        with rec.installed([Target("distill.step", mod, "step", framed=True)]):
            mod.step(object(), frame_id=42)
        assert rec.spans[0].frame == 42

    def test_write_emits_one_line_per_span(self, tmp_path):
        rec = Recorder()
        with rec.span("bench.block"):
            pass
        path = tmp_path / "spans.jsonl"
        rec.write(str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 1 and '"bench.block"' in lines[0]
