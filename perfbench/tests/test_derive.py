from scenedistill.detection import Box, Detection
from scenedistill.pipeline import PipelineReport

import derive


def make_report(train_frames, versions, feedbacks, dropped=0, error=None, n=None):
    """A report as the runners build it: one row per answered frame."""
    n = len(versions) if n is None else n
    return PipelineReport(
        mode="parallel", selector="periodic", n_frames=n, fps=1000.0,
        key_fraction=len(train_frames) / n if n else 0.0,
        decisions=[{"frame_id": f, "train": f in train_frames, "lstm_vote": False,
                    "random_vote": f in train_frames, "suppressed": False, "p": 0.0}
                   for f in range(n)],
        latencies=[1e-4] * n,
        feedbacks=[{"frame_id": f, "loss_before": 1.0, "loss_after": 0.5, "delta_l": -0.5,
                    "source": "random", "error": err} for f, err in feedbacks],
        detections=[[] for _ in range(n)],
        versions=versions,
        dropped_key_frames=dropped,
        error=error,
    )


class TestSequentialLike:
    # key frames 0 and 3 commit inline: the next frame runs on the new weights
    report = make_report({0, 3}, [0, 10, 10, 10, 20, 20], [(0, None), (3, None)])

    def test_accounting_and_no_failures(self):
        kf = derive.key_frames(self.report)
        assert (kf.selected, kf.commits, kf.dropped, kf.errored) == (2, 2, 0, 0)
        assert kf.fail_ratio == 0.0
        assert derive.check_report(self.report, 6) == []

    def test_staleness_is_one_frame(self):
        assert derive.version_step(self.report.versions) == 10
        assert derive.commit_staleness(self.report) == [1, 1]
        assert derive.queue_wait_frames(self.report) == [0]


class TestWithDrops:
    # five key frames, two dropped by the full queue; the second and third
    # commits land between the same pair of frames
    report = make_report(
        {0, 2, 4, 6, 8},
        [0, 0, 0, 5, 5, 5, 5, 15, 15, 15],
        [(0, None), (4, None), (6, None)],
        dropped=2,
    )

    def test_fail_ratio_counts_drops(self):
        kf = derive.key_frames(self.report)
        assert (kf.selected, kf.commits, kf.dropped, kf.errored) == (5, 3, 2, 0)
        assert kf.fail_ratio == 2 / 5
        assert derive.check_report(self.report, 10) == []

    def test_staleness_and_queue_wait_from_versions(self):
        assert derive.version_step(self.report.versions) == 5
        # commit 1 (frame 0) first seen at frame 3; commits 2 and 3 at frame 7
        assert derive.commit_staleness(self.report) == [3, 3, 1]
        # frame 4 waited for commit 1 (seen at 3): 0; frame 6 waited until 7: 1
        assert derive.queue_wait_frames(self.report) == [0, 1]

    def test_commit_after_the_last_frame_is_left_out(self):
        late = make_report({0, 2}, [0, 0, 5, 5], [(0, None), (2, None)])
        assert derive.commit_staleness(late) == [2]


class TestWithErroredEvent:
    report = make_report({0, 3}, [0, 10, 10, 10, 10], [(0, None), (3, "non-finite loss")],
                         error="frame 3: non-finite loss")

    def test_errored_event_closes_accounting_and_fails_the_check(self):
        kf = derive.key_frames(self.report)
        assert (kf.selected, kf.commits, kf.dropped, kf.errored) == (2, 1, 0, 1)
        assert kf.fail_ratio == 1 / 2
        problems = derive.check_report(self.report, 5)
        assert len(problems) == 1 and "non-finite loss" in problems[0]

    def test_errored_event_has_no_staleness(self):
        assert derive.commit_staleness(self.report) == [1]


class TestChecks:
    def test_unanswered_frames_and_decreasing_versions_are_reported(self):
        report = make_report(set(), [0, 10, 5], [], n=3)
        report.latencies.pop()
        problems = derive.check_report(report, 4)
        assert any("answered frames" in p for p in problems)
        assert any("decreased" in p for p in problems)

    def test_open_accounting_is_reported(self):
        report = make_report({0, 1}, [0, 10], [(0, None)])
        assert any("accounting" in p for p in derive.check_report(report, 2))

    def test_no_key_frames_means_no_failures(self):
        report = make_report(set(), [3, 3, 3], [])
        assert derive.key_frames(report).fail_ratio == 0.0
        assert derive.commit_staleness(report) == []


class TestDigest:
    def test_digest_sees_every_digit(self):
        det = Detection(Box(0.5, 0.5, 0.2, 0.2), 1, 0.9)
        nudged = Detection(Box(0.5, 0.5, 0.2, 0.2), 1, 0.9 + 1e-15)
        assert derive.detection_digest([[det]]) == derive.detection_digest([[det]])
        assert derive.detection_digest([[det]]) != derive.detection_digest([[nudged]])
