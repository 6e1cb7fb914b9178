"""Key-frame selector: decision disjunction, prevention gap, probability
adaptation, and the baseline selectors."""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from scenedistill.detection import GridShape
from scenedistill.distill import FeedbackRecord
from scenedistill.models import Backbone, LstmGate
from scenedistill.selector import (
    AdaptiveSelector,
    PeriodicSelector,
    RandomSelector,
    SceneChangeSelector,
    SelectorConfig,
)
from scenedistill.simstream import SceneSpec, StreamConfig, generate_stream, scene_change_frames

D = 6
SUMMARY_DIM = 2 * D


ZEROS = np.zeros((2, 2, D))  # frame features; only the scene-change selector reads them


def summary(i=0):
    rng = np.random.default_rng(i)
    return rng.normal(0, 1, size=SUMMARY_DIM)


def make_selector(p_init=0.5, p_min=0.05, tau=2, lstm_bias=0.0, seed=0, sigma=-0.1):
    cfg = SelectorConfig(p_init=p_init, p_min=p_min, tau=tau, sigma=sigma)
    sel = AdaptiveSelector(SUMMARY_DIM, cfg, seed=seed)
    if lstm_bias != 0.0:
        sel.lstm.b_out = lstm_bias
    return sel


def feedback(sel, frame_id, delta_l):
    return FeedbackRecord(frame_id=frame_id, loss_before=1.0, loss_after=1.0 + delta_l)


class TestDecide:
    def test_trained_last_frame_suppresses_regardless_of_votes(self):
        sel = make_selector(p_init=1.0, tau=2)  # random fires for certain
        d0 = sel.decide(0, ZEROS, summary(0))
        assert d0.train
        d1 = sel.decide(1, ZEROS, summary(1))
        assert not d1.train and d1.suppressed

    def test_certain_random_vote_trains_when_not_suppressed(self):
        sel = make_selector(p_init=1.0, tau=0, lstm_bias=-20.0)
        for i in range(10):
            assert sel.decide(i, ZEROS, summary(i)).train

    def test_counter_resets_only_on_train(self):
        sel = make_selector(p_init=1.0, tau=2, lstm_bias=-20.0)
        trains = [sel.decide(i, ZEROS, summary(i)).train for i in range(12)]
        # certain trigger with tau=2: two suppressed frames between positives
        assert trains == [True, False, False] * 4

    def test_bernoulli_rate_at_floor(self):
        # LSTM forced hard negative; suppression off; p at its 5% floor
        sel = make_selector(p_init=0.05, tau=0, lstm_bias=-20.0, seed=11)
        s = summary(0)
        n = 100_000
        hits = sum(sel.decide(i, ZEROS, s).train for i in range(n))
        assert hits / n == pytest.approx(0.05, abs=0.005)

    def test_lstm_vote_alone_triggers(self):
        sel = make_selector(p_init=0.05, tau=0, lstm_bias=+20.0, seed=1)
        d = sel.decide(0, ZEROS, summary(0))
        assert d.train and d.lstm_vote

    def test_hidden_state_advances_on_suppressed_frames(self):
        sel = make_selector(p_init=1.0, tau=2)
        sel.decide(0, ZEROS, summary(0))
        h_before = sel.lstm.h.copy()
        sel.decide(1, ZEROS, summary(1))  # suppressed
        assert not np.array_equal(sel.lstm.h, h_before)

    def test_gate_read_out_once_per_unsuppressed_decision(self, monkeypatch):
        calls = []
        score = LstmGate.score
        monkeypatch.setattr(LstmGate, "score", lambda gate: calls.append(1) or score(gate))
        sel = make_selector(p_init=0.5, tau=2, seed=4)
        suppressed = []
        for i in range(60):
            d = sel.decide(i, ZEROS, summary(i))
            suppressed.append(d.suppressed)
            if d.train:
                sel.apply_feedback(feedback(sel, i, delta_l=-0.2))
        assert 0 < suppressed.count(False) < len(suppressed)
        assert len(calls) == suppressed.count(False)


class TestApplyFeedback:
    def test_helpful_decreases_p(self):
        sel = make_selector(p_init=0.5, tau=0, lstm_bias=20.0)
        d = sel.decide(0, ZEROS, summary(0))
        assert d.train
        sel.apply_feedback(feedback(sel, 0, delta_l=-0.2))
        assert sel.p == pytest.approx(0.45)

    def test_helpful_at_floor_stays_at_floor(self):
        sel = make_selector(p_init=0.05, tau=0, lstm_bias=20.0)
        sel.decide(0, ZEROS, summary(0))
        sel.apply_feedback(feedback(sel, 0, delta_l=-0.2))
        assert sel.p == pytest.approx(0.05)

    def test_unhelpful_doubles_p_capped_at_one(self):
        sel = make_selector(p_init=0.6, tau=0, lstm_bias=20.0)
        sel.decide(0, ZEROS, summary(0))
        sel.apply_feedback(feedback(sel, 0, delta_l=+0.05))
        assert sel.p == pytest.approx(1.0)

    def test_unhelpful_random_probe_confirms_silent_gate(self):
        # the gate said no and the probe proved training useless: gate was
        # right, so reliance on the random path decays
        sel = make_selector(p_init=0.5, tau=0, lstm_bias=-20.0)
        d = sel.decide(0, ZEROS, summary(0))
        while not d.train:
            d = sel.decide(d.frame_id + 1, ZEROS, summary(d.frame_id + 1))
        assert d.random_vote and not d.lstm_vote
        sel.apply_feedback(feedback(sel, d.frame_id, delta_l=+0.05))
        assert sel.p == pytest.approx(0.45)

    def test_helpful_random_probe_doubles_p(self):
        # the gate missed a helpful frame: safeguard ramps up
        sel = make_selector(p_init=0.3, tau=0, lstm_bias=-20.0)
        d = sel.decide(0, ZEROS, summary(0))
        while not d.train:
            d = sel.decide(d.frame_id + 1, ZEROS, summary(d.frame_id + 1))
        sel.apply_feedback(feedback(sel, d.frame_id, delta_l=-0.5))
        assert sel.p == pytest.approx(0.6)

    def test_nineteen_helpful_steps_from_one_reach_floor(self):
        sel = make_selector(p_init=1.0, tau=0, lstm_bias=20.0)
        steps = 0
        i = 0
        while sel.p > sel.cfg.p_min + 1e-12:
            d = sel.decide(i, ZEROS, summary(i))
            assert d.train
            sel.apply_feedback(feedback(sel, i, delta_l=-1.0))
            steps += 1
            i += 1
        assert steps == 19  # ceil((1 - 0.05) / 0.05)

    def test_feedback_for_unselected_frame_rejected(self):
        sel = make_selector()
        with pytest.raises(ValueError):
            sel.apply_feedback(feedback(sel, 123, delta_l=-1.0))

    def test_deterministic_given_state_and_feedback(self):
        results = []
        for _ in range(2):
            sel = make_selector(p_init=0.5, tau=0, lstm_bias=20.0, seed=3)
            sel.decide(0, ZEROS, summary(0))
            sel.apply_feedback(feedback(sel, 0, delta_l=-0.5))
            results.append((sel.p, sel.lstm.w_gates.copy(), sel.lstm.b_out))
        assert results[0][0] == results[1][0]
        assert np.array_equal(results[0][1], results[1][1])
        assert results[0][2] == results[1][2]

    def test_p_never_leaves_bounds_under_random_feedback(self):
        sel = make_selector(p_init=0.5, tau=0, lstm_bias=20.0, seed=9)
        rng = np.random.default_rng(9)
        for i in range(300):
            d = sel.decide(i, ZEROS, summary(i))
            if d.train:
                sel.apply_feedback(feedback(sel, i, delta_l=float(rng.normal(-0.1, 0.3))))
            assert sel.cfg.p_min - 1e-12 <= sel.p <= 1.0 + 1e-12

    def test_errored_event_leaves_p_untouched(self):
        sel = make_selector(p_init=0.5, tau=0, lstm_bias=20.0)
        sel.decide(0, ZEROS, summary(0))
        fb = FeedbackRecord(0, 1.0, 1.0, error="non-finite loss")
        sel.apply_feedback(fb)
        assert sel.p == pytest.approx(0.5)


class TestSuppressionWindow:
    def test_no_two_positives_within_tau_over_long_log(self):
        sel = make_selector(p_init=0.4, tau=2, seed=21)
        positives = []
        for i in range(10_000):
            d = sel.decide(i, ZEROS, summary(i % 50))
            if d.train:
                positives.append(i)
                sel.apply_feedback(feedback(sel, i, delta_l=-0.2))
        assert positives, "selector never fired"
        gaps = np.diff(positives)
        assert (gaps > 2).all()


class TestRandomSelector:
    def test_prob_zero_never_trains(self):
        sel = RandomSelector(0.0, tau=0, seed=0)
        assert not any(sel.decide(i, ZEROS, None).train for i in range(1000))

    def test_prob_one_tau_zero_always_trains(self):
        sel = RandomSelector(1.0, tau=0, seed=0)
        assert all(sel.decide(i, ZEROS, None).train for i in range(1000))

    def test_long_run_rate(self):
        sel = RandomSelector(0.27, tau=0, seed=5)
        n = 100_000
        hits = sum(sel.decide(i, ZEROS, None).train for i in range(n))
        assert hits / n == pytest.approx(0.27, abs=0.01)

    def test_tau_suppression_applies(self):
        sel = RandomSelector(1.0, tau=2, seed=0)
        trains = [sel.decide(i, ZEROS, None).train for i in range(9)]
        assert trains == [True, False, False] * 3


class TestSceneChangeSelector:
    def test_identical_frames_never_flagged(self):
        sel = SceneChangeSelector(threshold=0.01, tau=0)
        assert not any(sel.decide(0, ZEROS, None).train for _ in range(10))

    def test_constant_shift_flagged(self):
        sel = SceneChangeSelector(threshold=0.5, tau=0)
        sel.decide(0, ZEROS, None)
        assert sel.decide(1, np.ones((2, 2, D)), None).train

    def test_detects_generated_scene_changes(self):
        grid = GridShape(s=4, c=2)
        cfg = StreamConfig(grid=grid, feature_dim=D, transition_len=2, background_noise=0.02)
        scenes = [
            SceneSpec(scene_id=0, class_probs=(1.0, 0.0), object_count_range=(3, 4),
                      duration_range=(25, 35)),
            SceneSpec(scene_id=1, class_probs=(0.0, 1.0), object_count_range=(3, 4),
                      duration_range=(25, 35)),
        ]
        stream = generate_stream(scenes, 400, cfg, seed=3)
        changes = scene_change_frames(stream)
        assert len(changes) >= 5

        sel = SceneChangeSelector(threshold=0.08, tau=0)
        flagged = [rec.frame_id for rec in stream
                   if sel.decide(rec.frame_id, rec.features, None).train]
        hit = sum(
            1 for ch in changes
            if any(abs(f - ch) <= 1 for f in flagged)
        )
        assert hit / len(changes) >= 0.9


class TestPeriodicSelector:
    def test_period_one_tau_zero_every_frame(self):
        sel = PeriodicSelector(1, tau=0)
        assert all(sel.decide(i, ZEROS, None).train for i in range(20))

    def test_period_four(self):
        sel = PeriodicSelector(4, tau=2)
        trains = [sel.decide(i, ZEROS, None).train for i in range(12)]
        assert trains == [True, False, False, False] * 3


class TestSelectorConfig:
    @pytest.mark.parametrize("kwargs", [
        {"p_min": 0.0}, {"p_init": 0.01}, {"p_init": 1.5}, {"tau": -1},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SelectorConfig(**kwargs)


# (selector, tau, key frames, SHA-256 of [decision rows, final frames_since_train]):
# exact values, so a change to the gap, the side effects of a suppressed frame,
# the order of the random draws or the p written on a decision shows.
DECISION_PINS = [
    ("adaptive", 0, 259, "6fe0e16cce3d66f74c703336495ffad9969372192504f7adc8c310e9d0785b21"),
    ("adaptive", 2, 93, "b84cd0848f0c342a2dfe30effbcb683fe74c8ff71471fc6f87c27cfd3df028bd"),
    ("adaptive", 5, 49, "933016e6098ba73bc8686f23c33ef4621e7a4b7b34a873650cc8936e39544c16"),
    ("random", 0, 71, "dbc4d0abb3ba404bfee61645315f580327920defdfe09399013d7d28e14b29bd"),
    ("random", 2, 47, "991a2b9980a8e8c60e7f9e276ec79afe64d63c00d81369e6191d8bff4ba5615b"),
    ("random", 5, 32, "ab28f3e57384508292f07b6e44e892b3c578047db4ca297e09b076350a8b7e17"),
    ("scene_change", 0, 40, "170c48b519f359bbcb6212195798509f2994a674af8505ef3db318f5f6b591b7"),
    ("scene_change", 2, 22, "9bd537b2537d07554c0db2827b143babf5d348eeac9127e0b242b5f7f58b924a"),
    ("scene_change", 5, 14, "16d41d7e9701ae4cdda0adc6fbab31dbb9f6422e405aea203d48b67f1c793bff"),
    ("periodic", 0, 100, "c37acf3625f6f3739f9404476e7e6c6b3e388a9e53ff1c2d1b809ae95394a9c7"),
    ("periodic", 2, 100, "a5ef6dad807e79e02ba2495cc54edd29d7c0b779981d7d6fc604ab7e9aca5765"),
    ("periodic", 5, 50, "24eecd0f93517805ffd3f9b6947461b02f88703c610df067d7bdd7a574e09c50"),
]

# (tau, SHA-256 of the gate's w_gates, b_gates, w_out, b_out, h and c as float64
# bytes) after the adaptive rows of DECISION_PINS: the decisions see the LSTM
# only through score >= 0.5, these see every bit of it.
GATE_PINS = [
    (0, "6190bb393a35a5a188872189a1a0bb1d1b5afd488c14c20c80f1c66b0937a5fc"),
    (2, "a6280dbd2b164da1716e4ec880881dc12192c4c4a6312f9c786857f2bef45d46"),
    (5, "37ff61429c5d09a22bc8ced0269160641daa91beef24c2bb49553b57b968e08b"),
]


class TestPinnedDecisions:
    """Full decision rows over a fixed 300-frame stream, with feedback."""

    @pytest.fixture(scope="class")
    def frames(self):
        grid = GridShape(s=4, c=3)
        stream = generate_stream([SceneSpec(0, (0.5, 0.3, 0.2), duration_range=(40, 80)),
                                  SceneSpec(1, (0.2, 0.3, 0.5), duration_range=(40, 80))],
                                 300, StreamConfig(grid=grid, feature_dim=D), seed=11)
        backbone = Backbone(D, seed=0)
        return [(rec.frame_id, *backbone.forward(rec.features)) for rec in stream]

    @staticmethod
    def run(frames, kind, tau):
        """(selector, decision rows) after the pinned sequence with feedback."""
        sel = {
            "adaptive": lambda: AdaptiveSelector(SUMMARY_DIM, SelectorConfig(tau=tau), seed=3),
            "random": lambda: RandomSelector(0.3, tau=tau, seed=4),
            "scene_change": lambda: SceneChangeSelector(0.05, tau=tau),
            "periodic": lambda: PeriodicSelector(3, tau=tau),
        }[kind]()
        rows = []
        for frame_id, feats, summ in frames:
            d = sel.decide(frame_id, feats, summ)
            rows.append(asdict(d))
            if d.train:
                delta = -0.3 if d.frame_id % 5 == 0 else 0.05
                sel.apply_feedback(FeedbackRecord(d.frame_id, 1.0, 1.0 + delta))
        return sel, rows

    @pytest.mark.parametrize("kind,tau,n_train,digest", DECISION_PINS)
    def test_rows_match_pinned_digest(self, frames, kind, tau, n_train, digest):
        sel, rows = self.run(frames, kind, tau)
        doc = json.dumps([rows, sel.frames_since_train])
        assert sum(r["train"] for r in rows) == n_train
        assert hashlib.sha256(doc.encode()).hexdigest() == digest

    @pytest.mark.parametrize("tau,digest", GATE_PINS)
    def test_gate_bytes_match_pinned_digest(self, frames, tau, digest):
        lstm = self.run(frames, "adaptive", tau)[0].lstm
        blob = b"".join(np.asarray(getattr(lstm, name), dtype=np.float64).tobytes()
                        for name in ("w_gates", "b_gates", "w_out", "b_out", "h", "c"))
        assert hashlib.sha256(blob).hexdigest() == digest
