"""Key-frame selection: the learned gate with its random safeguard, plus
the baseline selectors used for comparison runs.

The adaptive selector decides per frame whether to run the oracle and
retrain the student.  Its decision is the disjunction of an LSTM gate over
the frame's feature summary and a Bernoulli draw with adaptive probability
p.  Feedback from each distillation event (did the on-frame loss drop by
more than |sigma|?) trains the LSTM and moves p: p shrinks while the gate
is making correct calls and doubles when it is caught being wrong, so the
random path takes over exactly when the gate cannot be trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distill import FeedbackRecord
from .models import advance_lstm, init_lstm, lstm_train_step


@dataclass(frozen=True)
class Decision:
    frame_id: int
    train: bool
    lstm_vote: bool = False
    random_vote: bool = False
    suppressed: bool = False
    p: float = 0.0


@dataclass
class SelectorConfig:
    p_init: float = 0.5
    p_min: float = 0.05
    p_step: float = 0.05     # decrement applied after a correct gate call
    tau: int = 2             # min frames between consecutive trainings
    sigma: float = -0.1      # loss delta below which an event counts as helpful
    lstm_hidden: int = 8
    lstm_lr: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.p_min <= 1.0:
            raise ValueError(f"p_min must be in (0, 1], got {self.p_min}")
        if not self.p_min <= self.p_init <= 1.0:
            raise ValueError(f"p_init must be in [p_min, 1], got {self.p_init}")
        if self.tau < 0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")


class _GappedSelector:
    """The training-prevention gap shared by every selector that can train.

    After a key frame the next tau frames are suppressed.  decide() runs
    _observe on every frame, so state that follows the stream (the LSTM, the
    previous frame, the frame counter) advances even while suppressed, and
    the subclass's _vote only outside the gap, so suppressed frames draw no
    randomness.
    """

    p = 0.0  # written on every decision

    def __init__(self, tau: int):
        self.tau = tau
        self.frames_since_train = tau  # no suppression at stream start

    def _observe(self, features: np.ndarray, summary: np.ndarray):
        return None

    def decide(self, frame_id: int, features: np.ndarray, summary: np.ndarray) -> Decision:
        observed = self._observe(features, summary)
        if self.frames_since_train < self.tau:
            self.frames_since_train += 1
            return Decision(frame_id, train=False, suppressed=True, p=self.p)
        decision = self._vote(frame_id, features, summary, observed)
        self.frames_since_train = 0 if decision.train else self.frames_since_train + 1
        return decision

    def apply_feedback(self, fb: FeedbackRecord) -> None:
        pass


class AdaptiveSelector(_GappedSelector):
    """LSTM gate OR adaptive random safeguard, with training-prevention gap.

    Its state has one owner, run_pipeline's frame loop, on one thread:
    decide() runs once per frame and apply_feedback() only between two
    decide() calls, so each decision sees every feedback delivered before it.
    """

    kind = "adaptive"

    def __init__(self, summary_dim: int, cfg: SelectorConfig, seed: int):
        super().__init__(cfg.tau)
        self.cfg = cfg
        self.p = cfg.p_init
        self.lstm = init_lstm(summary_dim, cfg.lstm_hidden, seed)
        self.rng = np.random.default_rng(seed)
        self._pending: dict[int, tuple[np.ndarray, bool]] = {}  # frame_id -> (summary, lstm_vote)

    def _observe(self, features: np.ndarray, summary: np.ndarray) -> float:
        score, self.lstm = advance_lstm(self.lstm, summary)
        return score

    def _vote(self, frame_id: int, features: np.ndarray, summary: np.ndarray, score: float) -> Decision:
        lstm_vote = score >= 0.5
        random_vote = bool(self.rng.random() < self.p)
        train = lstm_vote or random_vote
        if train:
            self._pending[frame_id] = (summary, lstm_vote)
        return Decision(frame_id, train=train, lstm_vote=lstm_vote,
                        random_vote=random_vote, p=self.p)

    def apply_feedback(self, fb: FeedbackRecord) -> None:
        """Consume the outcome of a distillation event this selector triggered.

        The LSTM is trained toward "helpful or not" on the summary this
        selector kept for the frame.  p moves by the correctness of the gate
        vote it kept with it: a gate that voted train on a helpful frame (or
        stayed silent on an unhelpful random probe) was right and p decays
        toward p_min; a gate caught voting wrong doubles p so the safeguard
        picks up the slack while the gate relearns.
        """
        pending = self._pending.pop(fb.frame_id, None)
        if pending is None:
            raise ValueError(f"feedback for frame {fb.frame_id} that was never selected")
        if fb.error is not None:
            return
        summary, gate_voted = pending
        helpful = fb.delta_l < self.cfg.sigma
        gate_correct = gate_voted == helpful
        if gate_correct:
            self.p = max(self.p - self.cfg.p_step, self.cfg.p_min)
        else:
            self.p = min(2.0 * self.p, 1.0)
        self.lstm = lstm_train_step(self.lstm, summary, 1 if helpful else 0,
                                    self.cfg.lstm_lr)


class RandomSelector(_GappedSelector):
    """I.i.d. Bernoulli(prob) decisions with the same training-prevention gap."""

    kind = "random"

    def __init__(self, prob: float, tau: int = 2, seed: int = 0):
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"prob must be in [0, 1], got {prob}")
        super().__init__(tau)
        self.p = prob
        self.rng = np.random.default_rng(seed)

    def _vote(self, frame_id: int, features: np.ndarray, summary: np.ndarray, observed) -> Decision:
        train = bool(self.rng.random() < self.p)
        return Decision(frame_id, train=train, random_vote=train, p=self.p)


class SceneChangeSelector(_GappedSelector):
    """Flags a frame when the mean absolute feature change exceeds a threshold."""

    kind = "scene_change"

    def __init__(self, threshold: float, tau: int = 2):
        super().__init__(tau)
        self.threshold = threshold
        self._prev: np.ndarray | None = None

    def _observe(self, features: np.ndarray, summary: np.ndarray) -> np.ndarray | None:
        prev, self._prev = self._prev, features
        return prev

    def _vote(self, frame_id: int, features: np.ndarray, summary: np.ndarray, prev) -> Decision:
        train = prev is not None and float(np.mean(np.abs(features - prev))) > self.threshold
        return Decision(frame_id, train=train, random_vote=train)


class PeriodicSelector(_GappedSelector):
    """Trains every n-th frame, subject to the same prevention gap."""

    kind = "periodic"

    def __init__(self, period: int, tau: int = 2):
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        super().__init__(tau)
        self.period = period
        self._count = 0

    def _observe(self, features: np.ndarray, summary: np.ndarray) -> bool:
        due = self._count % self.period == 0
        self._count += 1
        return due

    def _vote(self, frame_id: int, features: np.ndarray, summary: np.ndarray, due: bool) -> Decision:
        return Decision(frame_id, train=due, random_vote=due)


class NeverSelector:
    """Frozen-student mode: never trains."""

    kind = "never"

    def decide(self, frame_id: int, features: np.ndarray, summary: np.ndarray) -> Decision:
        return Decision(frame_id, train=False)

    def apply_feedback(self, fb: FeedbackRecord) -> None:
        pass
