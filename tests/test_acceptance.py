"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `criterion N: PASS/FAIL` line with the measured values
(visible with `pytest -s`, and in the captured output on failure) before
asserting, so a red criterion still reports exactly what was measured.

Criterion 6 compares runs that do the same detection work: the frozen,
sequential and parallel runs all start from one adapted checkpoint.  An
untrained student emits no detections on that stream, so it skips most of
the decode+NMS work an adapting student pays; a frozen student loaded from
the adapted checkpoint ran at 0.59-0.81x the untrained one's fps.  Parallel
mode never waits out the simulated oracle delay: the frame loop schedules
each answer and trains on it at the first frame boundary or key-frame
hand-off after it is due, so what is left of the parallel cost is the
distillation step itself.  The package starts no second thread.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from scenedistill.detection import GridShape, decode_tensor
from scenedistill.distill import (
    DistillConfig,
    FeedbackRecord,
    bounded_distill_loss,
    compose_target,
    distill_step,
)
from scenedistill.evaluate import (
    EvalConfig,
    bench_loss_cost,
    evaluate_frames,
    ground_truth_for,
    keyframe_histogram,
    sweep,
)
from scenedistill.models import DecoderParams, decoder_forward, init_decoder
from scenedistill.pipeline import PipelineConfig, run_pipeline
from scenedistill.selector import AdaptiveSelector, SelectorConfig
from scenedistill.simstream import (
    OracleNoiseSpec,
    SceneSpec,
    StreamConfig,
    attach_oracle,
    generate_stream,
    scene_change_frames,
)

GRID = GridShape(s=6, c=4)
STREAM_CFG = StreamConfig(grid=GRID, feature_dim=12, transition_len=4)
QUIET_NOISE = OracleNoiseSpec(
    empty_cell_noise_rate=0.15,
    noise_logit_range=(-2.0, -0.4),
    box_jitter_sigma=0.002,
    noise_wobble=0.02,
    class_flip_prob=0.02,
)
TUNED_DISTILL = DistillConfig(lam=0.4, lr=0.05, steps_per_event=10)


def announce(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def base_pipe(seed, **kw):
    cfg = dict(seed=seed, mode="sequential", selector="adaptive", distill=TUNED_DISTILL,
               selector_cfg=SelectorConfig(), oracle_noise=QUIET_NOISE, decoder_hidden=32)
    cfg.update(kw)
    return PipelineConfig(**cfg)


def score(report, stream, seed, eval_cfg, iou=0.5):
    gt = ground_truth_for(stream, GRID, eval_cfg, QUIET_NOISE, seed)
    return evaluate_frames(report.detections, gt, iou)


class TestCriterion1LossCorrectness:
    def test_loss_identities_and_gradients(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(0)

        # zero loss on identical tensors
        tensor = rng.normal(0, 2, size=(GRID.s, GRID.s, GRID.channels))
        zero = bounded_distill_loss(tensor.copy(), tensor, DistillConfig(lam=0.4))
        assert zero == 0.0

        # low-partition identity on 1000 random tensor pairs, within 1e-10
        worst = 0.0
        for _ in range(1000):
            lam = float(rng.uniform(0, 1))
            cfg = DistillConfig(lam=lam)
            student = rng.normal(0, 2, size=(GRID.s, GRID.s, GRID.channels))
            oracle = rng.normal(0, 2, size=(GRID.s, GRID.s, GRID.channels))
            from scenedistill.detection import partition_cells
            _, low = partition_cells(oracle, cfg.gate)
            target = compose_target(student, oracle, cfg)
            direct = float(np.mean((student[low] - target[low]) ** 2)) if low.any() else 0.0
            identity = (1 - lam) ** 2 * (float(np.mean((student[low] - oracle[low]) ** 2))
                                         if low.any() else 0.0)
            worst = max(worst, abs(direct - identity))
        assert worst < 1e-10

        # decoder-parameter gradients of the gated loss vs central differences
        small = GridShape(s=3, c=2)
        cfg = DistillConfig(lam=0.4)
        max_rel = 0.0
        for seed in (1, 2):
            params = init_decoder(4, 5, small, seed=seed, scale=0.5)
            feat = rng.normal(0, 1, size=(3, 3, 4))
            oracle = rng.normal(0, 1, size=(3, 3, small.channels))
            # the gradient distill_step applies: one step at a tiny lr
            lr = 1e-4
            stepped, _ = distill_step(params, feat, oracle,
                                      DistillConfig(lam=cfg.lam, lr=lr, steps_per_event=1))
            eps = 1e-5
            for name in ("w1", "b1", "w2", "b2"):
                base = getattr(params, name)
                it = np.nditer(base, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    vals = []
                    for sign in (+1, -1):
                        pert = base.copy()
                        pert[idx] += sign * eps
                        p2 = DecoderParams(**{**{k: getattr(params, k)
                                                 for k in ("w1", "b1", "w2", "b2")}, name: pert})
                        vals.append(bounded_distill_loss(decoder_forward(p2, feat), oracle, cfg))
                    numeric = (vals[0] - vals[1]) / (2 * eps)
                    analytic = (base[idx] - getattr(stepped, name)[idx]) / lr
                    rel = abs(analytic - numeric) / max(abs(numeric), 1e-6)
                    max_rel = max(max_rel, rel)
        elapsed = time.perf_counter() - t0
        ok = worst < 1e-10 and max_rel < 1e-4 and elapsed < 10
        announce(1, ok, f"identity worst={worst:.2e} (<1e-10), grad rel={max_rel:.2e} (<1e-4), "
                        f"runtime {elapsed:.1f}s (<10s)")
        assert max_rel < 1e-4
        assert elapsed < 10


class TestCriterion2SelectorStateMachine:
    def test_trajectories_suppression_and_rate(self):
        t0 = time.perf_counter()
        summary_dim = 2 * STREAM_CFG.feature_dim

        def selector(p_init, tau=0, bias=20.0, seed=0):
            sel = AdaptiveSelector(summary_dim, SelectorConfig(p_init=p_init, tau=tau), seed=seed)
            sel.lstm.b_out = bias
            return sel

        features = np.zeros((2, 2, STREAM_CFG.feature_dim))

        def fire_and_feed(sel, delta_l):
            d = sel.decide(0, features, np.zeros(summary_dim))
            assert d.train and d.lstm_vote
            sel.apply_feedback(FeedbackRecord(0, 1.0, 1.0 + delta_l))
            return sel.p

        p1 = fire_and_feed(selector(0.50), -0.2)
        p2 = fire_and_feed(selector(0.05), -0.2)
        p3 = fire_and_feed(selector(0.60), +0.05)
        trajectories_ok = (abs(p1 - 0.45) < 1e-12 and abs(p2 - 0.05) < 1e-12
                           and abs(p3 - 1.0) < 1e-12)

        # tau = 2 suppression over a 10^4-frame decision log
        sel = AdaptiveSelector(summary_dim, SelectorConfig(p_init=0.4, tau=2), seed=3)
        rng = np.random.default_rng(3)
        positives = []
        for i in range(10_000):
            d = sel.decide(i, features, rng.normal(size=summary_dim))
            if d.train:
                positives.append(i)
                sel.apply_feedback(FeedbackRecord(i, 1.0, 1.0 + float(rng.normal(-0.15, 0.1))))
        gaps_ok = bool(positives) and bool((np.diff(positives) > 2).all())

        # Bernoulli floor rate over 10^5 suppression-free draws
        sel = selector(0.05, tau=0, bias=-20.0, seed=11)
        s = np.zeros(summary_dim)
        hits = sum(sel.decide(0, features, s).train for _ in range(100_000))
        rate = hits / 100_000
        rate_ok = abs(rate - 0.05) <= 0.005

        elapsed = time.perf_counter() - t0
        ok = trajectories_ok and gaps_ok and rate_ok and elapsed < 30
        announce(2, ok, f"trajectories {p1:.2f}/{p2:.2f}/{p3:.2f}, min gap "
                        f"{int(np.diff(positives).min())} (>2), rate={rate:.4f} (0.05±0.005), "
                        f"runtime {elapsed:.1f}s (<30s)")
        assert trajectories_ok
        assert gaps_ok
        assert rate_ok
        assert elapsed < 30


def four_scene_stream(seed):
    scenes = [
        SceneSpec(0, (0.7, 0.3, 0.0, 0.0), (2, 4), 0.0, (500, 500)),
        SceneSpec(1, (0.0, 0.6, 0.4, 0.0), (2, 4), 0.0, (500, 500)),
        SceneSpec(2, (0.0, 0.0, 0.5, 0.5), (2, 4), 0.0, (500, 500)),
        SceneSpec(3, (0.4, 0.0, 0.0, 0.6), (2, 4), 0.0, (500, 500)),
    ]
    return generate_stream(scenes, 2000, STREAM_CFG, seed=seed)


class TestCriterion3AdaptationBenefit:
    def test_adaptive_beats_frozen_and_matches_random(self):
        t0 = time.perf_counter()
        seed = 7
        stream = four_scene_stream(seed)
        assert len(scene_change_frames(stream)) == 3
        eval_cfg = EvalConfig(gt_source="oracle_as_gt", iou_thresholds=(0.5,))

        frozen = run_pipeline(stream, GRID, base_pipe(seed, mode="frozen_student"))
        f1_frozen = score(frozen, stream, seed, eval_cfg).f1
        adaptive = run_pipeline(stream, GRID, base_pipe(seed))
        f1_adaptive = score(adaptive, stream, seed, eval_cfg).f1
        rand = run_pipeline(stream, GRID, base_pipe(seed, selector="random", random_prob=0.3))
        f1_random = score(rand, stream, seed, eval_cfg).f1

        gain = f1_adaptive - f1_frozen
        vs_random = f1_adaptive - f1_random
        frac_ok = adaptive.key_fraction <= rand.key_fraction
        elapsed = time.perf_counter() - t0
        ok = gain >= 0.15 and vs_random >= -0.02 and frac_ok and elapsed < 300
        announce(3, ok, f"F1 frozen={f1_frozen:.3f} adaptive={f1_adaptive:.3f} "
                        f"random={f1_random:.3f}; gain={gain:.3f} (>=0.15), "
                        f"vs random={vs_random:+.3f} (>=-0.02), key fraction "
                        f"{adaptive.key_fraction:.3f}<={rand.key_fraction:.3f}, "
                        f"runtime {elapsed:.0f}s (<300s)")
        assert gain >= 0.15
        assert vs_random >= -0.02
        assert frac_ok
        assert elapsed < 300


class TestCriterion4LambdaAblation:
    def test_table3_orderings(self):
        t0 = time.perf_counter()
        seed = 7
        stream = generate_stream(
            [SceneSpec(0, (0.4, 0.3, 0.2, 0.1), (2, 4), 0.0, (10 ** 6, 10 ** 6))],
            1500, STREAM_CFG, seed=seed)
        eval_cfg = EvalConfig(gt_source="oracle_as_gt", iou_thresholds=(0.5,))
        lambdas = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        pipe = base_pipe(seed)
        variants = {f"lam={lam}": replace(pipe, distill=replace(pipe.distill, lam=lam))
                    for lam in lambdas}
        rows = [{"lam": lam, "ap": r["ap@0.5"], "f1": r["f1@0.5"], "tp": r["tp@0.5"],
                 "fp": r["fp@0.5"], "key_frames": r["key_frames"]}
                for lam, r in zip(lambdas, sweep(stream, GRID, variants, eval_cfg))]
        by = {r["lam"]: r for r in rows}
        for r in rows:
            print(f"  lam={r['lam']:.1f} ap={r['ap']:.3f} f1={r['f1']:.3f} "
                  f"tp={r['tp']:5d} fp={r['fp']:5d} keys={r['key_frames']}")

        fp_24 = by[0.2]["fp"] > by[0.4]["fp"]
        tp_84 = by[0.8]["tp"] < by[0.4]["tp"]
        keys_0 = all(by[0.0]["key_frames"] < by[l]["key_frames"] for l in (0.2, 0.4, 0.6, 0.8, 1.0))
        fp_0 = all(by[0.0]["fp"] < by[l]["fp"] for l in (0.2, 0.4, 0.6, 0.8, 1.0))
        elapsed = time.perf_counter() - t0
        ok = fp_24 and tp_84 and keys_0 and fp_0 and elapsed < 600
        announce(4, ok, f"FP(0.2)>FP(0.4): {fp_24} ({by[0.2]['fp']} vs {by[0.4]['fp']}), "
                        f"TP(0.8)<TP(0.4): {tp_84} ({by[0.8]['tp']} vs {by[0.4]['tp']}), "
                        f"lam=0 fewest keys: {keys_0}, lam=0 lowest FP: {fp_0}, "
                        f"runtime {elapsed:.0f}s (<600s)")
        assert tp_84, f"TP at lam=0.8 ({by[0.8]['tp']}) not below lam=0.4 ({by[0.4]['tp']})"
        assert keys_0, "lam=0 did not select the fewest key frames"
        assert fp_0, "lam=0 did not yield the lowest FP count"
        # FP ordering between 0.2 and 0.4: on this seed FP(0.2)/FP(0.4) read
        # 449/452 and now 453/479, since each scene got one oracle noise
        # layout and each frame a counter-keyed generator (the asserts above
        # fail first now: TP(0.8) = TP(0.4) = 5488).  Over stream seeds
        # 1/2/3/4/5/7 the pairs read 100/102, 119/123, 458/450, 123/122,
        # 805/813 and 449/452 before, and 189/135, 145/147, 580/568, 140/143,
        # 474/485 and 453/479 after: the gap goes both ways, and on seed 1 its
        # sign flipped with the oracle's randomness alone, so it is within
        # seed noise.  The synthetic
        # oracle encodes its spurious empty-cell responses below the decode
        # threshold (logit <= -1e-3) and oracle_as_gt scores against the
        # oracle's own decoded detections, so fitting that noise at low lam
        # has no direct path to decoded false positives.  PAPER.md holds only
        # the abstract and Table 3 is not in the repository, so nothing here
        # settles whether the method must show this ordering.
        assert fp_24, (f"FP at lam=0.2 ({by[0.2]['fp']}) not above lam=0.4 ({by[0.4]['fp']}); "
                       "noise-chasing false positives do not emerge under the gated "
                       "tensor loss at desk scale")
        assert elapsed < 600


class TestCriterion5LossCostScaling:
    def test_flat_bounded_vs_growing_nms(self):
        t0 = time.perf_counter()
        rows = bench_loss_cost([1, 10, 25, 50], trials=101, grid=GridShape(s=8, c=4), seed=5)
        by = {r["n_targets"]: r for r in rows}
        ratio = by[50]["bounded_ms"] / by[1]["bounded_ms"]
        increasing = by[1]["nms_ms"] < by[10]["nms_ms"] < by[25]["nms_ms"] < by[50]["nms_ms"]
        elapsed = time.perf_counter() - t0
        ok = ratio <= 1.5 and increasing and elapsed < 60
        announce(5, ok, f"bounded 50/1 ratio={ratio:.2f} (<=1.5), nms ms="
                        f"{[round(by[n]['nms_ms'], 3) for n in (1, 10, 25, 50)]} strictly "
                        f"increasing: {increasing}, runtime {elapsed:.1f}s (<60s)")
        assert ratio <= 1.5
        assert increasing
        assert elapsed < 60


class TestCriterion6Parallelism:
    TRIPLES = 15  # odd, so the median ratio is one measured triple

    def test_parallel_hides_oracle_cost(self, tmp_path):
        t0 = time.perf_counter()
        seed = 5
        stream = generate_stream(
            [SceneSpec(0, (0.4, 0.3, 0.2, 0.1), (2, 4), 0.002, (10 ** 6, 10 ** 6))],
            1200, STREAM_CFG, seed=seed)
        attach_oracle(stream, QUIET_NOISE, GRID, seed)
        light = DistillConfig(lam=0.4, lr=0.05, steps_per_event=2)
        ckpt = str(tmp_path / "adapted.ckpt")

        def cfg(mode, **kw):
            return base_pipe(seed, mode=mode, distill=light, decoder_hidden=16, **kw)

        def timed_run(mode, **kw):
            # Keep only the figures: retained reports would grow the heap that
            # later runs' garbage collections have to scan.
            r = run_pipeline(stream, GRID, cfg(mode, init_checkpoint=ckpt, **kw))
            return (r.fps, sum(len(d) for d in r.detections) / r.n_frames,
                    float(np.median(r.latencies)), r.key_fraction)

        # Adapt once, then start every timed run from that checkpoint, so that
        # the frozen baseline does the parallel run's detection work (see the
        # module docstring).
        run_pipeline(stream, GRID, cfg("sequential", selector="periodic", period=4,
                                       checkpoint_out=ckpt))

        # A run lasts a fraction of a second and whole-machine speed drifts
        # between runs, so interleave the modes, keep each frozen run next to
        # the parallel run it is compared with, and assert on median ratios.
        # Each triple's oracle delay is 10x its own frozen run's median latency.
        frozen, par, seq = [], [], []
        for _ in range(self.TRIPLES):
            frozen.append(timed_run("frozen_student"))
            keyed = dict(selector="periodic", period=4, oracle_delay=10 * frozen[-1][2])
            par.append(timed_run("parallel", **keyed))
            seq.append(timed_run("sequential", **keyed))
        frozen_fps, frozen_dets, frozen_p50, _ = zip(*frozen)
        par_fps, par_dets, _, par_keys = zip(*par)
        delay = 10 * float(np.median(frozen_p50))
        seq_fps = [s[0] for s in seq]
        seq_ratios = [s / f for s, f in zip(seq_fps, frozen_fps)]
        par_ratios = [p / f for p, f in zip(par_fps, frozen_fps)]
        seq_ratio = float(np.median(seq_ratios))
        par_ratio = float(np.median(par_ratios))
        frozen_dpf = float(np.mean(frozen_dets))
        par_dpf = float(np.mean(par_dets))
        same_work = abs(par_dpf - frozen_dpf) <= 0.1 * frozen_dpf
        elapsed = time.perf_counter() - t0
        ok = seq_ratio <= 0.5 and par_ratio >= 0.8 and same_work and elapsed < 120
        announce(6, ok, f"frozen={np.median(frozen_fps):.0f} fps, "
                        f"median oracle delay={delay * 1e3:.2f}ms, key rate={np.mean(par_keys):.2f}, "
                        f"detections/frame frozen={frozen_dpf:.2f} parallel={par_dpf:.2f} "
                        f"(within 10%); median of {self.TRIPLES} triples: sequential "
                        f"ratio={seq_ratio:.3f} (<=0.5) {[round(r, 2) for r in seq_ratios]}, "
                        f"parallel ratio={par_ratio:.3f} (>=0.8) "
                        f"{[round(r, 2) for r in par_ratios]}, runtime {elapsed:.0f}s (<120s)")
        assert same_work, (f"frozen baseline emits {frozen_dpf:.2f} detections/frame, parallel "
                           f"{par_dpf:.2f}: the runs do not do the same detection work")
        assert seq_ratio <= 0.5
        # What parallel mode still pays is not the oracle, whose delay the
        # frame loop only schedules, but each trained event's distill_step,
        # run at the first frame boundary or key-frame hand-off after its
        # answer is due.  Over 10
        # standalone runs on a 2-vCPU VM the ratio read 0.824-0.914 (median
        # 0.861), against 0.714-0.882 (median 0.814) while a worker thread
        # waited out the oracle and a second, frozen head was also decoded.
        assert par_ratio >= 0.8, (f"parallel FPS ratio {par_ratio:.3f} < 0.8 "
                                  "(parallel mode pays part of the oracle and distillation cost)")
        assert elapsed < 120


class TestCriterion7Adaptivity:
    def test_static_scene_selection_decays(self):
        t0 = time.perf_counter()
        seed = 7
        stream = generate_stream(
            [SceneSpec(0, (0.4, 0.3, 0.2, 0.1), (2, 4), 0.0, (10 ** 6, 10 ** 6))],
            1200, STREAM_CFG, seed=seed)
        report = run_pipeline(stream, GRID, base_pipe(seed))
        hist = keyframe_histogram(report, 50)
        q = len(hist) // 4
        first, last = float(np.mean(hist[:q])), float(np.mean(hist[-q:]))
        elapsed = time.perf_counter() - t0
        ok = last < first and elapsed < 180
        announce("7a", ok, f"key frames per bin: first quartile {first:.1f}, last quartile "
                           f"{last:.1f} (must decrease), runtime {elapsed:.0f}s (<180s)")
        assert last < first
        assert elapsed < 180

    def test_key_frames_spike_after_scene_changes(self):
        t0 = time.perf_counter()
        seed = 7
        probs = np.full((4, 4), 0.1) + np.eye(4) * 0.6
        scenes = [SceneSpec(i, tuple(probs[i]), (2, 4), 0.002, (60, 60)) for i in range(4)]
        stream = generate_stream(scenes, 900, STREAM_CFG, seed=seed)
        changes = scene_change_frames(stream)
        report = run_pipeline(stream, GRID, base_pipe(seed))
        keys = {d["frame_id"] for d in report.decisions if d["train"]}
        hits = sum(1 for ch in changes if any(f in keys for f in range(ch, ch + 6)))
        rate = hits / len(changes)
        elapsed = time.perf_counter() - t0
        ok = rate >= 0.75 and elapsed < 180
        announce("7b", ok, f"{hits}/{len(changes)} scene changes answered with a key frame "
                           f"within 5 frames ({rate:.0%} >= 75%), runtime {elapsed:.0f}s (<180s)")
        assert rate >= 0.75
        assert elapsed < 180


class TestCriterion8Transfer:
    def test_adapted_decoder_transfers_to_fresh_stream(self, tmp_path):
        t0 = time.perf_counter()
        spec = SceneSpec(0, (0.5, 0.3, 0.2, 0.0), (2, 4), 0.02, (40, 70))
        stream_a = generate_stream([spec], 2000, STREAM_CFG, seed=31)
        stream_b = generate_stream([spec], 600, STREAM_CFG, seed=77)
        ckpt = str(tmp_path / "adapted.ckpt")

        run_pipeline(stream_a, GRID, base_pipe(31, checkpoint_out=ckpt))
        transferred = run_pipeline(stream_b, GRID, base_pipe(
            31, mode="frozen_student", init_checkpoint=ckpt))
        baseline = run_pipeline(stream_b, GRID, base_pipe(31, mode="frozen_student"))

        eval_cfg = EvalConfig(gt_source="true_gt", iou_thresholds=(0.5,))
        gt = ground_truth_for(stream_b, GRID, eval_cfg)
        f1_transfer = evaluate_frames(transferred.detections, gt, 0.5).f1
        f1_baseline = evaluate_frames(baseline.detections, gt, 0.5).f1
        elapsed = time.perf_counter() - t0
        ok = f1_transfer >= f1_baseline + 0.01 and elapsed < 180
        announce(8, ok, f"frozen baseline F1={f1_baseline:.3f}, adapted-and-frozen "
                        f"F1={f1_transfer:.3f} (needs +0.01), runtime {elapsed:.0f}s (<180s)")
        assert f1_transfer >= f1_baseline + 0.01
        assert elapsed < 180
