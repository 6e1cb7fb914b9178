"""Compare key-frame selection strategies on one multi-scene stream.

Runs the frozen student, the adaptive selector, a random selector, and a
scene-change selector over the same seeded stream and prints F1/AP against
the oracle's own detections at several IOU thresholds, plus key-frame usage.
"""

import argparse

from scenedistill.detection import GridShape
from scenedistill.distill import DistillConfig
from scenedistill.evaluate import EvalConfig, evaluate_thresholds, ground_truth_for
from scenedistill.pipeline import PipelineConfig, run_pipeline
from scenedistill.selector import SelectorConfig
from scenedistill.simstream import OracleNoiseSpec, SceneSpec, StreamConfig, generate_stream

GRID = GridShape(s=6, c=4)
NOISE = OracleNoiseSpec(empty_cell_noise_rate=0.15, noise_logit_range=(-2.0, -0.4),
                        box_jitter_sigma=0.002, noise_wobble=0.02, class_flip_prob=0.02)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--frames", type=int, default=2000)
    ap.add_argument("--random-prob", type=float, default=0.3)
    ap.add_argument("--lr", type=float, default=0.05)
    ap.add_argument("--steps", type=int, default=10)
    args = ap.parse_args()

    cfg = StreamConfig(grid=GRID, feature_dim=12, transition_len=4)
    quarter = args.frames // 4
    scenes = [
        SceneSpec(0, (0.7, 0.3, 0.0, 0.0), (2, 4), 0.0, (quarter, quarter)),
        SceneSpec(1, (0.0, 0.6, 0.4, 0.0), (2, 4), 0.0, (quarter, quarter)),
        SceneSpec(2, (0.0, 0.0, 0.5, 0.5), (2, 4), 0.0, (quarter, quarter)),
        SceneSpec(3, (0.4, 0.0, 0.0, 0.6), (2, 4), 0.0, (quarter, quarter)),
    ]
    stream = generate_stream(scenes, args.frames, cfg, seed=args.seed)
    eval_cfg = EvalConfig(gt_source="oracle_as_gt", iou_thresholds=(0.5, 0.6, 0.75))

    def pipe(**kw):
        base = dict(seed=args.seed, mode="sequential",
                    distill=DistillConfig(lam=0.4, lr=args.lr, steps_per_event=args.steps),
                    selector_cfg=SelectorConfig(), oracle_noise=NOISE, decoder_hidden=32)
        base.update(kw)
        return PipelineConfig(**base)

    runs = {
        "frozen": pipe(mode="frozen_student"),
        "adaptive": pipe(selector="adaptive"),
        f"random({args.random_prob})": pipe(selector="random", random_prob=args.random_prob),
        # threshold in backbone-feature space, at the frame-noise floor so the
        # detector fires broadly; transitions are blended over several frames,
        # which is exactly what makes this baseline blunt
        "scene_change": pipe(selector="scene_change", change_threshold=0.047),
    }
    gt_frames = ground_truth_for(stream, GRID, eval_cfg, NOISE, args.seed)
    header = f"{'selector':<14} {'keys':>6} {'fps':>7}"
    for thr in eval_cfg.iou_thresholds:
        header += f"  AP@{thr:<4g} F1@{thr:<4g}"
    print(header)
    for name, p in runs.items():
        report = run_pipeline(stream, GRID, p)
        row = f"{name:<14} {report.key_fraction:6.3f} {report.fps:7.0f}"
        for m in evaluate_thresholds(report.detections, gt_frames, eval_cfg.iou_thresholds):
            row += f"  {m.mean_ap:6.3f} {m.f1:6.3f}"
        print(row)


if __name__ == "__main__":
    main()
