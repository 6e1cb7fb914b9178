"""Command-line interface: config handling, subcommands, exit codes."""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from scenedistill.cli import main
from scenedistill.simstream import OracleNoiseSpec, oracle_for_frame, read_trace


def base_config(**overrides):
    cfg = {
        "seed": 11,
        "stream": {
            "grid": {"s": 4, "c": 3},
            "feature_dim": 8,
            "n_frames": 60,
            "scenes": [
                {"scene_id": 0, "class_probs": [0.6, 0.4, 0.0],
                 "object_count_range": [2, 3], "duration_range": [30, 40]},
                {"scene_id": 1, "class_probs": [0.0, 0.3, 0.7],
                 "object_count_range": [2, 3], "duration_range": [30, 40]},
            ],
        },
        "pipeline": {"mode": "sequential", "selector": "adaptive"},
        "eval": {"iou_thresholds": [0.5], "gt_source": "oracle_as_gt"},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestGenerate:
    def test_writes_readable_trace(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        out = str(tmp_path / "trace.jsonl")
        assert main(["generate", "--config", cfg_path, "--out", out]) == 0
        stream, grid, d = read_trace(out)
        assert len(stream) == 60
        assert (grid.s, grid.c, d) == (4, 3, 8)
        printed = capsys.readouterr().out
        assert "60 frames" in printed
        assert "objects per class" in printed

    def test_missing_seed_names_field(self, tmp_path, capsys):
        cfg = base_config()
        del cfg["seed"]
        cfg_path = write_config(tmp_path, cfg)
        rc = main(["generate", "--config", cfg_path, "--out", str(tmp_path / "t.jsonl")])
        assert rc == 1
        assert "seed" in capsys.readouterr().err

    def test_same_config_byte_identical_traces(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out1, out2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        assert main(["generate", "--config", cfg_path, "--out", out1]) == 0
        assert main(["generate", "--config", cfg_path, "--out", out2]) == 0
        h1 = hashlib.sha256(Path(out1).read_bytes()).hexdigest()
        h2 = hashlib.sha256(Path(out2).read_bytes()).hexdigest()
        assert h1 == h2


    def test_attached_oracle_uses_run_oracle_seed(self, tmp_path):
        cfg = base_config(pipeline={"mode": "sequential", "oracle_seed": 5},
                          noise={"class_flip_prob": 0.1}, attach_oracle=True)
        out = str(tmp_path / "trace.jsonl")
        assert main(["generate", "--config", write_config(tmp_path, cfg), "--out", out]) == 0
        stream, grid, _ = read_trace(out)
        noise = OracleNoiseSpec(class_flip_prob=0.1)
        for rec in stream:
            want = oracle_for_frame(replace(rec, oracle_tensor=None), noise, grid, 5)
            assert np.array_equal(rec.oracle_tensor, want)


class TestRun:
    def test_frozen_student_zero_key_fraction(self, tmp_path, capsys):
        cfg = base_config(pipeline={"mode": "frozen_student"})
        cfg_path = write_config(tmp_path, cfg)
        report_path = str(tmp_path / "report.json")
        assert main(["run", "--config", cfg_path, "--out", report_path]) == 0
        printed = capsys.readouterr().out
        assert "key_fraction=0.000" in printed
        report = json.loads(Path(report_path).read_text())
        assert report["key_fraction"] == 0.0

    def test_oracle_only_self_evaluation_is_perfect(self, tmp_path, capsys):
        cfg = base_config(pipeline={"mode": "mixed", "p_oracle": 1.0})
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path]) == 0
        assert "f1@0.5=1.000" in capsys.readouterr().out

    def test_run_from_trace(self, tmp_path, capsys):
        gen_cfg = write_config(tmp_path, base_config())
        trace = str(tmp_path / "trace.jsonl")
        assert main(["generate", "--config", gen_cfg, "--out", trace]) == 0
        run_cfg = base_config()
        del run_cfg["stream"]
        run_cfg["trace"] = trace
        cfg_path = write_config(tmp_path, run_cfg, "run.json")
        assert main(["run", "--config", cfg_path]) == 0
        assert "frames=60" in capsys.readouterr().out

    def test_stream_and_trace_together_rejected(self, tmp_path, capsys):
        cfg = base_config(trace="whatever.jsonl")
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path]) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_paired_runs_for_selector_comparison(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        assert main(["run", "--config", cfg_path, "--set", "pipeline.selector=adaptive"]) == 0
        assert main(["run", "--config", cfg_path, "--set", "pipeline.selector=random",
                     "--set", "pipeline.random_prob=0.27"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "selector=adaptive" in out[0]
        assert "selector=random" in out[1]

    def test_flag_override_wins_over_file(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        assert main(["run", "--config", cfg_path, "--set", "pipeline.mode=frozen_student"]) == 0
        assert "mode=frozen_student" in capsys.readouterr().out


class TestSweep:
    def test_six_value_sweep_table(self, tmp_path, capsys):
        cfg = base_config()
        cfg["stream"]["n_frames"] = 40
        lambdas = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        cfg["sweep"] = [[f"distill.lam={lam}"] for lam in lambdas]
        cfg_path = write_config(tmp_path, cfg)
        out = str(tmp_path / "table.json")
        assert main(["sweep", "--config", cfg_path, "--out", out]) == 0
        rows = json.loads(Path(out).read_text())
        assert [r["variant"] for r in rows] == [f"distill.lam={lam}" for lam in lambdas]
        header = capsys.readouterr().out.splitlines()[0]
        assert "variant" in header and "fp@0.5" in header

    def test_malformed_config_no_partial_table(self, tmp_path, capsys):
        cfg_path = tmp_path / "broken.json"
        cfg_path.write_text("{not json")
        out = tmp_path / "table.json"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("override", [
        "stream.n_frames=30", "trace=other.jsonl", "seed=3", "eval.iou_thresholds=[0.6]"])
    def test_variant_outside_run_settings_rejected(self, tmp_path, capsys, override):
        cfg = base_config(sweep=[["distill.lam=0.2"], ["pipeline.selector=random", override]])
        out = tmp_path / "table.json"
        assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert repr(override.split("=")[0]) in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("variants", [
        None, [], ["distill.lam=0.2"], [["distill.lam=0.2"], [0.2]],
        [["distill.lam=0.2"], ["distill.lam=0.2"]]])
    def test_malformed_sweep_list_rejected(self, tmp_path, capsys, variants):
        cfg = base_config() if variants is None else base_config(sweep=variants)
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 1
        assert "sweep" in capsys.readouterr().err


class TestBench:
    def test_four_row_table(self, tmp_path, capsys):
        cfg = {"seed": 1, "bench": {"target_counts": [1, 10, 25, 50], "trials": 3,
                                    "grid": {"s": 8, "c": 4}}}
        cfg_path = write_config(tmp_path, cfg)
        out = str(tmp_path / "bench.json")
        assert main(["bench", "--config", cfg_path, "--out", out]) == 0
        rows = json.loads(Path(out).read_text())
        assert [r["n_targets"] for r in rows] == [1, 10, 25, 50]


class TestDocumentedConfigs:
    """Every config under configs/ stays runnable through the CLI (shrunk here)."""

    CONFIGS = Path(__file__).resolve().parent.parent / "configs"
    RUNS = {
        "sweep_blend.json": ["sweep", "--set", "stream.n_frames=40",
                             "--set", 'sweep=[["distill.lam=0.0"], ["distill.lam=1.0"]]'],
        "compare_selectors.json": ["sweep", "--set", "stream.n_frames=200"],
        "bench_losses.json": ["bench", "--set", "bench.trials=2",
                              "--set", "bench.target_counts=[1, 10]"],
    }

    def run(self, name, tmp_path):
        out = tmp_path / "table.json"
        command, *overrides = self.RUNS[name]
        assert main([command, "--config", str(self.CONFIGS / name), *overrides,
                     "--out", str(out)]) == 0
        return json.loads(out.read_text())

    def test_every_committed_config_is_run(self):
        assert {p.name for p in self.CONFIGS.iterdir()} == set(self.RUNS)

    def test_sweep_blend(self, tmp_path, capsys):
        rows = self.run("sweep_blend.json", tmp_path)
        assert [r["variant"] for r in rows] == ["distill.lam=0.0", "distill.lam=1.0"]
        assert all(r["key_frames"] > 0 for r in rows)

    def test_compare_selectors(self, tmp_path, capsys):
        rows = self.run("compare_selectors.json", tmp_path)
        assert "ap@0.75" in capsys.readouterr().out.splitlines()[0]
        assert [r["variant"] for r in rows] == [
            "pipeline.mode=frozen_student",
            "pipeline.selector=adaptive",
            "pipeline.selector=random pipeline.random_prob=0.3",
            "pipeline.selector=scene_change pipeline.change_threshold=0.047",
        ]
        assert rows[0]["key_frames"] == 0
        assert all(r["key_frames"] > 0 for r in rows[1:])

    def test_bench_losses(self, tmp_path, capsys):
        rows = self.run("bench_losses.json", tmp_path)
        assert [r["n_targets"] for r in rows] == [1, 10]


class TestEvalCommand:
    def test_rescore_report_against_trace(self, tmp_path, capsys):
        cfg = base_config()
        cfg_path = write_config(tmp_path, cfg)
        trace = str(tmp_path / "trace.jsonl")
        assert main(["generate", "--config", cfg_path, "--out", trace]) == 0
        run_cfg = base_config()
        del run_cfg["stream"]
        run_cfg["trace"] = trace
        run_path = write_config(tmp_path, run_cfg, "run.json")
        report_path = str(tmp_path / "report.json")
        assert main(["run", "--config", run_path, "--out", report_path]) == 0
        capsys.readouterr()

        summary_path = str(tmp_path / "summary.json")
        assert main(["eval", "--report", report_path, "--trace", trace,
                     "--config", run_path, "--out", summary_path]) == 0
        printed = capsys.readouterr().out
        assert "iou=0.5" in printed
        summary = json.loads(Path(summary_path).read_text())
        assert summary["per_threshold"][0]["iou"] == 0.5

    def test_rescore_matches_run_with_separate_oracle_seed(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        assert main(["generate", "--config", write_config(tmp_path, base_config()),
                     "--out", trace]) == 0
        # the oracle answers every frame and flips classes, so a score against
        # ground truth from any other oracle seed falls below 1
        run_cfg = base_config(pipeline={"mode": "mixed", "p_oracle": 1.0, "oracle_seed": 5},
                              noise={"class_flip_prob": 0.1})
        del run_cfg["stream"]
        run_cfg["trace"] = trace
        run_path = write_config(tmp_path, run_cfg, "run.json")
        report_path = tmp_path / "report.json"
        assert main(["run", "--config", run_path, "--out", str(report_path)]) == 0
        summary_path = tmp_path / "summary.json"
        assert main(["eval", "--report", str(report_path), "--trace", trace,
                     "--config", run_path, "--out", str(summary_path)]) == 0
        report = json.loads(report_path.read_text())
        assert json.loads(summary_path.read_text()) == report["evaluation"]

    @pytest.mark.parametrize("case", ["missing", "longer_than_trace", "zero_width_box", "short_row"])
    def test_missing_report_is_config_error(self, tmp_path, capsys, case):
        trace = str(tmp_path / "trace.jsonl")
        cfg_path = write_config(tmp_path, base_config(pipeline={"mode": "frozen_student"}))
        assert main(["generate", "--config", cfg_path, "--out", trace]) == 0
        report_path = tmp_path / "report.json"
        if case != "missing":
            assert main(["run", "--config", cfg_path, "--out", str(report_path)]) == 0
            report = json.loads(report_path.read_text())
            if case == "longer_than_trace":
                report["detections"] *= 2
            else:  # a first frame whose one row is no detection
                bad_row = {"zero_width_box": [0.5, 0.5, 0.0, 0.1, 0, 0.9], "short_row": [0.5, 0.5]}
                report["detections"][0] = [bad_row[case]]
            report_path.write_text(json.dumps(report))
        capsys.readouterr()
        assert main(["eval", "--report", str(report_path), "--trace", trace]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        if case == "longer_than_trace":
            assert "120 frames" in captured.err and "only 60" in captured.err
        else:
            assert "cannot load report" in captured.err

    def test_shorter_report_scores_its_prefix(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(pipeline={"mode": "frozen_student"}))
        traces = {n: str(tmp_path / f"trace{n}.jsonl") for n in (60, 30)}
        for n, trace in traces.items():
            assert main(["generate", "--config", cfg_path, "--out", trace,
                         "--set", f"stream.n_frames={n}"]) == 0
        report_path = str(tmp_path / "report.json")
        assert main(["run", "--config", cfg_path, "--out", report_path,
                     "--set", "stream.n_frames=30"]) == 0
        capsys.readouterr()
        printed = []
        for trace in traces.values():
            assert main(["eval", "--report", report_path, "--trace", trace]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]


class TestExitCodes:
    def test_unreadable_config_is_one(self, capsys):
        assert main(["run", "--config", "/does/not/exist.json"]) == 1

    def test_runtime_error_is_two(self, tmp_path, capsys):
        cfg = base_config()
        del cfg["stream"]
        cfg["trace"] = str(tmp_path / "missing-trace.jsonl")
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path]) == 2
