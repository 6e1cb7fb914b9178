"""Command-line entry point: generate streams, run pipelines, sweep config
variants, benchmark losses, and re-score stored reports.

All commands read a single JSON config file; selected values can be
overridden on the command line with --set dotted.key=value (overrides win).
A sweep config adds a "sweep" list of variants, each a list of overrides in
the same syntax, applied to a copy of the config for that variant's run.
Exit codes: 0 success, 1 config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from dataclasses import fields as dc_fields

from .detection import GridShape, check_number
from .distill import DistillConfig
from .evaluate import EvalConfig, bench_loss_cost, evaluate_report, sweep
from .pipeline import PipelineConfig, PipelineReport, run_pipeline
from .selector import SelectorConfig
from .simstream import (
    OracleNoiseSpec,
    SceneSpec,
    StreamConfig,
    attach_oracle,
    generate_stream,
    read_trace,
    write_trace,
)


class ConfigError(ValueError):
    pass


SWEEP_SECTIONS = ("pipeline", "distill", "selector_cfg", "noise")


def _coerce(value: str):
    try:
        return json.loads(value)
    except json.JSONDecodeError:
        return value


def _apply_overrides(config: dict, overrides: list[str]) -> dict:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        node = config
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot override through non-object key {part!r}")
        node[parts[-1]] = _coerce(value)
    return config


def _load_config(path: str, overrides: list[str]) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            config = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return _apply_overrides(config, overrides)


def _dataclass_from(cls, data: dict, where: str):
    known = {f.name for f in dc_fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown field(s) {sorted(unknown)} in {where}")
    converted = {}
    for key, value in data.items():
        converted[key] = tuple(value) if isinstance(value, list) else value
    try:
        return cls(**converted)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid {where}: {e}") from e


def _integer(value, name: str, interval: str) -> int:
    """check_number's integer in interval, its ValueError a ConfigError."""
    try:
        return check_number(value, name, interval, integer=True)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _require_seed(config: dict) -> int:
    if "seed" not in config:
        raise ConfigError("config is missing required field 'seed'")
    return _integer(config["seed"], "seed", f"[0, {2**64})")  # PipelineConfig.seed's range


def _stream_from_config(config: dict):
    """Returns (stream, grid, feature_dim) from either a generator spec or a trace."""
    has_stream = "stream" in config
    has_trace = "trace" in config
    if has_stream == has_trace:
        raise ConfigError("config must supply exactly one of 'stream' or 'trace'")
    if has_trace:
        return read_trace(config["trace"])
    seed = _require_seed(config)
    spec = config["stream"]
    for key in ("grid", "scenes", "n_frames"):
        if key not in spec:
            raise ConfigError(f"stream config is missing required field '{key}'")
    grid = _dataclass_from(GridShape, spec["grid"], "stream.grid")
    cfg = _dataclass_from(
        StreamConfig,
        {"grid": grid, **{k: v for k, v in spec.items() if k not in ("grid", "scenes", "n_frames")}},
        "stream",
    )
    scenes = [_dataclass_from(SceneSpec, s, f"stream.scenes[{i}]") for i, s in enumerate(spec["scenes"])]
    n_frames = _integer(spec["n_frames"], "stream.n_frames", "[1, inf)")
    return generate_stream(scenes, n_frames, cfg, seed), grid, cfg.feature_dim


def _pipeline_config(config: dict) -> PipelineConfig:
    seed = _require_seed(config)
    pipe = dict(config.get("pipeline", {}))
    pipe.setdefault("seed", seed)
    if "distill" in config:
        pipe["distill"] = _dataclass_from(DistillConfig, config["distill"], "distill")
    if "selector_cfg" in config:
        pipe["selector_cfg"] = _dataclass_from(SelectorConfig, config["selector_cfg"], "selector_cfg")
    if "noise" in config:
        pipe["oracle_noise"] = _dataclass_from(OracleNoiseSpec, config["noise"], "noise")
    return _dataclass_from(PipelineConfig, pipe, "pipeline")


def _eval_config(config: dict) -> EvalConfig:
    return _dataclass_from(EvalConfig, config.get("eval", {}), "eval")


def cmd_generate(args) -> int:
    config = _load_config(args.config, args.set or [])
    _require_seed(config)
    if "stream" not in config:
        raise ConfigError("generate needs a 'stream' section")
    config.pop("trace", None)
    stream, grid, _ = _stream_from_config(config)
    if config.get("attach_oracle"):
        pipe_cfg = _pipeline_config(config)  # the oracle a run on this config consults
        attach_oracle(stream, pipe_cfg.oracle_noise, grid, pipe_cfg.effective_oracle_seed)
    write_trace(stream, args.out, grid=grid)
    histogram: dict[int, int] = {}
    seen = set()
    for rec in stream:
        for class_id, object_id in rec.gt[:, 4:].astype(int).tolist():
            if object_id not in seen:
                seen.add(object_id)
                histogram[class_id] = histogram.get(class_id, 0) + 1
    print(f"wrote {len(stream)} frames to {args.out}")
    print("objects per class: " + json.dumps({str(k): v for k, v in sorted(histogram.items())}))
    return 0


def cmd_run(args) -> int:
    config = _load_config(args.config, args.set or [])
    _require_seed(config)
    stream, grid, _ = _stream_from_config(config)
    pipe_cfg = _pipeline_config(config)
    eval_cfg = _eval_config(config)
    report = run_pipeline(stream, grid, pipe_cfg)
    summary = evaluate_report(report, stream, grid, eval_cfg, pipe_cfg.oracle_noise,
                              pipe_cfg.effective_oracle_seed)
    out = args.out or config.get("report_out")
    if out:
        with open(out, "w", encoding="utf-8") as f:
            json.dump(report.to_dict(), f)
    f1 = summary.per_threshold[0].f1
    print(f"mode={report.mode} selector={report.selector} frames={report.n_frames} "
          f"fps={report.fps:.1f} key_fraction={report.key_fraction:.3f} "
          f"f1@{summary.per_threshold[0].iou:g}={f1:.3f}")
    if report.error:
        print(f"run aborted: {report.error}", file=sys.stderr)
        return 2
    return 0


def cmd_sweep(args) -> int:
    config = _load_config(args.config, args.set or [])
    variants_cfg = config.get("sweep")
    if not (isinstance(variants_cfg, list) and variants_cfg
            and all(isinstance(v, list) and all(isinstance(o, str) for o in v)
                    for v in variants_cfg)):
        raise ConfigError("sweep needs a non-empty 'sweep' list of override lists")
    variants = {}
    for overrides in variants_cfg:
        for item in overrides:
            key = item.split("=", 1)[0]
            # the stream and the scoring are shared by every variant
            if key.split(".", 1)[0] not in SWEEP_SECTIONS:
                raise ConfigError(f"sweep variant sets {key!r}; variants may only set keys "
                                  f"under {', '.join(SWEEP_SECTIONS)}")
        name = " ".join(overrides) or "base"
        if name in variants:
            raise ConfigError(f"sweep variant {name!r} appears twice")
        variants[name] = _pipeline_config(_apply_overrides(copy.deepcopy(config), overrides))
    stream, grid, _ = _stream_from_config(config)
    rows = sweep(stream, grid, variants, _eval_config(config))
    _emit_table(rows, list(rows[0]), args.out)
    return 0


def cmd_bench(args) -> int:
    config = _load_config(args.config, args.set or [])
    seed = _require_seed(config)
    bench = config.get("bench", {})
    counts = bench.get("target_counts", [1, 10, 25, 50])
    trials = _integer(bench.get("trials", 50), "bench.trials", "[1, inf)")
    grid = _dataclass_from(GridShape, bench.get("grid", {"s": 8, "c": 4}), "bench.grid")
    if not (isinstance(counts, list) and counts):
        raise ConfigError(f"bench.target_counts must be a non-empty list, got {counts!r}")
    counts = [_integer(n, "bench.target_counts", f"[0, {grid.s * grid.s}]") for n in counts]
    rows = bench_loss_cost(counts, trials, grid, seed=seed)
    _emit_table(rows, ["n_targets", "bounded_ms", "nms_ms"], args.out)
    return 0


def cmd_eval(args) -> int:
    config = _load_config(args.config, args.set or []) if args.config else {}
    try:
        with open(args.report, "r", encoding="utf-8") as f:
            report = PipelineReport.from_dict(json.load(f))
    except (OSError, ValueError, LookupError, TypeError) as e:  # JSONDecodeError is a ValueError
        raise ConfigError(f"cannot load report {args.report}: {e}") from e
    stream, grid, _ = read_trace(args.trace)
    eval_cfg = _eval_config(config)
    pipe_cfg = _pipeline_config({"seed": 0, **config})  # seed is optional here
    try:
        summary = evaluate_report(report, stream, grid, eval_cfg, pipe_cfg.oracle_noise,
                                  pipe_cfg.effective_oracle_seed)
    except ValueError as e:
        raise ConfigError(f"cannot score report {args.report} against trace {args.trace}: {e}") from e
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(summary.to_dict(), f)
    for m in summary.per_threshold:
        print(f"iou={m.iou:g} ap={m.mean_ap:.3f} f1={m.f1:.3f} tp={m.tp} fp={m.fp} fn={m.fn}")
    return 0


def _emit_table(rows: list[dict], columns: list[str], out: str | None) -> None:
    widths = {c: max(len(c), *(len(_fmt(r[c])) for r in rows)) for c in columns}
    header = "  ".join(c.rjust(widths[c]) for c in columns)
    print(header)
    for row in rows:
        print("  ".join(_fmt(row[c]).rjust(widths[c]) for c in columns))
    if out:
        with open(out, "w", encoding="utf-8") as f:
            json.dump(rows, f, indent=2)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="scenedistill",
        description="Streaming detection with online scene-adaptive distillation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {  # name: (handler, help, --out's help)
        "generate": (cmd_generate, "generate a synthetic stream and write a trace file", None),
        "run": (cmd_run, "run a configured pipeline and report metrics",
                "write the full run report (JSON) here"),
        "sweep": (cmd_sweep, "run one stream under each config variant and tabulate metrics",
                  "write the table (JSON) here"),
        "bench": (cmd_bench, "benchmark loss cost vs number of targets",
                  "write the table (JSON) here"),
        "eval": (cmd_eval, "re-score a stored report against a trace",
                 "write the summary (JSON) here"),
    }
    for name, (func, help_text, out_help) in commands.items():
        p = sub.add_parser(name, help=help_text)
        if name == "eval":
            p.add_argument("--report", required=True)
            p.add_argument("--trace", required=True)
            p.add_argument("--config", help="optional config for eval settings")
        else:
            p.add_argument("--config", required=True)
        p.add_argument("--out", required=name == "generate", help=out_help)
        p.add_argument("--set", action="append", metavar="KEY=VALUE")
        p.set_defaults(func=func)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failures keep a distinct exit code
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
