"""README.md names only what exists: every backticked dotted name resolves
as code, as a config key or as a benchmark metric."""

import dataclasses
import importlib
import json
import pkgutil
import re
from pathlib import Path

import scenedistill
from scenedistill.distill import DistillConfig
from scenedistill.evaluate import EvalConfig
from scenedistill.pipeline import PipelineConfig
from scenedistill.selector import SelectorConfig
from scenedistill.simstream import OracleNoiseSpec, StreamConfig

ROOT = Path(__file__).resolve().parent.parent

# a config file's sections and the dataclass each one fills
CONFIG_SECTIONS = {"pipeline": PipelineConfig, "distill": DistillConfig,
                   "selector_cfg": SelectorConfig, "noise": OracleNoiseSpec,
                   "stream": StreamConfig, "eval": EvalConfig}

ALLOWED = {
    "PAPER.md",                 # a file of the repository
    "rng.normal",               # a local generator's method, in a quoted call
    "ndarray.dot",              # numpy's array method, which no module imports by name
    "pipeline.conf_threshold",  # cited as a key that a config may not set
}


def dotted_names(text: str) -> set[str]:
    """The dotted names that open the backticked spans of markdown text,
    fenced code blocks left out: `a.b` and `a.b(x)` both name a.b."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    spans = re.findall(r"`([^`]+)`", text)
    return {m.group() for m in map(re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+").match, spans)
            if m}


def resolves_as_code(name: str, modules: dict) -> bool:
    """name is a scenedistill module, or an attribute of one, followed by
    attributes: detection.iou, AdaptiveSelector._vote, np.clip."""
    head, *rest = name.split(".")
    owners = [modules[head]] if head in modules else [
        getattr(m, head) for m in modules.values() if hasattr(m, head)]
    for obj in owners:
        for attr in rest:
            if not hasattr(obj, attr):
                break
            obj = getattr(obj, attr)
        else:
            return True
    return False


def unresolved(text: str) -> list[str]:
    modules = {m.name: importlib.import_module(f"scenedistill.{m.name}")
               for m in pkgutil.iter_modules(scenedistill.__path__)}
    config_keys = {f"{section}.{f.name}" for section, cls in CONFIG_SECTIONS.items()
                   for f in dataclasses.fields(cls)}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    return sorted(n for n in dotted_names(text)
                  if n not in config_keys | metrics | ALLOWED and not resolves_as_code(n, modules))


def test_readme_names_resolve():
    text = (ROOT / "README.md").read_text()
    assert len(dotted_names(text)) > 30  # the scan still finds the README's names
    assert unresolved(text) == []


def test_a_deleted_name_is_caught():
    assert unresolved("`detection.ParamStore`, `pipeline.seed` and `detection.iou`") == [
        "detection.ParamStore"]
