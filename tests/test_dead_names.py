"""Every name the package defines is used: each module-level function, class
and constant, and each method that is not a dunder, is named in src/ or
perfbench/ outside its own definition, or is kept below."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORD = re.compile(r"\w+")

# names that only the tests or outside tools read
KEPT = {
    "__init__.__all__",               # read by `import *` and by tools
    "distill.compose_target",         # criterion 1's reference for the gated loss
    "evaluate.keyframe_histogram",    # criterion 7 measures with it
    "simstream.scene_change_frames",  # criteria 3 and 7 measure with it
}


def _span(node) -> tuple[int, int]:
    """The first and last line of a definition, its decorators included."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    return first, node.end_lineno


def definitions(tree: ast.Module):
    """(name, first line, last line) of each module-level function, class
    and assigned name, and of each non-dunder method, as Class.method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield (node.name, *_span(node))
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and not re.fullmatch(r"__\w+__", m.name):
                    yield (f"{node.name}.{m.name}", *_span(m))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield (n.id, *_span(node))


def dead_names(package: dict[str, str], others: list[str]) -> list[str]:
    """module.name of each definition in package, module name to source,
    whose name appears in no source, package or others, but in its own
    definition."""
    counts = Counter(w for text in [*package.values(), *others] for w in WORD.findall(text))
    dead = []
    for module, text in package.items():
        lines = text.splitlines()
        for name, first, last in definitions(ast.parse(text)):
            word = name.rsplit(".", 1)[-1]
            if counts[word] == WORD.findall("\n".join(lines[first - 1:last])).count(word):
                dead.append(f"{module}.{name}")
    return sorted(dead)


def sources() -> tuple[dict[str, str], list[str]]:
    package = {p.stem: p.read_text() for p in sorted((ROOT / "src" / "scenedistill").glob("*.py"))}
    return package, [p.read_text() for p in sorted((ROOT / "perfbench").rglob("*.py"))]


def test_every_defined_name_is_used():
    assert dead_names(*sources()) == sorted(KEPT)


def test_a_dead_method_is_caught():
    package, others = sources()
    channels = "    @property\n    def channels(self)"
    n_values = "    @property\n    def n_values(self) -> int:\n        return self.s * self.s\n\n"
    assert package["detection"].count(channels) == 1
    package["detection"] = package["detection"].replace(channels, n_values + channels)
    assert dead_names(package, others) == sorted(KEPT | {"detection.GridShape.n_values"})
