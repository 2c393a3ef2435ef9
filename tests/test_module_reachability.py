"""Every module under ``src/repro`` is reached from an entry point.

The entry points are the experiments CLI, the ``__main__`` modules and
every ``repro.*`` module that a ``bench/*.py`` file names.  From them the
walk follows, with nothing but :mod:`ast`:

* absolute and relative imports (importing ``a.b.c`` also reaches ``a``
  and ``a.b``, as Python does);
* the submodules of each ``lazy_exports`` table;
* ``"repro.x.y:function"`` task strings (:class:`repro.runner.TaskSpec`
  resolves them in a worker);
* the CLI's ``EXPERIMENTS`` table, which the CLI imports by name.

A module that only ``tests/`` (or a demo written for them) reaches is a
second implementation nobody runs; it fails here until it is deleted or
something real uses it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

ENTRY_POINTS = ("repro.experiments.cli", "repro.__main__", "repro.experiments.__main__")

_TASK_STRING = re.compile(r"^(repro(?:\.\w+)+):\w+$")
_MODULE_STRING = re.compile(r"^(repro(?:\.\w+)*)(?::\w+)?$")


def module_index():
    """``{dotted module name: (path, is_package)}`` for ``src/repro``."""
    index = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        is_package = parts[-1] == "__init__"
        if is_package:
            parts = parts[:-1]
        index[".".join(parts)] = (path, is_package)
    return index


def _with_parents(name):
    parts = name.split(".")
    return {".".join(parts[: i + 1]) for i in range(len(parts))}


def _import_targets(tree, package):
    """Modules named by the imports in ``tree``; ``package`` anchors the
    relative ones."""
    targets = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                targets |= _with_parents(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")
                base = base[: len(base) - node.level + 1]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module
            targets |= _with_parents(module)
            # ``from pkg import sub`` imports the submodule ``pkg.sub``
            targets |= {f"{module}.{alias.name}" for alias in node.names}
    return targets


def edges(name, path, is_package):
    tree = ast.parse(path.read_text(), filename=str(path))
    package = name if is_package else name.rpartition(".")[0]
    targets = _import_targets(tree, package)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "lazy_exports"
            and len(node.args) == 2
            and isinstance(node.args[1], ast.Dict)
        ):
            for key in node.args[1].keys:
                targets |= _with_parents(f"{name}.{key.value}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = _TASK_STRING.match(node.value)
            if match:
                targets |= _with_parents(match.group(1))
        elif (
            isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "EXPERIMENTS" for t in node.targets)
            and isinstance(node.value, ast.Dict)
        ):
            for value in node.value.values:
                targets |= _with_parents(f"repro.experiments.{value.value}")
    return targets


def bench_roots():
    """Every ``repro.*`` module a ``bench/*.py`` file imports or names
    in a string."""
    roots = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        roots |= {t for t in _import_targets(tree, "bench") if t.startswith("repro")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                match = _MODULE_STRING.match(node.value)
                if match:
                    roots |= _with_parents(match.group(1))
    return roots


def reached_modules():
    index = module_index()
    frontier = [
        name for name in set(ENTRY_POINTS) | bench_roots() if name in index
    ]
    reached = set(frontier)
    while frontier:
        name = frontier.pop()
        for target in edges(name, *index[name]):
            if target in index and target not in reached:
                reached.add(target)
                frontier.append(target)
    return reached


def test_every_module_is_reached():
    unreached = sorted(set(module_index()) - reached_modules())
    assert unreached == [], (
        "modules no entry point reaches (only tests call them): "
        + ", ".join(unreached)
    )
