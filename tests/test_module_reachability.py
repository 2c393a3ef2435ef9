"""Every module and every public top-level name under ``src/repro`` is
reached from something that runs.

Modules.  The entry points are the experiments CLI, the ``__main__``
modules and every ``repro.*`` module that a ``bench/*.py`` file names.
From them the walk follows, with nothing but :mod:`ast`:

* absolute and relative imports (importing ``a.b.c`` also reaches ``a``
  and ``a.b``, as Python does);
* a ``lazy_exports`` table entry, only when a reached module uses one
  of that entry's names through its package (``from repro.net import
  RedQueue`` or ``repro.net.RedQueue``): the table alone imports nothing;
* ``"repro.x.y:function"`` task strings (:class:`repro.runner.TaskSpec`
  resolves them in a worker);
* the CLI's ``EXPERIMENTS`` table, which the CLI imports by name.

Names.  Every public top-level ``def``/``class`` must be referred to by
an ast ``Name``, ``Attribute`` or import alias, or named in a task
string: in ``src/repro`` outside its own body (a lazy table's strings do
not count), or in ``bench/*.py`` or ``scripts/*.py``.  Names match by
identifier, so this is a floor: a name another module happens to share
passes.

What only ``tests/`` (or a demo written for them) reaches is a second
implementation nobody runs; it fails here until it is deleted, something
real uses it, or :data:`KEPT` names it with a reason.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

ENTRY_POINTS = ("repro.experiments.cli", "repro.__main__", "repro.experiments.__main__")

#: Modules (and every name in them) or single ``module.name`` entries that
#: stay although nothing that runs reaches them, each with its reason.
KEPT = {
    "repro.experiments.replication": (
        "ROADMAP item 5: the claim ledger reports seeded replications "
        "with Student-t intervals"
    ),
    "repro.models.relentless": (
        "ROADMAP item 2: the reference model the Relentless sender is "
        "checked against becomes a property"
    ),
    "repro.net.reorder": (
        "ROADMAP items 2 and 7: reordering is the stress family that "
        "separates RR's dupack logic from a loss"
    ),
}

_TASK_STRING = re.compile(r"^(repro(?:\.\w+)+):(\w+)$")
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


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _with_parents(name):
    parts = name.split(".")
    return {".".join(parts[: i + 1]) for i in range(len(parts))}


def _lazy_tables(tree):
    """The ``{submodule: names}`` dict nodes of ``lazy_exports`` calls."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "lazy_exports"
            and len(node.args) == 2
            and isinstance(node.args[1], ast.Dict)
        ):
            yield node.args[1]


def lazy_origins(index):
    """``{(package, exported name): defining submodule}`` over every
    ``lazy_exports`` table."""
    origins = {}
    for package, (path, is_package) in index.items():
        if not is_package:
            continue
        for table in _lazy_tables(_parse(path)):
            for key, names in zip(table.keys, table.values):
                for name in names.elts:
                    origins[package, name.value] = f"{package}.{key.value}"
    return origins


def _dotted(node):
    """``"a.b.c"`` for an ``a.b.c`` attribute chain over a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _import_targets(tree, package, origins):
    """Modules named by the imports and ``repro.*`` attribute chains in
    ``tree``; ``package`` anchors the relative imports, ``origins`` maps
    a package's lazily exported names to their submodules."""
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
            for alias in node.names:
                # ``from pkg import sub`` imports the submodule ``pkg.sub``
                targets.add(f"{module}.{alias.name}")
                if (module, alias.name) in origins:
                    targets |= _with_parents(origins[module, alias.name])
        elif isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted and dotted.startswith("repro."):
                targets |= _with_parents(dotted)
                owner, _, name = dotted.rpartition(".")
                if (owner, name) in origins:
                    targets |= _with_parents(origins[owner, name])
    return targets


def edges(name, path, is_package, origins):
    tree = _parse(path)
    package = name if is_package else name.rpartition(".")[0]
    targets = _import_targets(tree, package, origins)
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
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


def bench_roots(origins):
    """Every ``repro.*`` module a ``bench/*.py`` file imports or names
    in a string."""
    roots = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = _parse(path)
        roots |= {
            t for t in _import_targets(tree, "bench", origins) if t.startswith("repro")
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                match = _MODULE_STRING.match(node.value)
                if match:
                    roots |= _with_parents(match.group(1))
    return roots


def reached_modules(roots=()):
    """Modules reached from the entry points, bench and ``roots``."""
    index = module_index()
    origins = lazy_origins(index)
    frontier = [
        name
        for name in set(ENTRY_POINTS) | bench_roots(origins) | set(roots)
        if name in index
    ]
    reached = set(frontier)
    while frontier:
        name = frontier.pop()
        for target in edges(name, *index[name], origins):
            if target in index and target not in reached:
                reached.add(target)
                frontier.append(target)
    return reached


def _kept_modules():
    return {name for name in KEPT if name in module_index()}


def _referred_names(tree):
    """``{(identifier, owner)}``: what ``tree`` refers to, with the
    top-level definition each reference sits in (None outside them).
    String constants count only as task strings, so a lazy table's
    names do not."""
    refs = set()

    def visit(node, owner):
        if isinstance(node, ast.Name):
            refs.add((node.id, owner))
        elif isinstance(node, ast.Attribute):
            refs.add((node.attr, owner))
        elif isinstance(node, ast.alias):
            refs.add((node.name.rpartition(".")[2], owner))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = _TASK_STRING.match(node.value)
            if match:
                refs.add((match.group(2), owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for statement in tree.body:
        visit(statement, statement.name if _is_definition(statement) else None)
    return refs


def _is_definition(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def unreferenced_names():
    """``{"module.name"}`` for every public top-level ``def``/``class``
    under ``src/repro`` that nothing refers to."""
    definitions = set()
    sites = {}  # identifier -> {(module, owner)} of its references in src
    for module, (path, _) in module_index().items():
        tree = _parse(path)
        definitions |= {
            (module, node.name)
            for node in tree.body
            if _is_definition(node) and not node.name.startswith("_")
        }
        for name, owner in _referred_names(tree):
            sites.setdefault(name, set()).add((module, owner))
    outside = set()
    for path in sorted((ROOT / "bench").glob("*.py")) + sorted(
        (ROOT / "scripts").glob("*.py")
    ):
        outside |= {name for name, _ in _referred_names(_parse(path))}
    return {
        f"{module}.{name}"
        for module, name in definitions
        if name not in outside and not sites.get(name, set()) - {(module, name)}
    }


def _kept(dotted):
    module = dotted.rpartition(".")[0]
    return dotted in KEPT or module in KEPT


def test_every_module_is_reached():
    unreached = sorted(set(module_index()) - reached_modules(_kept_modules()))
    assert unreached == [], (
        "modules no entry point reaches (only tests call them): "
        + ", ".join(unreached)
    )


def test_every_public_name_is_referred_to():
    missing = sorted(name for name in unreferenced_names() if not _kept(name))
    assert missing == [], (
        "public top-level names nothing in src/repro, bench/ or scripts/ "
        "refers to (only tests call them): " + ", ".join(missing)
    )


def test_every_kept_entry_exists_and_is_otherwise_unreached():
    index = module_index()
    unreached = set(index) - reached_modules()
    names = unreferenced_names()
    for dotted in KEPT:
        if dotted in index:
            assert dotted in unreached, f"{dotted} is reached; drop it from KEPT"
        else:
            assert dotted in names, f"{dotted} is referred to or gone; drop it from KEPT"
