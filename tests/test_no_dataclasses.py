"""No module under ``src/repro`` imports :mod:`dataclasses`.

``@dataclass`` generates each class's methods as source text and runs
``exec`` on it at every import, and importing :mod:`dataclasses` loads
:mod:`inspect`; a CLI call paid for both on every run.  Records derive
from :class:`repro._record.Record` instead, which compiles nothing
(docs/PERFORMANCE.md "Cost of a CLI call").  Checked with :mod:`ast`
only, so a ``dataclasses`` import inside a function is caught too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def dataclasses_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "dataclasses" for name in names):
            yield node.lineno


def test_no_module_imports_dataclasses():
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in dataclasses_imports(path)
    ]
    assert offenders == [], "declare records with repro._record.Record: " + ", ".join(offenders)
