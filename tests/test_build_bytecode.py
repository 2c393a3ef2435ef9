"""The in-place build writes hash-checked bytecode for ``repro``
(setup.py; docs/PERFORMANCE.md "Cost of a CLI call").

The build runs on a copy of the package with ``CC=false``, so the
optional C core fails fast and is tolerated: bytecode is written even
when the extension is not.  Children run with
``PYTHONDONTWRITEBYTECODE=1``, the environment the benchmark's CLI
calls run in, and count what they compile from source.
"""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Runs ``body`` with every source compilation counted; prints the
#: compiled ``repro`` modules (paths relative to ``src``) as the last line.
PROBE = """
import importlib.machinery, json, os, sys
loader, compiled = importlib.machinery.SourceFileLoader, []
original = loader.source_to_code
def counting(self, data, path, *args, **kwargs):
    compiled.append(os.path.relpath(path, sys.argv[1]))
    return original(self, data, path, *args, **kwargs)
loader.source_to_code = counting
{body}
print(json.dumps(sorted(p for p in compiled if p.startswith("repro" + os.sep))))
"""


def child(tree, body):
    src = str(tree / "src")
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body), src],
        check=True,
        capture_output=True,
        text=True,
        cwd=tree,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": src},
    )
    lines = done.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def fingerprint(tree):
    body = "from repro.runner.fingerprint import code_fingerprint\nprint(code_fingerprint())"
    (digest,), _ = child(tree, body)
    return digest


def copy_tree(tree):
    """``tree`` as a checkout of the package: no bytecode, no extension."""
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy2(ROOT / name, tree / name)
    shutil.copytree(
        ROOT / "src" / "repro",
        tree / "src" / "repro",
        ignore=shutil.ignore_patterns("__pycache__", "*.so"),
    )
    return tree


def build(tree, required=False):
    """``setup.py build_ext --inplace`` in ``tree`` with no C compiler."""
    env = {**os.environ, "CC": "false"}
    env.pop("REPRO_REQUIRE_COMPILED", None)
    if required:
        env["REPRO_REQUIRE_COMPILED"] = "1"
    return subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
        cwd=tree,
        env=env,
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A built copy of the package and its code fingerprint from before
    the build."""
    tree = copy_tree(tmp_path_factory.mktemp("build"))
    before = fingerprint(tree)
    assert not list(tree.rglob("*.pyc"))
    done = build(tree)
    assert done.returncode == 0, done.stdout + done.stderr
    return tree, before


def test_every_module_has_checked_hash_bytecode(built):
    tree, _ = built
    sources = sorted((tree / "src" / "repro").rglob("*.py"))
    assert len(sources) > 60
    for source in sources:
        pyc = Path(importlib.util.cache_from_source(str(source)))
        flags = int.from_bytes(pyc.read_bytes()[4:8], "little")
        assert flags == 0b11, (source, flags)  # hash-based, check_source


def test_cli_imports_compile_no_repro_module(built):
    tree, _ = built
    _, compiled = child(tree, "import repro.experiments.cli, repro.experiments.figure5")
    assert compiled == []


def test_edited_module_is_compiled_again(built):
    """A same-size edit with the mtime put back defeats a timestamp
    ``.pyc``; a checked-hash one notices and the edit takes effect."""
    tree, _ = built
    module = tree / "src" / "repro" / "snapshot" / "digest.py"
    text, stat = module.read_text(), module.stat()
    match = re.search(r"^DIGEST_VERSION = (\d)$", text, re.M)
    edited = str((int(match[1]) + 1) % 10)
    module.write_text(text[: match.start(1)] + edited + text[match.end(1) :])
    os.utime(module, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    try:
        assert module.stat().st_size == stat.st_size
        body = "from repro.snapshot.digest import DIGEST_VERSION\nprint(DIGEST_VERSION)"
        (value,), compiled = child(tree, body)
        assert value == edited
        assert compiled == [os.path.join("repro", "snapshot", "digest.py")]
    finally:
        module.write_text(text)


def test_code_fingerprint_ignores_bytecode(built):
    tree, before = built
    assert fingerprint(tree) == before


def test_required_build_fails_without_a_compiler(tmp_path):
    """``REPRO_REQUIRE_COMPILED=1`` makes a failed C build fatal (an
    optional extension's failure is otherwise a setuptools warning)."""
    done = build(copy_tree(tmp_path), required=True)
    assert done.returncode != 0, done.stdout
