"""The docs gate (scripts/check_docs.py): a page may only advertise
options the parser it addresses really has, and only name ``repro.*``
objects that exist."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_docs.py"
_spec = importlib.util.spec_from_file_location("check_docs", _SCRIPT)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)

PAGE = """\
Run `python -m
repro.experiments fig7 [--quick] [--cache|--no-cache]` or see `--not-a-cli-flag`.

```bash
PYTHONPATH=src python -m repro.experiments identify --grid both \\
    --jobs 4 | tail -3 --lines
python -m repro.experiments snapshot run --from-snapshot rr.snap   # resume --not-checked
python -m repro.experiments snapshot capture rr --checkpoint-at 6 --out rr.snap
python -m repro.experiments snapshot <verb> --anything
```
"""


def _problems(text):
    invocations = [(f"page:{n}", args) for n, args in check_docs.cli_invocations(text)]
    return check_docs.check_cli_flags(invocations)


def test_every_flag_is_checked_against_the_parser_it_addresses():
    problems, checked = _problems(PAGE)
    assert problems == []
    # --quick --cache --no-cache | --grid --jobs | --from-snapshot
    # | --checkpoint-at --out
    assert checked == 8


def test_a_removed_flag_is_reported_where_it_is_advertised():
    page = PAGE.replace("[--quick]", "[--quick] [--no-such-flag]").replace(
        "--from-snapshot rr.snap", "--from-snapshot rr.snap --jobs 2"
    )
    problems, _ = _problems(page)
    assert sorted(problems) == [
        "page:1: 'python -m repro.experiments' has no --no-such-flag",
        "page:7: 'python -m repro.experiments snapshot run' has no --jobs",
    ]


def _names(text):
    return check_docs.check_dotted_names(check_docs.REPO_ROOT / "page.md", text)


def test_dotted_names_resolve_through_modules_and_attributes():
    page = (
        "`repro.tcp.rightedge.LinKungSender`, `repro.runner.grid:run_grid_cell`,\n"
        "`repro.sim._engine_core` (built or not) and `repro.runner.SnapshotStore`.\n"
        "```\n`repro.not.checked.inside.a.fence`\n```\n"
    )
    assert _names(page) == ([], 4)


def test_a_dangling_dotted_name_is_reported():
    problems, checked = _names("Lin-Kung lives in\n`repro.tcp.linkung`.\n")
    assert checked == 1
    assert problems == ["page.md:2: `repro.tcp.linkung` does not resolve"]
