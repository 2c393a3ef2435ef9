"""The docs gate (scripts/check_docs.py): a page may only advertise
options the parser it addresses really has, only name ``repro.*``
objects and headings that exist, and only show the measured numbers
the committed ``BENCH_*.json`` records hold."""

import importlib.util
import json
import statistics
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


# Citations in this file are built with ``Q`` for the quotes, so the
# repository-wide citation check does not read the fixtures as citations.
Q = '"'
PAGE_WITH_ANCHORS = """\
# Title

## The CI gate: `scripts/bench_pair.py`

## Notes
## Notes

```bash
# Not a heading
```

See [the gate](#the-ci-gate-scriptsbench_pairpy), [notes](#notes) and
[more notes](#notes-1), or [the hop](docs/PERFORMANCE.md#cost-of-a-hop).
"""


def _links(text):
    return check_docs.check_links(check_docs.REPO_ROOT / "page.md", text)[0]


def test_anchors_follow_githubs_slug_rules():
    texts, anchors = check_docs.heading_index(PAGE_WITH_ANCHORS)
    assert anchors == {"title", "the-ci-gate-scriptsbench_pairpy", "notes", "notes-1"}
    assert "The CI gate: `scripts/bench_pair.py`" in texts
    assert _links(PAGE_WITH_ANCHORS) == []


def test_an_anchor_that_names_no_heading_is_reported():
    page = PAGE_WITH_ANCHORS + (
        "[gone](#not-a-heading) [moved, with link text that\n"
        "wraps](docs/PERFORMANCE.md#the-endpoint-path)\n"
    )
    assert _links(page) == [
        "page.md:14: broken link (#not-a-heading is no heading of this page)",
        "page.md:15: broken link (#the-endpoint-path is no heading of docs/PERFORMANCE.md)",
    ]


def _citations(text):
    return check_docs.check_citations(check_docs.REPO_ROOT / "cites.py", text)


def test_heading_citations_are_checked_even_when_wrapped():
    text = (
        f"see docs/PERFORMANCE.md {Q}Cost of a hop{Q} and (PERFORMANCE.md,\n"
        f"    # {Q}Cost of an\n    # ACK{Q}) or docs/WARMSTART.md {Q}What warm\nstart costs{Q}\n"
    )
    assert _citations(text) == ([], 3)


def test_a_citation_of_a_missing_heading_or_page_is_reported():
    text = (
        f"docs/PERFORMANCE.md {Q}Hops nobody reads{Q}\n"
        f"(docs/PERFORMANCE.md,\n    # {Q}The endpoint\n    # path{Q})\n"
        f"docs/NOWHERE.md {Q}Anything{Q}\n"
    )
    assert _citations(text) == (
        [
            f"cites.py:1: docs/PERFORMANCE.md has no heading {Q}Hops nobody reads{Q}",
            f"cites.py:2: docs/PERFORMANCE.md has no heading {Q}The endpoint path{Q}",
            "cites.py:5: cites docs/NOWHERE.md, which does not exist",
        ],
        3,
    )


SPEC = {
    "workloads": [{"name": "lossy"}, {"name": "wan"}],
    "end_to_end": [{"name": "norm_s"}, {"name": "setup_s"}],
}
BASELINE = {"values": {"lossy": {"norm_s": 1.544}, "wan": {"norm_s": 1.1886}}}


def _record(sha, seed, parent, change, wins):
    """A ``bench_pair.py --record`` file over SPEC's workloads;
    ``parent`` / ``change`` map a workload to its ``norm_s`` runs, and
    every run reads ``setup_s`` 1.0."""
    workloads = {}
    for name in parent:
        runs = {
            side: [
                {"seed": seed + i, "failed": 0, "attempted": 100,
                 "metrics": {"norm_s": value, "setup_s": 1.0}}
                for i, value in enumerate(values[name])
            ]
            for side, values in (("parent", parent), ("change", change))
        }
        pairs = len(parent[name])
        workloads[name] = {"runs": runs, "metrics": {
            "norm_s": {"parent_median": statistics.median(parent[name]),
                       "change_median": statistics.median(change[name]),
                       "wins": wins, "pairs": pairs},
            "setup_s": {"parent_median": 1.0, "change_median": 1.0, "wins": 0, "pairs": pairs},
        }}
    return {"parent": {"sha": sha}, "pairs": len(parent["lossy"]), "workloads": workloads}


def _fixture_records(root):
    """BENCH_3.json and BENCH_12.json under ``root``, read back in
    number order (not name order)."""
    records = {
        "BENCH_12.json": _record("b" * 40, 21, {"lossy": [0.7, 0.64, 0.66], "wan": [0.38, 0.4, 0.36]},
                                 {"lossy": [0.57, 0.6, 0.58], "wan": [0.34, 0.33, 0.35]}, 3),
        "BENCH_3.json": _record("a" * 40, 1, {"lossy": [0.9, 0.8, 0.85], "wan": [0.5, 0.45, 0.48]},
                                {"lossy": [0.78, 0.81, 0.7], "wan": [0.49, 0.44, 0.5]}, 2),
    }
    for name, record in records.items():
        (root / name).write_text(json.dumps(record))
    return check_docs.bench_records(root)


def test_two_records_render_the_expected_rows(tmp_path):
    records = _fixture_records(tmp_path)
    assert [name for name, _ in records] == ["BENCH_3.json", "BENCH_12.json"]
    tables = check_docs.render_bench_tables(SPEC, BASELINE, records)
    assert tables["measured"] == (
        "Parent side of `BENCH_12.json` (parent `bbbbbbb`, 3 pairs per workload,"
        " seeds 21..23, 0 failed of 600 attempted):\n"
        "\n"
        "| workload | `norm_s` | `setup_s` |\n"
        "|---|---|---|\n"
        "| `lossy` | 0.660 (0.640..0.700) | 1.00 (1.00..1.00) |\n"
        "| `wan` | 0.380 (0.360..0.400) | 1.00 (1.00..1.00) |\n"
    )
    assert tables["trajectory"] == (
        "| record | `lossy` | `wan` |\n"
        "|---|---|---|\n"
        "| `bench/baseline.json` | 1.54 | 1.19 |\n"
        "| `BENCH_3.json` | 0.850 → 0.780 (2/3) | 0.480 → 0.490 (2/3) |\n"
        "| `BENCH_12.json` | 0.660 → 0.580 (3/3) | 0.380 → 0.340 (3/3) |\n"
    )


def test_one_edited_digit_in_a_generated_block_fails(tmp_path):
    tables = check_docs.render_bench_tables(SPEC, BASELINE, _fixture_records(tmp_path))
    page = "".join(
        f"<!-- begin generated: {name} -->\n{body}<!-- end generated: {name} -->\n"
        for name, body in tables.items()
    )
    path = check_docs.REPO_ROOT / "page.md"
    assert check_docs.check_generated(path, page, tables) == ([], ["measured", "trajectory"])
    edited = page.replace("0.580 (3/3)", "0.589 (3/3)")
    problems, _ = check_docs.check_generated(path, edited, tables)
    assert len(problems) == 1
    assert problems[0].startswith("page.md:9: generated block 'trajectory' differs")
    assert problems[0].endswith("\n" + tables["trajectory"])


def test_the_committed_tables_are_current():
    text = (check_docs.REPO_ROOT / "docs" / "PERFORMANCE.md").read_text(encoding="utf-8")
    problems, found = check_docs.check_generated(
        check_docs.REPO_ROOT / "docs" / "PERFORMANCE.md", text, check_docs.repo_bench_tables()
    )
    assert problems == []
    assert sorted(found) == ["measured", "trajectory"]
