#!/usr/bin/env python3
"""Keep the docs' code examples honest.

Extracts fenced code blocks from ``docs/*.md`` and the top-level pages
(``README.md``, ``DESIGN.md``, ``EXPERIMENTS.md``, ``CONTRIBUTING.md``)
and verifies, without executing any example:

* every ``python`` block parses, and every ``import x`` /
  ``from x import y`` of a ``repro`` module resolves against the
  installed package — including each imported name existing on the
  module;
* every ``python -m repro.experiments <cmd>`` invocation (in any
  fenced block) names a real subcommand, verified by running
  ``python -m repro.experiments <cmd> --help``;
* every ``--flag`` that follows ``python -m repro.experiments``, in a
  fenced block or a back-ticked span, is listed by the ``--help`` of
  the parser the invocation addresses (the main one or
  ``snapshot <verb>``) — a page must not keep advertising an option a
  change removed;
* every relative markdown link (``[text](OTHER.md)``,
  ``[text](../FILE.md#anchor)``, link text may wrap) resolves to an
  existing file, and its ``#anchor`` (a same-page ``[text](#anchor)``
  too) is the GitHub slug of a heading of that page;
* every page named beside a quoted heading (``docs/<PAGE>.md
  "<Heading>"``, a comma allowed between them) exists and has that
  heading, in the pages above and in ``src/``, ``tests/``,
  ``scripts/``, ``setup.py``, the CI workflow and the verify skill
  (CHANGES.md is history and is not read);
* every generated block (between ``<!-- begin generated: NAME -->``
  and ``<!-- end generated: NAME -->``) equals what
  ``render_bench_tables`` makes of the committed ``BENCH_*.json``
  records and ``bench/baseline.json``; a drifted block is reported with
  the expected text, to paste in its place;
* every back-ticked repo-relative path (``scripts/x.py``,
  ``tests/a/test_b.py::TestC``, anything under ``src/``, ``bench/``,
  ``docs/`` or ``.github/``; globs and ``<placeholders>`` are skipped)
  names a file or directory that exists — a page must not keep
  pointing at a file a change deleted or renamed;
* every back-ticked dotted name ``repro.a.b[.c]`` outside fenced blocks
  resolves: the longest module prefix imports and the rest are
  attributes of it (an optional compiled extension that is not built
  counts as present when its ``.c`` source exists);
* every ``docs/*.md`` page is reachable from the ``docs/README.md``
  index by following relative links — an orphaned page is a page
  nobody will find.

CI runs this (see .github/workflows/ci.yml), so renaming a public API
or a CLI verb without updating the docs fails the build.

Usage::

    python scripts/check_docs.py            # check docs/*.md + top-level pages
    python scripts/check_docs.py FILE...    # check specific files
"""

from __future__ import annotations

import ast
import functools
import importlib
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

FENCE_RE = re.compile(r"^```(\w*)\s*$")
CLI_RE = re.compile(r"python -m repro\.experiments\s+([a-z0-9_.-]+)")
# Everything after the module name, up to the end of the (joined) line.
INVOCATION_RE = re.compile(r"python3? -m repro\.experiments\b(.*)")
FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
# Inline markdown links; external schemes are filtered by
# link_targets, not the regex.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.+?)(?:\s+#+)?\s*$")
# ``docs/<PAGE>.md "<Heading>"`` (or ``<PAGE>.md, "<Heading>"``); the
# heading may wrap, in a comment too, so a line break may carry a ``#``.
CITATION_RE = re.compile(
    r'((?:[\w.-]+/)*[A-Z][A-Z0-9_]*\.md),?\s+(?:#\s*)?"((?:[^"\n]|\n[ \t]*#?)+?)"'
)
GENERATED_RE = re.compile(
    r"<!-- begin generated: ([\w-]+) -->\n(.*?)<!-- end generated: \1 -->", re.DOTALL
)
# A back-ticked span whose first word starts with a top-level source
# directory; check_paths strips what follows the path proper.
PATH_RE = re.compile(r"`((?:scripts|bench|src|tests|docs|\.github)/[^`\s]*)[^`]*`")
# A back-ticked span that starts with a dotted name under the package.
DOTTED_RE = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)")
TOP_LEVEL_PAGES = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "CONTRIBUTING.md")
#: Besides the pages: where a ``<PAGE>.md "<Heading>"`` citation is checked.
CITING_GLOBS = (
    "src/**/*.py",
    "src/**/*.c",
    "tests/**/*.py",
    "scripts/*.py",
    "setup.py",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
)


def fenced_blocks(text: str) -> Iterator[Tuple[str, str, int]]:
    """Yield (language, content, first line number) per fenced block."""
    lang = None
    content: List[str] = []
    start = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = FENCE_RE.match(line.strip())
        if match and lang is None:
            lang = match.group(1).lower()
            content = []
            start = lineno + 1
        elif line.strip() == "```" and lang is not None:
            # Dedent so blocks nested inside list items still parse.
            yield lang, textwrap.dedent("\n".join(content)), start
            lang = None
        elif lang is not None:
            content.append(line)


def check_python_block(block: str, where: str) -> List[str]:
    """Parse the block and resolve its ``repro`` imports."""
    try:
        tree = ast.parse(block)
    except SyntaxError as exc:
        return [f"{where}: python block does not parse: {exc.msg} (line {exc.lineno})"]
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            targets = [(node.module, alias.name) for alias in node.names]
        else:
            continue
        for module_name, attr in targets:
            if module_name.split(".")[0] != "repro":
                continue
            try:
                module = importlib.import_module(module_name)
            except ImportError as exc:
                problems.append(f"{where}: cannot import {module_name}: {exc}")
                continue
            if attr is not None and attr != "*" and not hasattr(module, attr):
                problems.append(
                    f"{where}: {module_name} has no attribute {attr!r}"
                )
    return problems


@functools.lru_cache(maxsize=None)
def cli_help(*words: str) -> Tuple[bool, str]:
    """``python -m repro.experiments <words> --help`` -> (exit status
    was 0, what it printed)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments", *words, "--help"],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    return proc.returncode == 0, proc.stdout or proc.stderr


def check_cli_commands(commands: List[Tuple[str, str]]) -> List[str]:
    """``python -m repro.experiments <cmd> --help`` must succeed."""
    problems = []
    for command in sorted({cmd for cmd, _ in commands}):
        wheres = [where for cmd, where in commands if cmd == command]
        ok, output = cli_help(command)
        if not ok:
            detail = output.strip().splitlines()
            problems.append(
                f"{wheres[0]}: 'python -m repro.experiments {command}' is not "
                f"a valid command ({detail[-1] if detail else 'no output'})"
            )
    return problems


def cli_invocations(text: str) -> Iterator[Tuple[int, str]]:
    """Yield (line number, argument text) for every ``python -m
    repro.experiments ...`` in a fenced block (backslash continuations
    joined) or a back-ticked span (which may wrap over lines)."""
    prose: List[str] = []
    pending, pending_line, in_fence = "", 0, False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip().startswith("```"):
            in_fence = not in_fence
            prose.append("")
        elif in_fence:
            prose.append("")
            pending_line = pending_line or lineno
            pending += line.rstrip("\\") + " "
            if not line.endswith("\\"):
                match = INVOCATION_RE.search(pending)
                if match:
                    yield pending_line, match.group(1)
                pending, pending_line = "", 0
        else:
            prose.append(line)
    joined = "\n".join(prose)
    for span in re.finditer(r"`([^`]*)`", joined):
        match = INVOCATION_RE.search(" ".join(span.group(1).split()))
        if match:
            yield joined.count("\n", 0, span.start()) + 1, match.group(1)


def check_cli_flags(invocations: List[Tuple[str, str]]) -> Tuple[List[str], int]:
    """Every ``--flag`` of every (where, argument text) invocation must
    appear in the ``--help`` of the parser addressed; returns
    (problems, flags checked)."""
    problems: List[str] = []
    checked = 0
    for where, arguments in invocations:
        # One command: stop at a comment or a shell operator (spaces
        # around it, so ``[--cache|--no-cache]`` survives).
        arguments = re.split(r"\s(?:#|\||&&|;|>)(?:\s|$)", arguments, maxsplit=1)[0]
        words = [w for w in arguments.split() if w[0] not in "-["]
        parser: Tuple[str, ...] = ()
        if words and words[0] == "snapshot":
            parser = ("snapshot",) + tuple(words[1:2])
            if not all(word.isalpha() for word in parser):
                continue  # ``snapshot <verb> ...``: an illustration
        ok, output = cli_help(*parser)
        known = set(FLAG_RE.findall(output)) if ok else set()
        for flag in FLAG_RE.findall(arguments):
            checked += 1
            if flag not in known:
                command = " ".join(("python -m repro.experiments",) + parser)
                problems.append(f"{where}: '{command}' has no {flag}")
    return problems, checked


def link_targets(text: str) -> Iterator[Tuple[int, str]]:
    """Yield (line number, target) per local markdown link, link text
    that wraps over lines included, skipping fenced code blocks and
    external URLs; a same-page anchor is ``#anchor``."""
    prose: List[str] = []
    in_fence = False
    for line in text.splitlines():
        fence = line.strip().startswith("```")
        in_fence ^= fence
        prose.append("" if in_fence or fence else line)
    joined = "\n".join(prose)
    for match in LINK_RE.finditer(joined):
        target = match.group(1)
        if "://" in target or target.startswith("mailto:"):
            continue
        yield joined.count("\n", 0, match.start(1)) + 1, target


def slug(heading: str) -> str:
    """GitHub's anchor for a heading's text: link text kept, then
    lower case, punctuation (backticks, colons, dots, ...) dropped,
    spaces to hyphens."""
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading)
    return re.sub(r"[^\w\- ]", "", text.lower()).replace(" ", "-")


def heading_index(text: str) -> Tuple[frozenset, frozenset]:
    """(heading texts, anchors) of a markdown page; a repeated anchor
    gets ``-1``, ``-2``, ... as on GitHub."""
    texts, anchors, seen = set(), set(), {}
    in_fence = False
    for line in text.splitlines():
        if line.strip().startswith("```"):
            in_fence = not in_fence
            continue
        match = None if in_fence else HEADING_RE.match(line)
        if match:
            texts.add(" ".join(match.group(1).split()))
            anchor = slug(match.group(1))
            count = seen.get(anchor, 0)
            seen[anchor] = count + 1
            anchors.add(f"{anchor}-{count}" if count else anchor)
    return frozenset(texts), frozenset(anchors)


@functools.lru_cache(maxsize=None)
def headings(page: Path) -> Tuple[frozenset, frozenset]:
    """:func:`heading_index` of a page on disk."""
    return heading_index(page.read_text(encoding="utf-8"))


def check_links(path: Path, text: str) -> Tuple[List[str], List[Path]]:
    """Resolve every relative link and its anchor; return (problems,
    linked files)."""
    problems: List[str] = []
    resolved: List[Path] = []
    where = path.relative_to(REPO_ROOT)
    own_anchors = heading_index(text)[1]
    for lineno, target in link_targets(text):
        target, _, anchor = target.partition("#")
        if not target:
            anchors = own_anchors
        else:
            candidate = (path.parent / target).resolve()
            if not candidate.exists():
                problems.append(f"{where}:{lineno}: broken link ({target} does not exist)")
                continue
            resolved.append(candidate)
            anchors = headings(candidate)[1] if candidate.suffix == ".md" else None
        if anchor and anchors is not None and anchor not in anchors:
            problems.append(
                f"{where}:{lineno}: broken link (#{anchor} is no heading of"
                f" {target or 'this page'})"
            )
    return problems, resolved


def cited_page(name: str) -> Path:
    """The page a citation names: a repo-relative path, or a bare name
    at the top level or under ``docs/``."""
    for candidate in (REPO_ROOT / name, REPO_ROOT / "docs" / name):
        if candidate.exists():
            return candidate
    return REPO_ROOT / name


def check_citations(path: Path, text: str) -> Tuple[List[str], int]:
    """Every ``<PAGE>.md "<Heading>"`` names a page that has that
    heading; returns (problems, citations checked)."""
    problems: List[str] = []
    checked = 0
    for match in CITATION_RE.finditer(text):
        checked += 1
        page = cited_page(match.group(1))
        heading = " ".join(re.sub(r"\n[ \t]*#?", " ", match.group(2)).split())
        lineno = text.count("\n", 0, match.start()) + 1
        where = f"{path.relative_to(REPO_ROOT)}:{lineno}"
        if not page.exists():
            problems.append(f"{where}: cites {match.group(1)}, which does not exist")
        elif heading not in headings(page)[0]:
            problems.append(
                f'{where}: {page.relative_to(REPO_ROOT)} has no heading "{heading}"'
            )
    return problems, checked


def _cell(value: float) -> str:
    """Three significant digits, trailing zeros kept (0.600, 23.4)."""
    return f"{value:#.3g}".rstrip(".")


def _row(cells: List[str]) -> str:
    return "| " + " | ".join(cells) + " |"


def bench_records(root: Path = REPO_ROOT) -> List[Tuple[str, dict]]:
    """(file name, record) for every committed ``BENCH_<n>.json``, by n."""
    paths = sorted(root.glob("BENCH_*.json"), key=lambda p: int(re.sub(r"\D", "", p.stem)))
    return [(p.name, json.loads(p.read_text())) for p in paths]


def render_bench_tables(spec: dict, baseline: dict, records: List[Tuple[str, dict]]) -> dict:
    """The generated blocks of docs/PERFORMANCE.md, by name.

    ``measured``: per workload, the parent-side median and min..max of
    every end-to-end metric in the newest record.  ``trajectory``:
    ``norm_s`` per workload, the baseline's value and then each
    record's parent and change medians with the pairs the change won.
    ``spec`` is BENCHMARK.json, ``baseline`` bench/baseline.json and
    ``records`` what :func:`bench_records` returns."""
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    newest_name, newest = records[-1]
    runs = [run for w in workloads for run in newest["workloads"][w]["runs"]["parent"]]
    seeds = sorted({run["seed"] for run in runs})
    measured = [
        f"Parent side of `{newest_name}` (parent `{newest['parent']['sha'][:7]}`,"
        f" {newest['pairs']} pairs per workload, seeds {seeds[0]}..{seeds[-1]},"
        f" {sum(r['failed'] for r in runs)} failed of"
        f" {sum(r['attempted'] for r in runs):,} attempted):",
        "",
        _row(["workload"] + [f"`{m}`" for m in metrics]),
        "|---" * (len(metrics) + 1) + "|",
    ]
    for w in workloads:
        cells = [f"`{w}`"]
        for m in metrics:
            values = [run["metrics"][m] for run in newest["workloads"][w]["runs"]["parent"]]
            median = newest["workloads"][w]["metrics"][m]["parent_median"]
            cells.append(f"{_cell(median)} ({_cell(min(values))}..{_cell(max(values))})")
        measured.append(_row(cells))
    trajectory = [
        _row(["record"] + [f"`{w}`" for w in workloads]),
        "|---" * (len(workloads) + 1) + "|",
        _row(["`bench/baseline.json`"] + [_cell(baseline["values"][w]["norm_s"]) for w in workloads]),
    ]
    for name, record in records:
        cells = [f"`{name}`"]
        for w in workloads:
            row = record["workloads"][w]["metrics"]["norm_s"]
            cells.append(
                f"{_cell(row['parent_median'])} → {_cell(row['change_median'])}"
                f" ({row['wins']}/{row['pairs']})"
            )
        trajectory.append(_row(cells))
    return {"measured": "\n".join(measured) + "\n", "trajectory": "\n".join(trajectory) + "\n"}


@functools.lru_cache(maxsize=None)
def repo_bench_tables() -> dict:
    """:func:`render_bench_tables` over this checkout's files."""
    return render_bench_tables(
        json.loads((REPO_ROOT / "BENCHMARK.json").read_text()),
        json.loads((REPO_ROOT / "bench" / "baseline.json").read_text()),
        bench_records(),
    )


def check_generated(path: Path, text: str, expected: dict) -> Tuple[List[str], List[str]]:
    """Every generated block equals ``expected[name]``; returns
    (problems, names of the blocks found)."""
    problems: List[str] = []
    found: List[str] = []
    for match in GENERATED_RE.finditer(text):
        name, body = match.groups()
        found.append(name)
        lineno = text.count("\n", 0, match.start()) + 1
        where = f"{path.relative_to(REPO_ROOT)}:{lineno}"
        if name not in expected:
            problems.append(f"{where}: no renderer makes a block named {name!r}")
        elif body != expected[name]:
            problems.append(
                f"{where}: generated block {name!r} differs from the BENCH_*.json"
                f" records; expected:\n{expected[name]}"
            )
    return problems, found


def check_paths(path: Path, text: str) -> Tuple[List[str], int]:
    """Every back-ticked repo-relative path must exist; returns
    (problems, paths checked).  ``tests/x.py::TestY`` and
    ``src/x.py:12`` are checked as the file; anything with glob or
    placeholder characters is an illustration, not a reference."""
    problems: List[str] = []
    checked = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in PATH_RE.finditer(line):
            target = match.group(1).split(":", 1)[0].rstrip(".,;")
            if re.search(r"[*?<>{}\[\]$…]|\.\.\.", target):
                continue
            checked += 1
            if not (REPO_ROOT / target).exists():
                problems.append(
                    f"{path.relative_to(REPO_ROOT)}:{lineno}: `{target}` does not exist"
                )
    return problems, checked


def resolves(dotted: str) -> bool:
    """Import the longest module prefix of ``dotted``, then walk the
    rest with ``getattr``."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            target = importlib.import_module(module_name)
        except ImportError:
            source = REPO_ROOT / "src" / Path(*parts[:split]).with_suffix(".c")
            if source.exists():
                return True  # an optional extension this checkout did not build
            continue
        for part in parts[split:]:
            if not hasattr(target, part):
                return False
            target = getattr(target, part)
        return True
    return False


def check_dotted_names(path: Path, text: str) -> Tuple[List[str], int]:
    """Every back-ticked ``repro.a.b`` outside fenced blocks must
    resolve; returns (problems, names checked)."""
    problems: List[str] = []
    checked = 0
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in DOTTED_RE.finditer(line):
            checked += 1
            if not resolves(match.group(1)):
                problems.append(
                    f"{path.relative_to(REPO_ROOT)}:{lineno}: `{match.group(1)}`"
                    " does not resolve"
                )
    return problems, checked


def check_reachability(linked_from: dict) -> List[str]:
    """Every docs/*.md page must be reachable from docs/README.md by
    following relative links (``linked_from`` maps each checked file to
    the files it links to)."""
    docs_dir = (REPO_ROOT / "docs").resolve()
    index = docs_dir / "README.md"
    if index not in linked_from:
        return []  # partial invocation (explicit FILE... args)
    reachable = set()
    frontier = [index]
    while frontier:
        page = frontier.pop()
        if page in reachable:
            continue
        reachable.add(page)
        frontier.extend(linked_from.get(page, []))
    return [
        f"docs/{page.name}: not reachable from docs/README.md"
        " (add it to the index table)"
        for page in sorted(docs_dir.glob("*.md"))
        if page.resolve() not in reachable
    ]


def check_file(path: Path) -> Tuple[List[str], List[Tuple[str, str]], int]:
    problems: List[str] = []
    commands: List[Tuple[str, str]] = []
    text = path.read_text(encoding="utf-8")
    blocks = 0
    for lang, block, lineno in fenced_blocks(text):
        blocks += 1
        where = f"{path.relative_to(REPO_ROOT)}:{lineno}"
        if lang == "python":
            problems.extend(check_python_block(block, where))
        commands.extend(
            (match.group(1), where) for match in CLI_RE.finditer(block)
        )
    return problems, commands, blocks


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        paths = [Path(arg).resolve() for arg in argv]
        citing = paths
    else:
        paths = sorted((REPO_ROOT / "docs").glob("*.md")) + [
            REPO_ROOT / name for name in TOP_LEVEL_PAGES
        ]
        citing = paths + sorted(
            path for pattern in CITING_GLOBS for path in REPO_ROOT.glob(pattern)
        )
    problems: List[str] = []
    commands: List[Tuple[str, str]] = []
    total_blocks = 0
    total_links = 0
    total_paths = 0
    total_names = 0
    invocations: List[Tuple[str, str]] = []
    linked_from: dict = {}
    generated: List[str] = []
    for path in paths:
        file_problems, file_commands, blocks = check_file(path)
        problems.extend(file_problems)
        commands.extend(file_commands)
        total_blocks += blocks
        text = path.read_text(encoding="utf-8")
        invocations.extend(
            (f"{path.relative_to(REPO_ROOT)}:{lineno}", arguments)
            for lineno, arguments in cli_invocations(text)
        )
        link_problems, resolved = check_links(path, text)
        problems.extend(link_problems)
        total_links += len(resolved)
        linked_from[path.resolve()] = resolved
        path_problems, checked = check_paths(path, text)
        problems.extend(path_problems)
        total_paths += checked
        name_problems, checked = check_dotted_names(path, text)
        problems.extend(name_problems)
        total_names += checked
        if "<!-- begin generated:" in text:
            block_problems, found = check_generated(path, text, repo_bench_tables())
            problems.extend(block_problems)
            generated.extend(found)
    total_citations = 0
    for path in citing:
        citation_problems, checked = check_citations(path, path.read_text(encoding="utf-8"))
        problems.extend(citation_problems)
        total_citations += checked
    if not argv:
        problems.extend(
            f"no page holds the generated block {name!r}"
            for name in sorted(set(repo_bench_tables()) - set(generated))
        )
    problems.extend(check_cli_commands(commands))
    flag_problems, total_flags = check_cli_flags(invocations)
    problems.extend(flag_problems)
    problems.extend(check_reachability(linked_from))
    unique_cmds = len({cmd for cmd, _ in commands})
    print(
        f"checked {len(paths)} files, {total_blocks} fenced blocks, "
        f"{unique_cmds} distinct CLI commands, {total_flags} CLI flags, "
        f"{total_links} relative links, {total_paths} repo paths, "
        f"{total_names} dotted names, {total_citations} heading citations in"
        f" {len(citing)} files, {len(generated)} generated blocks"
    )
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
