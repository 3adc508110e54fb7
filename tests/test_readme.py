"""The README's library example runs and prints what the README shows, its
CLI block runs, its copy of the classification table is the one in
subsym.theorems.ROWS, the report kinds it lists are subsym.symmetry's, and
its corpus config keys and sections are subsym.theorems'."""

import contextlib
import dataclasses
import io
import os
import re

from subsym import cli
from subsym.symmetry import _KINDS
from subsym.theorems import ROWS, SECTIONS, CorpusConfig

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_library_example_prints_its_comment():
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    # the block's "# ..." lines show its expected output
    shown = [line[2:] for line in code.splitlines() if line.startswith("# ")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == shown == ["[True, True, True, True, True, True]"]


def render_rows() -> str:
    """ROWS as the markdown table README.md shows."""
    lines = [
        "| row | least n | (d, δ) | S(Σ) reaches its diameter 2d + δ when | counterexample |",
        "|---|---|---|---|---|",
    ]
    for name, row in ROWS.items():
        least = "" if row.least_n is None else row.least_n
        ce = ""
        if row.counterexample is not None:
            n, label, _ = row.counterexample
            ce = f"{label} at n = {n}"
        lines.append(f"| {name} | {least} | {row.d_delta} | {row.listed.__doc__} | {ce} |")
    return "\n".join(lines) + "\n"


def test_classification_table_matches_rows():
    with open(README, encoding="utf-8") as fh:
        readme = fh.read()
    assert f"\n\n{render_rows()}\n" in readme


def test_report_kinds_match_the_kind_table():
    with open(README, encoding="utf-8") as fh:
        paragraph = fh.read().split("**Reports**", 1)[1].split("\n\n", 1)[0]
    listed = re.search(r"`kind` \(([^)]*)\)", paragraph).group(1)
    assert [name.strip(" `") for name in listed.split("|")] == list(_KINDS)


def test_corpus_config_matches_the_config_and_its_sections():
    with open(README, encoding="utf-8") as fh:
        paragraph = fh.read().split("**Corpus config**", 1)[1].split("\n\n", 1)[0]
    keys = re.search(r"The keys\s+are (.*?), e\.g\.", paragraph, re.S).group(1)
    assert re.findall(r"`([^`]+)`", keys) == [f.name for f in dataclasses.fields(CorpusConfig)]
    order = re.search(r"Sections run in\s+this order:(.*?)\.\s", paragraph, re.S).group(1)
    listed = [(name, bool(mark)) for name, mark in re.findall(r"`([^`]+)`(\s+\(default\))?", order)]
    assert listed == [(name, default) for name, _, default in SECTIONS]


def test_cli_block_runs(tmp_path, monkeypatch):
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## CLI", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    commands = [line.split("#", 1)[0].split() for line in block.splitlines()]
    commands = [argv for argv in commands if argv]
    assert len(commands) == 9 and all(argv[0] == "subsym" for argv in commands)
    fixtures = os.path.join(os.path.dirname(README), "fixtures") + os.sep
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        argv = [arg.replace("fixtures/", fixtures, 1) for arg in argv[1:]]
        assert cli.main(argv) == 0, " ".join(argv)
