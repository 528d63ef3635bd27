"""Docs CI: execute every fenced python snippet; grep-gate coverage.

Two guarantees, both cheap to state and expensive to let rot:

1. every ```python block in ``docs/*.md`` and the README *runs* —
   blocks execute cumulatively per file (later snippets may use names
   an earlier snippet in the same file defined), in a temp cwd so
   artefact-writing examples stay clean;
2. the documentation mentions every CLI subcommand and every
   registered experiment artefact — introspected, not hand-listed, so
   adding a subcommand or artefact without documenting it fails CI.
"""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import pytest

from repro.calibration import MODELS
from repro.serving.arrivals import ARRIVALS
from repro.serving.router import ROUTING_POLICIES

ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md"]

_FENCE = re.compile(r"^```(\w*)\s*$")


def python_blocks(path: Path) -> list[tuple[int, str]]:
    """Return (starting line, source) for each ```python fence."""
    blocks: list[tuple[int, str]] = []
    language, start, lines = None, 0, []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        fence = _FENCE.match(line)
        if fence and language is None:
            language, start, lines = fence.group(1), number + 1, []
        elif fence:
            if language == "python":
                blocks.append((start, "\n".join(lines)))
            language = None
        elif language is not None:
            lines.append(line)
    return blocks


class TestSnippetsExecute:
    @pytest.mark.parametrize(
        "path", DOC_FILES, ids=lambda p: p.name
    )
    def test_fenced_python_runs(self, path, tmp_path, monkeypatch):
        blocks = python_blocks(path)
        if not blocks:
            pytest.skip(f"{path.name} has no python snippets")
        monkeypatch.chdir(tmp_path)
        namespace: dict = {"__name__": f"docs_{path.stem}"}
        for start, source in blocks:
            code = compile(
                source, f"{path.name}:{start}", "exec"
            )
            exec(code, namespace)  # noqa: S102 - that's the point

    def test_docs_actually_contain_snippets(self):
        # the suite must never silently skip everything
        assert sum(len(python_blocks(p)) for p in DOC_FILES) >= 10


def _documentation_corpus() -> str:
    paths = [*DOC_FILES, ROOT / "EXPERIMENTS.md"]
    return "\n".join(p.read_text() for p in paths)


class TestGrepGate:
    def test_every_cli_subcommand_is_documented(self):
        from repro.cli import build_parser

        corpus = _documentation_corpus()
        (subparsers,) = [
            action
            for action in build_parser()._subparsers._group_actions
            if hasattr(action, "choices")
        ]
        undocumented = [
            name
            for name in subparsers.choices
            if f"repro {name}" not in corpus
        ]
        assert not undocumented, (
            f"CLI subcommands missing from docs/README: {undocumented} "
            "(document them as `python -m repro <name> ...`)"
        )

    def test_every_artefact_is_documented(self):
        from repro.experiments.engine import REGISTRY

        corpus = _documentation_corpus()
        undocumented = [
            artefact
            for artefact in REGISTRY
            if f"`{artefact}`" not in corpus
        ]
        assert not undocumented, (
            f"experiment artefacts missing from docs: {undocumented} "
            "(EXPERIMENTS.md keeps the full index)"
        )

    @pytest.mark.parametrize(
        "names, doc",
        [
            (ROUTING_POLICIES, "serving.md"),
            (ARRIVALS, "serving.md"),
            (MODELS, "service.md"),
        ],
        ids=["routing", "arrivals", "models"],
    )
    def test_routing_policies_are_documented(self, names, doc):
        text = (ROOT / "docs" / doc).read_text()
        for name in names:
            assert f"`{name}`" in text, name


class TestFieldReference:
    """docs/service.md lists every request field as the tables in
    ``repro.api.types`` declare it: name, JSON type, bounds, default."""

    @staticmethod
    def _rows(cls) -> list[str]:
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        rows = []
        for f in cls._WIRE:
            kind = f.json_type + (" or null" if f.optional else "")
            if f.choices:
                bounds = "one of " + ", ".join(f"`{c}`" for c in f.choices)
            else:
                bounds = f.bounds or "any"
            value = defaults[f.name]
            if f.required:
                default = "required"
            else:
                if value is not None and f.to_json is not None:
                    value = f.to_json(value)
                default = f"`{json.dumps(value)}`"
            rows.append(f"| `{f.name}` | {kind} | {bounds} | {default} |")
        return rows

    @staticmethod
    def _documented(name: str) -> list[str]:
        lines = (ROOT / "docs" / "service.md").read_text().splitlines()
        start = next(
            i
            for i, line in enumerate(lines)
            if line.startswith(f"**`{name}`**")
        )
        table = []
        for line in lines[start + 1 :]:
            if line.startswith("|"):
                table.append(line)
            elif table:
                break
        return table[2:]  # past the header and its rule

    @pytest.mark.parametrize(
        "name", ["PlanRequest", "FleetRequest", "FleetDesign", "FleetReplica"]
    )
    def test_reference_matches_the_field_table(self, name):
        import repro.api

        cls = getattr(repro.api, name)
        assert self._documented(name) == self._rows(cls)
