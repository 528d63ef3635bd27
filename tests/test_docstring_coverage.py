"""The docstring-coverage gate (tools/check_docstrings.py) and its CI contract."""

from __future__ import annotations

import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from check_docstrings import check_file, check_paths, main  # noqa: E402

#: the layers whose public API the docs handbook documents — CI runs
#: the same gate over the same directories (see
#: .github/workflows/ci.yml, docs job)
GATED = tuple(
    ROOT / "src/repro" / layer
    for layer in ("serving", "core", "api", "service")
)


class TestGatedLayers:
    def test_serving_and_core_are_fully_documented(self):
        gaps = check_paths(list(GATED))
        assert not gaps, "\n".join(gaps)

    def test_cli_entry_point(self, capsys):
        assert main([str(p) for p in GATED]) == 0
        assert "100%" in capsys.readouterr().out

    def test_ci_gates_the_same_layers(self):
        workflow = (ROOT / ".github/workflows/ci.yml").read_text()
        command = workflow.split("python tools/check_docstrings.py", 1)[1]
        command = command.split("\n\n", 1)[0].split("PYTHONPATH", 1)[0]
        gated_in_ci = [
            ROOT / word for word in command.split() if word != "\\"
        ]
        assert gated_in_ci == list(GATED)

    def test_missing_path_is_a_usage_error(self):
        assert main(["no/such/dir"]) == 2


class TestDetector:
    def _check(self, tmp_path, source: str) -> list[str]:
        path = tmp_path / "mod.py"
        path.write_text(textwrap.dedent(source))
        return check_file(path)

    def test_flags_public_gaps_at_every_level(self, tmp_path):
        gaps = self._check(
            tmp_path,
            '''
            def naked():
                pass

            class Naked:
                def method(self):
                    pass
            ''',
        )
        kinds = [g.split(": ", 1)[1] for g in gaps]
        assert "module has no docstring" in kinds
        assert "function naked has no docstring" in kinds
        assert "class Naked has no docstring" in kinds
        assert "function Naked.method has no docstring" in kinds

    def test_private_and_dunder_names_exempt(self, tmp_path):
        gaps = self._check(
            tmp_path,
            '''
            """Module doc."""

            def _helper():
                pass

            class Public:
                """Doc."""

                def __init__(self):
                    self.x = 1

                def _private(self):
                    pass
            ''',
        )
        assert gaps == []

    def test_overload_stubs_exempt(self, tmp_path):
        gaps = self._check(
            tmp_path,
            '''
            """Module doc."""

            from typing import overload

            @overload
            def f(x: int) -> int: ...

            def f(x):
                """Real implementation."""
                return x
            ''',
        )
        assert gaps == []

    def test_gap_lines_are_clickable(self, tmp_path):
        (gap,) = self._check(
            tmp_path, '"""Doc."""\n\ndef naked():\n    pass\n'
        )
        assert gap.startswith(str(tmp_path / "mod.py") + ":3:")
