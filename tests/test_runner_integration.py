"""Integration: the experiment registry regenerates every artefact."""

from __future__ import annotations

import pytest

from repro.experiments.runner import REGISTRY, run_all

FAST_ARTEFACTS = (
    "table1",
    "table3",
    "fig4",
    "fig5",
    "fig8",
    "fig11",
    "fig12",
)


class TestRegistry:
    def test_all_paper_artefacts_registered(self):
        for artefact in (
            ["table1", "table3"]
            + [f"fig{i}" for i in range(3, 13)]
            + ["algorithm1"]
        ):
            assert artefact in REGISTRY, artefact

    def test_twelve_extensions_registered(self):
        extensions = [a for a in REGISTRY if a.startswith("ext-")]
        assert len(extensions) >= 12

    def test_titles_unique_and_nonempty(self):
        titles = [e.title for e in REGISTRY.values()]
        assert all(titles)
        assert len(set(titles)) == len(titles)

    def test_ids_match_descriptors(self):
        for artefact, experiment in REGISTRY.items():
            assert experiment.artefact == artefact
            assert experiment.category in {
                "table",
                "figure",
                "algorithm",
                "extension",
            }


class TestRunAll:
    def test_fast_subset_renders(self):
        outputs = run_all(FAST_ARTEFACTS)
        assert {o.artefact for o in outputs} == set(FAST_ARTEFACTS)
        for output in outputs:
            assert output.text.strip()
            assert output.title
            assert output.ok

    def test_selection_order_follows_registry(self):
        outputs = run_all(("fig5", "fig4"))
        assert [o.artefact for o in outputs] == ["fig4", "fig5"]

    def test_unknown_artefact_raises_repro_error(self):
        from repro.errors import ReproError, UnknownArtefactError

        with pytest.raises(UnknownArtefactError) as excinfo:
            run_all(("fig99", "table1"))
        assert isinstance(excinfo.value, ReproError)
        assert "fig99" in str(excinfo.value)
        assert "table1" in str(excinfo.value)  # lists what IS available

    @pytest.mark.slow
    def test_every_artefact_renders(self):
        outputs = run_all()
        assert len(outputs) == len(REGISTRY)
        for output in outputs:
            assert len(output.text) > 50, output.artefact


class TestDeprecatedShims:
    """The pre-engine ``EXPERIMENTS`` / ``ExperimentOutput`` shims are
    gone; ``run_all`` still returns the fields they carried."""

    def test_run_all_keeps_old_output_shape(self):
        (output,) = run_all(("table3",))
        # the fields the old ExperimentOutput namedtuple-style carried
        assert output.artefact == "table3"
        assert output.title
        assert output.text
