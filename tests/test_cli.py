"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import json

import pytest

from repro.api.types import _KNOWN_METRICS
from repro.calibration import MODELS
from repro.cli import (
    _INJECTIONS,
    _parse_spec,
    _soak_injection,
    build_parser,
    main,
)
from repro.serving.arrivals import ARRIVALS
from repro.serving.router import ROUTING_POLICIES


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    (sub,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return dict(sub.choices)


def _choices(command: str, option: str) -> list:
    (action,) = [
        action
        for action in _subcommands()[command]._actions
        if option in action.option_strings
    ]
    return list(action.choices)


class TestSpecParsing:
    def test_none(self):
        assert _parse_spec("none").is_unpruned()
        assert _parse_spec("").is_unpruned()

    def test_multi_layer(self):
        spec = _parse_spec("conv1=0.3,conv2=0.5")
        assert spec.as_dict() == {"conv1": 0.3, "conv2": 0.5}

    def test_bad_format(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_spec("conv1")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_spec("conv1=abc")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_catalog_command(self):
        args = build_parser().parse_args(["catalog"])
        assert args.command == "catalog"

    def test_simulate_args(self):
        args = build_parser().parse_args(
            [
                "simulate",
                "--spec",
                "conv1=0.2",
                "--instances",
                "p2.xlarge",
                "g3.4xlarge",
            ]
        )
        assert args.spec.ratio_for("conv1") == 0.2
        assert args.instances == ["p2.xlarge", "g3.4xlarge"]


class TestChoicesComeFromTables:
    """Every choice flag reads the table that owns its names."""

    def test_every_model_flag_lists_the_model_table(self):
        commands = [
            name
            for name, parser in _subcommands().items()
            if any("--model" in a.option_strings for a in parser._actions)
        ]
        assert commands == [
            "sweep", "allocate", "simulate", "plan", "loadgen", "serve",
            "trace",
        ]
        for command in commands:
            assert _choices(command, "--model") == list(MODELS), command

    @pytest.mark.parametrize("command", ["serve", "loadgen"])
    def test_arrival_flags_list_the_arrival_table(self, command):
        assert _choices(command, "--arrival") == list(ARRIVALS)

    def test_routing_inject_and_metric(self):
        assert _choices("serve", "--routing") == list(ROUTING_POLICIES)
        assert _choices("loadgen", "--inject") == list(_INJECTIONS)
        assert _choices("plan", "--metric") == list(_KNOWN_METRICS)

    def test_every_subcommand_names_its_runner(self):
        for name, parser in _subcommands().items():
            run = parser.get_default("run")
            assert run.__name__ == f"_cmd_{name}", name


class TestMain:
    def test_catalog(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "p2.16xlarge" in out

    def test_simulate(self, capsys):
        code = main(
            [
                "simulate",
                "--spec",
                "conv1=0.3,conv2=0.5",
                "--instances",
                "p2.xlarge",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "12.71 min" in out
        assert "top5 70.0%" in out

    def test_simulate_unknown_instance(self, capsys):
        code = main(
            ["simulate", "--instances", "p9.xlarge"]
        )
        assert code == 1
        assert "unknown" in capsys.readouterr().err

    def test_sweep(self, capsys):
        code = main(["sweep", "--layer", "conv2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "last sweet spot: 50%" in out

    def test_sweep_unknown_layer_is_time_neutral_but_runs(self, capsys):
        # unknown layers fall back to the default accuracy response
        code = main(["sweep", "--layer", "conv9"])
        assert code == 0

    def test_allocate_feasible(self, capsys):
        code = main(
            [
                "allocate",
                "--images",
                "2000000",
                "--deadline",
                "1",
                "--budget",
                "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "configuration" in out

    def test_allocate_infeasible(self, capsys):
        code = main(
            [
                "allocate",
                "--images",
                "500000000",
                "--deadline",
                "0.1",
                "--budget",
                "1",
            ]
        )
        assert code == 1
        assert "infeasible" in capsys.readouterr().err

    def test_experiments_unknown_id(self, capsys):
        assert main(["experiments", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_experiments_single(self, capsys):
        assert main(["experiments", "table3"]) == 0
        assert "g3.16xlarge" in capsys.readouterr().out


class TestExperimentsEngineFlags:
    def test_json_format_emits_manifest_and_results(
        self, capsys, tmp_path
    ):
        import json

        code = main(
            [
                "experiments",
                "table3",
                "fig11",
                "--format",
                "json",
                "--no-cache",
                "--manifest",
                str(tmp_path / "manifest.json"),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["manifest"]["schema"] == "repro.run-manifest/v1"
        artefacts = [r["artefact"] for r in payload["results"]]
        assert artefacts == ["table3", "fig11"]
        fig11 = payload["results"][1]
        assert fig11["status"] == "ok"
        assert fig11["data"]["images"] == 50_000
        assert (tmp_path / "manifest.json").exists()

    def test_jobs_flag_matches_serial_text(self, capsys, tmp_path):
        assert (
            main(
                [
                    "experiments",
                    "table3",
                    "fig4",
                    "--jobs",
                    "2",
                    "--no-cache",
                    "--manifest",
                    str(tmp_path / "m.json"),
                ]
            )
            == 0
        )
        parallel_out = capsys.readouterr().out
        assert (
            main(
                [
                    "experiments",
                    "table3",
                    "fig4",
                    "--no-cache",
                    "--manifest",
                    str(tmp_path / "m.json"),
                ]
            )
            == 0
        )
        assert capsys.readouterr().out == parallel_out

    def test_report_unknown_id(self, capsys):
        assert main(["report", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_report_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.md"
        assert main(["report", "table3", "--output", str(target)]) == 0
        text = target.read_text()
        assert text.startswith("# Experiment report")
        assert "| table3 | ok |" in text
        assert "p2.xlarge" in text


class TestTailCommand:
    @staticmethod
    def _log(tmp_path, events):
        path = tmp_path / "events.jsonl"
        lines = [json.dumps(e, sort_keys=True) for e in events]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    EVENTS = [
        {"seq": 0, "kind": "service.access", "trace_id": "aa" * 8},
        {"seq": 1, "kind": "anomaly.raise", "metric": "cost"},
        {"seq": 2, "kind": "anomaly.resolve", "metric": "cost"},
        {"seq": 3, "kind": "service.access", "trace_id": "bb" * 8},
    ]

    def test_prints_every_event(self, capsys, tmp_path):
        path = self._log(tmp_path, self.EVENTS)
        assert main(["tail", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [json.loads(ln)["seq"] for ln in lines] == [0, 1, 2, 3]

    def test_kind_prefix_filter(self, capsys, tmp_path):
        path = self._log(tmp_path, self.EVENTS)
        assert main(["tail", path, "--kind", "anomaly"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        kinds = [json.loads(ln)["kind"] for ln in lines]
        assert kinds == ["anomaly.raise", "anomaly.resolve"]

    def test_trace_filter(self, capsys, tmp_path):
        path = self._log(tmp_path, self.EVENTS)
        assert main(["tail", path, "--trace", "bb" * 8]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [json.loads(ln)["seq"] for ln in lines] == [3]

    def test_limit_stops_early(self, capsys, tmp_path):
        path = self._log(tmp_path, self.EVENTS)
        assert main(["tail", path, "--limit", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2

    def test_missing_file_is_exit_2(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.jsonl")
        assert main(["tail", missing]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_garbage_lines_are_skipped(self, capsys, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            'not json\n[1, 2]\n\n{"seq": 9, "kind": "x"}\n'
        )
        assert main(["tail", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [json.loads(ln)["seq"] for ln in lines] == [9]


class TestSoakCli:
    def test_injection_presets(self):
        from repro.service import PlanMixture

        mixture = PlanMixture(seed=0)
        assert _soak_injection(None, mixture) is None
        price = _soak_injection("price-step", mixture)
        assert price.cost_scale == 3.0
        fault = _soak_injection("fault-plan", mixture)
        assert fault.mixture.catalog == ("injected-fault",)
        latency = _soak_injection("latency", mixture)
        assert latency.extra_latency_s == 0.25

    def test_parser_accepts_soak_flags(self):
        args = build_parser().parse_args(
            [
                "loadgen",
                "--soak",
                "--window",
                "0.5",
                "--inject",
                "price-step",
                "--windows-out",
                "w.json",
            ]
        )
        assert args.soak and args.window == 0.5
        assert args.inject == "price-step"

    def test_healthy_soak_exits_zero_with_json(
        self, capsys, tmp_path
    ):
        windows = tmp_path / "windows.json"
        code = main(
            [
                "loadgen",
                "--soak",
                "--rate",
                "50",
                "--duration",
                "2",
                "--window",
                "0.5",
                "--catalog",
                "p2.16xlarge",
                "p2.8xlarge",
                "--images",
                "1000000",
                "--json",
                "--windows-out",
                str(windows),
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["ok"] is True
        assert summary["requests"] == 100  # 4 windows x 25
        rows = json.loads(windows.read_text())
        assert rows and {"metric", "index", "count"} <= set(rows[0])
