"""The versioned request/response API surface (``repro.api``).

Covers the v1 contract: request validation with stable error codes,
lossless ``to_dict``/``from_dict`` round-trips, byte-identical parity
between ``PlanResponse.render()`` and the historical ``repro plan``
CLI output, and the agreement of the plan query kinds.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro import api
from repro.api import (
    API_SCHEMA,
    ERROR_STATUS,
    ApiError,
    FleetDesign,
    FleetReplica,
    FleetRequest,
    PlanRequest,
    PlanResponse,
)
from repro.api.types import MAX_FLEET_INSTANCES, MAX_FLEET_ROUTING_WORK
from repro.cli import main
from repro.obs import MetricsRegistry, scoped_observability
from repro.errors import (
    ConfigurationError,
    InfeasibleError,
    ReproError,
    UnknownArtefactError,
)

#: a small grid (two P2 types, 2 instances each) keeping API tests fast
SMALL = {"catalog": ("p2.16xlarge", "p2.8xlarge"), "instances_per_type": 2}


class TestApiError:
    def test_codes_map_to_canonical_statuses(self):
        assert ERROR_STATUS["invalid_request"] == 400
        assert ERROR_STATUS["unknown_model"] == 404
        assert ERROR_STATUS["not_found"] == 404
        assert ERROR_STATUS["infeasible"] == 422
        assert ERROR_STATUS["overloaded"] == 503
        assert ERROR_STATUS["internal"] == 500
        for code, status in ERROR_STATUS.items():
            assert ApiError(code, "x").http_status == status

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            ApiError("no_such_code", "x")

    def test_round_trip(self):
        err = ApiError("infeasible", "too poor", detail={"budget": 1})
        body = err.to_dict()
        assert body["schema"] == API_SCHEMA
        restored = ApiError.from_dict(json.loads(json.dumps(body)))
        assert restored.code == "infeasible"
        assert restored.http_status == 422
        assert str(restored) == "too poor"
        assert restored.detail == {"budget": 1}

    def test_from_exception_maps_the_hierarchy(self):
        assert ApiError.from_exception(InfeasibleError("x")).code == "infeasible"
        assert (
            ApiError.from_exception(
                UnknownArtefactError(["x"], ["a", "b"])
            ).code
            == "unknown_artefact"
        )
        assert (
            ApiError.from_exception(ConfigurationError("x")).code
            == "invalid_request"
        )
        assert (
            ApiError.from_exception(ReproError("x")).code == "invalid_request"
        )
        assert ApiError.from_exception(RuntimeError("x")).code == "internal"
        passthrough = ApiError("overloaded", "x")
        assert ApiError.from_exception(passthrough) is passthrough


class TestPlanRequest:
    def test_round_trips_losslessly(self):
        request = PlanRequest(
            target=78.0,
            deadline_h=6.0,
            budget=100.0,
            catalog=("p2.xlarge", "p2.8xlarge"),
        )
        body = json.loads(json.dumps(request.to_dict()))
        assert PlanRequest.from_dict(body) == request
        assert PlanRequest.from_dict(body).cache_key() == request.cache_key()

    def test_unknown_model_is_404(self):
        with pytest.raises(ApiError) as exc:
            PlanRequest(target=78.0, model="resnet")
        assert exc.value.code == "unknown_model"
        assert exc.value.http_status == 404

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target": 0.0},
            {"target": 120.0},
            {"target": True},
            {"target": 78.0, "metric": "top3"},
            {"target": 78.0, "deadline_h": -1.0},
            {"target": 78.0, "budget": 0.0},
            {"target": 78.0, "images": 0},
            {"target": 78.0, "instances_per_type": 0},
            {"target": 78.0, "catalog": ()},
        ],
    )
    def test_invalid_fields_are_400(self, kwargs):
        with pytest.raises(ApiError) as exc:
            PlanRequest(**kwargs)
        assert exc.value.code == "invalid_request"
        assert exc.value.http_status == 400

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ApiError) as exc:
            PlanRequest.from_dict({"target": 78.0, "deadline": 6.0})
        assert exc.value.code == "invalid_request"
        assert "deadline" in str(exc.value)

    def test_from_dict_rejects_wrong_schema(self):
        with pytest.raises(ApiError, match="repro.api/v1"):
            PlanRequest.from_dict({"schema": "repro.api/v2", "target": 78.0})

    def test_from_dict_rejects_non_integer_counts(self):
        for field, value in (("images", 2.5), ("images", True),
                             ("instances_per_type", "2")):
            with pytest.raises(ApiError) as exc:
                PlanRequest.from_dict({"target": 78.0, field: value})
            assert exc.value.code == "invalid_request"

    def test_from_dict_requires_target(self):
        with pytest.raises(ApiError, match="target"):
            PlanRequest.from_dict({})


class TestPlan:
    def test_min_budget_answer(self):
        response = api.plan(
            PlanRequest(target=78.0, deadline_h=6.0, **SMALL)
        )
        assert response.kind == "min_budget"
        assert response.best.top5 >= 78.0
        assert response.best.time_h <= 6.0

    def test_response_round_trips_byte_identically(self):
        response = api.plan(
            PlanRequest(target=78.0, deadline_h=6.0, **SMALL)
        )
        wire = json.dumps(response.to_dict(), sort_keys=True)
        restored = PlanResponse.from_dict(json.loads(wire))
        assert json.dumps(restored.to_dict(), sort_keys=True) == wire
        assert restored.render() == response.render()

    def test_frontier_is_fastest_first(self):
        response = api.plan(PlanRequest(target=78.0, **SMALL))
        assert response.kind == "frontier"
        times = [p.time_s for p in response.points]
        assert times == sorted(times)

    def test_infeasible_is_422(self):
        with pytest.raises(ApiError) as exc:
            api.plan(PlanRequest(target=78.0, metric="top1", **SMALL))
        assert exc.value.code == "infeasible"
        assert exc.value.http_status == 422

    def test_budget_cap_on_deadline_query(self):
        with pytest.raises(ApiError) as exc:
            api.plan(
                PlanRequest(
                    target=78.0, deadline_h=6.0, budget=0.01, **SMALL
                )
            )
        assert exc.value.code == "infeasible"
        assert "budget $0.01" in str(exc.value)


class TestCliParity:
    """`repro plan` output must be byte-identical through the API."""

    CASES = [
        ["plan", "--target", "78", "--deadline", "6"],
        ["plan", "--target", "78", "--budget", "100"],
        ["plan", "--target", "80"],
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda a: " ".join(a[1:]))
    def test_render_matches_cli_stdout(self, argv, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out
        namespace = _parse(argv)
        response = api.plan(
            PlanRequest(
                target=namespace.target,
                metric=namespace.metric,
                deadline_h=namespace.deadline,
                budget=namespace.budget,
                images=namespace.images,
                instances_per_type=namespace.instances_per_type,
            )
        )
        assert out == response.render() + "\n"

    def test_infeasible_goes_to_stderr_with_exit_1(self, capsys):
        rc = main(["plan", "--target", "80", "--metric", "top1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert (
            captured.err
            == "infeasible: no configuration reaches 80.0% top1\n"
        )

    def test_budget_capped_deadline_is_infeasible(self, capsys):
        rc = main(
            ["plan", "--target", "78", "--deadline", "6", "--budget", "40"]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith(
            "infeasible: cheapest plan inside 6h costs $"
        )


def _parse(argv):
    from repro.cli import build_parser

    return build_parser().parse_args(argv)


class TestFleetRequest:
    def test_round_trips(self):
        request = FleetRequest(
            designs=(
                FleetDesign(
                    replicas=(
                        FleetReplica("p2.8xlarge"),
                        FleetReplica(
                            "p2.xlarge",
                            count=2,
                            spec=(("conv1", 0.3), ("conv2", 0.5)),
                        ),
                    ),
                    routing="tiered",
                ),
            ),
            rate_per_s=100.0,
            duration_s=30.0,
            floors=((0.0, 0.7), (75.0, 0.3)),
        )
        body = json.loads(json.dumps(request.to_dict()))
        assert FleetRequest.from_dict(body) == request

    def test_evaluate_and_cheapest(self):
        request = FleetRequest(
            designs=(
                FleetDesign(
                    replicas=(FleetReplica("p2.xlarge"),), name="solo"
                ),
            ),
            rate_per_s=20.0,
            duration_s=10.0,
        )
        evaluated = api.evaluate_fleets(request)
        assert evaluated.kind == "evaluate"
        (view,) = evaluated.views
        assert view.name == "solo"
        assert view.served > 0
        cheapest = api.cheapest_fleets(request)
        assert cheapest.chosen == "solo"

    def test_duplicate_design_names_rejected(self):
        request = FleetRequest(
            designs=(
                FleetDesign(replicas=(FleetReplica("p2.xlarge"),), name="a"),
                FleetDesign(replicas=(FleetReplica("p2.xlarge"),), name="a"),
            ),
            rate_per_s=20.0,
            duration_s=10.0,
        )
        with pytest.raises(ApiError) as exc:
            api.evaluate_fleets(request)
        assert exc.value.code == "invalid_request"

    def test_unmeetable_constraints_are_infeasible(self):
        request = FleetRequest(
            designs=(
                FleetDesign(
                    replicas=(FleetReplica("p2.xlarge"),), name="solo"
                ),
            ),
            rate_per_s=20.0,
            duration_s=10.0,
            p99_s=1e-9,
        )
        with pytest.raises(ApiError) as exc:
            api.cheapest_fleets(request)
        assert exc.value.code == "infeasible"


class TestWorkBudget:
    """A small body must not ask for unbounded work: over-budget plan
    grids and fleet simulations are rejected 413 on decode, before any
    evaluation."""

    @staticmethod
    def _fleet_body(rate_per_s: float, duration_s: float, designs: int):
        design = FleetDesign(replicas=(FleetReplica("p2.xlarge"),))
        return {
            "designs": [
                {**design.to_dict(), "name": f"d{i}"} for i in range(designs)
            ],
            "rate_per_s": rate_per_s,
            "duration_s": duration_s,
        }

    def test_over_budget_requests_never_reach_the_caches(self):
        registry = MetricsRegistry()
        with scoped_observability(metrics=registry):
            with pytest.raises(ApiError) as plan_exc:
                api.plan(
                    PlanRequest.from_dict(
                        {"target": 78.0, "instances_per_type": 10}
                    )
                )
            with pytest.raises(ApiError) as fleet_exc:
                api.evaluate_fleets(
                    FleetRequest.from_dict(self._fleet_body(1e4, 1e3, 1))
                )
            with pytest.raises(ApiError) as routing_exc:
                api.cheapest_fleets(
                    FleetRequest.from_dict(self._wide_body(100, 1e3, 500.0))
                )
        for exc in (plan_exc, fleet_exc, routing_exc):
            assert exc.value.code == "invalid_request"
            assert exc.value.http_status == 413
        assert "106,293,600 points" in str(plan_exc.value)
        counters = registry.snapshot().get("counters", {})
        assert not [
            name
            for name in counters
            if name.startswith(("evalspace.", "fleet."))
        ]

    @staticmethod
    def _wide_body(replicas: int, rate_per_s: float, duration_s: float):
        """One design of ``replicas`` single-instance replicas."""
        return {
            "designs": [
                {"replicas": [{"instance_type": "p2.xlarge"}] * replicas}
            ],
            "rate_per_s": rate_per_s,
            "duration_s": duration_s,
        }

    def test_routing_budget_counts_replicas_times_requests(self):
        # 128 replicas: the instance budget's widest fleet
        wide = MAX_FLEET_ROUTING_WORK / MAX_FLEET_INSTANCES
        FleetRequest.from_dict(self._wide_body(MAX_FLEET_INSTANCES, wide, 1.0))
        with pytest.raises(ApiError) as exc:
            FleetRequest.from_dict(
                self._wide_body(MAX_FLEET_INSTANCES, wide * 1.01, 1.0)
            )
        assert exc.value.http_status == 413
        assert "replica-requests" in str(exc.value)
        # the request budget alone admitted 128 replicas x 10^6 requests
        with pytest.raises(ApiError):
            FleetRequest.from_dict(
                self._wide_body(MAX_FLEET_INSTANCES, 1e4, 100.0)
            )
        # every design's replicas count: each of these two designs of 11
        # replicas x 5 x 10^5 requests fits alone, not both together
        design = {"replicas": [{"instance_type": "p2.xlarge"}] * 11}
        with pytest.raises(ApiError):
            FleetRequest.from_dict(
                {
                    "designs": [
                        {**design, "name": "a"},
                        {**design, "name": "b"},
                    ],
                    "rate_per_s": 5e3,
                    "duration_s": 100.0,
                }
            )

    def test_routing_budget_clears_the_in_repo_bodies(self):
        sweet = {"conv1": 0.3, "conv2": 0.5}
        # the benchmark's cold fleet: 4 replicas x up to 12,000 requests
        FleetRequest(
            designs=(
                FleetDesign(
                    replicas=(
                        FleetReplica("p2.8xlarge"),
                        FleetReplica("p2.xlarge", spec=sweet, name="a"),
                        FleetReplica("p2.xlarge", spec=sweet, name="b"),
                    ),
                    name="tiered",
                    routing="tiered",
                ),
                FleetDesign(
                    replicas=(FleetReplica("p2.8xlarge", count=2),),
                    name="pair",
                ),
            ),
            rate_per_s=200.0,
            duration_s=60.0,
        )
        # docs/service.md's example: 2 replicas x 500 requests
        FleetRequest(
            designs=(
                FleetDesign(
                    replicas=(
                        FleetReplica("p2.8xlarge"),
                        FleetReplica("p2.xlarge", count=2, spec=sweet),
                    ),
                    routing="tiered",
                ),
            ),
            rate_per_s=50.0,
            duration_s=10.0,
        )
        # the CI smoke body (rejected later, for its NaN max-wait)
        FleetRequest.from_dict(self._fleet_body(10.0, 5.0, 1))

    def test_budget_counts_the_catalog_and_the_designs(self):
        # two types allow a far deeper grid than the full catalog
        narrow = {"target": 78.0, "catalog": ("p2.xlarge", "p2.8xlarge")}
        PlanRequest(**narrow, instances_per_type=40)
        with pytest.raises(ApiError):
            PlanRequest(**narrow, instances_per_type=70)
        FleetRequest.from_dict(self._fleet_body(1000.0, 500.0, 2))
        with pytest.raises(ApiError):
            FleetRequest.from_dict(self._fleet_body(1000.0, 500.0, 3))

    def test_budget_clears_the_defaults_and_the_paper_space(self):
        assert PlanRequest(target=78.0).instances_per_type == 2
        # the paper's space: 3 of each of the 6 types, 245,700 points
        PlanRequest(target=78.0, instances_per_type=3)
        PlanRequest(target=78.0, model="googlenet", instances_per_type=3)
        with pytest.raises(ApiError):
            PlanRequest(target=78.0, instances_per_type=4)
        FleetRequest.from_dict(self._fleet_body(200.0, 60.0, 2))

    def test_budget_counts_instances_over_every_design(self):
        def body(count):
            design = {"replicas": [{"instance_type": "p2.xlarge", "count": count}]}
            return {
                "designs": [{**design, "name": "a"}, {**design, "name": "b"}],
                "rate_per_s": 10.0,
                "duration_s": 5.0,
            }

        half = MAX_FLEET_INSTANCES // 2
        FleetRequest.from_dict(body(half))
        with pytest.raises(ApiError) as exc:
            FleetRequest.from_dict(body(half + 1))
        assert exc.value.http_status == 413
        assert "instance" in str(exc.value)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_rates_rejected(self, rate):
        with pytest.raises(ApiError) as exc:
            FleetRequest.from_dict(self._fleet_body(rate, 10.0, 1))
        assert exc.value.code == "invalid_request"


class TestGoodputAccuracyFrontier:
    @staticmethod
    def _spec(routing, replicas, admission=None):
        from repro.calibration import (
            caffenet_accuracy_model,
            caffenet_time_model,
        )
        from repro.serving import FleetSpec

        return FleetSpec(
            caffenet_time_model(),
            caffenet_accuracy_model(),
            replicas,
            routing=routing,
            admission=admission,
        )

    @staticmethod
    def _replica(name, spec=None):
        from repro.cloud.catalog import instance_type
        from repro.cloud.configuration import ResourceConfiguration
        from repro.cloud.instance import CloudInstance
        from repro.pruning.base import PruneSpec
        from repro.serving import BatchPolicy, ReplicaSpec

        return ReplicaSpec(
            name,
            ResourceConfiguration(
                [CloudInstance(instance_type("p2.xlarge"))]
            ),
            spec if spec is not None else PruneSpec.unpruned(),
            BatchPolicy(max_batch=32, max_wait_s=0.05),
        )

    def test_empty_candidates_rejected(self):
        from repro.serving import FleetWorkload

        with pytest.raises(ApiError) as exc:
            api.goodput_accuracy_frontier(
                (), FleetWorkload(10.0, 5.0)
            )
        assert exc.value.code == "invalid_request"

    def test_dominated_candidate_falls_off_the_frontier(self):
        from repro.pruning.base import PruneSpec
        from repro.serving import AdmissionPolicy, FleetWorkload

        sweet = PruneSpec({"conv1": 0.3, "conv2": 0.5})
        fleet = (
            self._replica("gold"),
            self._replica("cheap", sweet),
        )
        # sustained overload of the floored tier: static sheds at the
        # queue limit, adaptive degrades and keeps serving
        workload = FleetWorkload(
            70.0,
            20.0,
            seed=3,
            floors=((0.0, 0.5), (75.0, 0.5)),
            deadlines=((0.4, 0.5), (1.2, 0.5)),
        )
        static = self._spec(
            "tiered", fleet, AdmissionPolicy(queue_limit=40.0)
        )
        adaptive = self._spec(
            "adaptive",
            fleet,
            AdmissionPolicy(queue_limit=40.0, degrade_limit=20.0),
        )
        frontier = api.goodput_accuracy_frontier(
            (static, adaptive), workload
        )
        specs = [spec for spec, _ in frontier]
        # equal hourly rate: only the higher goodput@accuracy survives
        assert len(specs) == 1
        pairs = [
            (s, api.fleet_report(s, workload))
            for s in (static, adaptive)
        ]
        best, _ = max(
            pairs, key=lambda p: p[1].goodput_at_accuracy
        )
        assert specs[0] is best
        assert best is adaptive

    def test_sorted_by_cost_and_single_candidate_survives(self):
        from repro.serving import FleetWorkload

        workload = FleetWorkload(20.0, 10.0, seed=1)
        small = self._spec("jsq", (self._replica("solo"),))
        big = self._spec(
            "jsq",
            (self._replica("a"), self._replica("b")),
        )
        frontier = api.goodput_accuracy_frontier(
            (big, small), workload
        )
        rates = [spec.hourly_rate for spec, _ in frontier]
        assert rates == sorted(rates)
        only = api.goodput_accuracy_frontier((small,), workload)
        assert only[0][0] is small


class TestPlanQueries:
    def test_inverse_queries_agree(self):
        """The three plan kinds are consistent views of one space: the
        fastest plan within the cheapest in-deadline plan's cost is no
        slower and no dearer than it."""
        budget = api.plan(
            PlanRequest(target=78.0, deadline_h=24.0, **SMALL)
        ).best
        deadline = api.plan(
            PlanRequest(target=78.0, budget=budget.cost, **SMALL)
        ).best
        front = api.plan(PlanRequest(target=78.0, **SMALL)).points
        assert deadline.cost <= budget.cost
        assert deadline.time_s <= budget.time_s
        assert front


class TestDeprecatedShims:
    """The planner's deprecated free functions are gone; the API path
    stays free of deprecation warnings."""

    def test_api_path_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            api.plan(PlanRequest(target=78.0, deadline_h=24.0, **SMALL))
