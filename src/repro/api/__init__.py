"""The unified, versioned request/response API (schema ``repro.api/v1``).

One typed surface for every planner and fleet query, shared verbatim
by the :mod:`repro.service` HTTP control plane, the ``repro plan`` /
``repro service`` CLI subcommands and library callers:

* build a frozen request (:class:`PlanRequest`, :class:`FleetRequest`),
* hand it to an operation (:func:`plan`, :func:`evaluate_fleets`,
  :func:`cheapest_fleets`) — or to a
  :class:`~repro.api.client.PlanningClient` pointed at a server,
* get a frozen response (:class:`PlanResponse`,
  :class:`FleetResponse`) whose ``to_dict()`` is the wire format and
  whose views are plain data;
* failures raise :class:`ApiError` with a stable machine code mapped
  to a canonical HTTP status (:data:`ERROR_STATUS`).
"""

from repro.api.client import PlanningClient
from repro.api.handlers import (
    cheapest_fleets,
    clear_api_caches,
    evaluate_fleets,
    fleet_report,
    goodput_accuracy_frontier,
    plan,
    planning_space,
    select_cheapest_fleet,
)
from repro.api.types import (
    API_SCHEMA,
    ERROR_STATUS,
    ApiError,
    FleetDesign,
    FleetReplica,
    FleetRequest,
    FleetResponse,
    FleetView,
    PlanPoint,
    PlanRequest,
    PlanResponse,
    ReplicaView,
)

__all__ = [
    "API_SCHEMA",
    "ERROR_STATUS",
    "ApiError",
    "FleetDesign",
    "FleetReplica",
    "FleetRequest",
    "FleetResponse",
    "FleetView",
    "PlanPoint",
    "PlanRequest",
    "PlanResponse",
    "PlanningClient",
    "ReplicaView",
    "cheapest_fleets",
    "clear_api_caches",
    "evaluate_fleets",
    "fleet_report",
    "goodput_accuracy_frontier",
    "plan",
    "planning_space",
    "select_cheapest_fleet",
]
