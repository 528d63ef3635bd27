"""Discrete-event online-serving simulator.

The paper's introduction motivates the cost-accuracy trade with
*near-real-time* image filtering (350 M uploads/day on a social
platform), but its evaluation only covers offline batch jobs.  This
subpackage extends the reproduction to the motivating scenario: requests
arrive continuously, a batcher packs them, GPU workers serve them with
batch-size-dependent latency from the calibrated models, and the report
gives latency percentiles, deadline-miss rate, utilisation and
per-second-billed cost.  Both simulators optionally run under a
:class:`repro.cloud.faults.FaultPlan` — preemptions, slowdowns, retry
budgets and request timeouts — yielding goodput and availability on top
of the cost-accuracy axes.

* :mod:`repro.serving.events`   — the event queue;
* :mod:`repro.serving.arrivals` — Poisson / uniform / bursty arrivals;
* :mod:`repro.serving.batcher`  — batch-forming policy;
* :mod:`repro.serving.simulator`— the simulator + report, run on
  the batch-granularity :mod:`repro.serving.columnar` engine;
* :mod:`repro.serving.autoscaler` — the elastic fleet;
* :mod:`repro.serving.router`   — fleet-scale routing + admission
  control over N heterogeneous replicas (see docs/serving.md);
* :mod:`repro.serving.fleet`    — declarative ``FleetSpec`` with the
  content-keyed evaluation cache behind the fleet planner query;
* :mod:`repro.serving.metrics`  — the statistics every run report
  shares (``LatencyStats``/``RunStats``) and post-hoc views;
* :mod:`repro.serving.reference` — the per-event serving and routing
  loops the columnar engines replay bit for bit (the test oracle; not
  exported here).
"""

from repro.cloud.faults import FaultPlan, Preemption, Slowdown
from repro.obs.telemetry import ServingTelemetry, SloPolicy
from repro.serving.arrivals import (
    bursty_arrivals,
    poisson_arrivals,
    uniform_arrivals,
)
from repro.serving.autoscaler import (
    AutoscalePolicy,
    AutoscaleReport,
    AutoscalingSimulator,
)
from repro.serving.batcher import BatchPolicy
from repro.serving.fleet import (
    FleetSpec,
    FleetWorkload,
    evaluate_fleet,
)
from repro.serving.router import (
    ROUTING_POLICIES,
    AdmissionPolicy,
    FleetReport,
    FleetRouter,
    FleetTelemetry,
    ReplicaSpec,
    fluid_backlog_trajectory,
)
from repro.serving.simulator import ServingReport, ServingSimulator

__all__ = [
    "AdmissionPolicy",
    "AutoscalePolicy",
    "AutoscaleReport",
    "AutoscalingSimulator",
    "BatchPolicy",
    "FaultPlan",
    "FleetReport",
    "FleetRouter",
    "FleetSpec",
    "FleetTelemetry",
    "FleetWorkload",
    "Preemption",
    "ROUTING_POLICIES",
    "ReplicaSpec",
    "ServingReport",
    "ServingSimulator",
    "ServingTelemetry",
    "SloPolicy",
    "Slowdown",
    "bursty_arrivals",
    "evaluate_fleet",
    "fluid_backlog_trajectory",
    "poisson_arrivals",
    "uniform_arrivals",
]
