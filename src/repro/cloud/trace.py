"""Execution traces for batch inference jobs.

The model's Equations 1-4 collapse a job to (T, C); operators debugging
a configuration want to see *where the time goes*: how the workload was
split, how many batches each instance ran, and how long each instance
idles waiting for the makespan-setting straggler.  :func:`trace_job`
expands a configuration evaluation into per-instance traces, and
:func:`render_gantt` draws them as an ASCII utilisation chart — which
makes the even-split straggler effect (the Eq. 4 artefact the split
ablation quantifies) directly visible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.configuration import ResourceConfiguration
from repro.errors import ConfigurationError
from repro.perf.latency import CalibratedTimeModel
from repro.pruning.base import PruneSpec

__all__ = ["InstanceTrace", "JobTrace", "trace_job", "render_gantt"]


@dataclass(frozen=True)
class InstanceTrace:
    """One instance's share of a batch job."""

    label: str
    gpus_used: int
    images: int
    batch_width: int
    batches_per_gpu: int
    busy_s: float
    idle_s: float

    @property
    def utilisation(self) -> float:
        total = self.busy_s + self.idle_s
        return self.busy_s / total if total > 0 else 0.0


@dataclass(frozen=True)
class JobTrace:
    """A whole job: per-instance traces plus the makespan."""

    instances: tuple[InstanceTrace, ...]
    makespan_s: float
    straggler: str

    @property
    def mean_utilisation(self) -> float:
        return sum(t.utilisation for t in self.instances) / len(
            self.instances
        )

    @property
    def wasted_gpu_seconds(self) -> float:
        """Idle GPU-seconds billed because of the makespan coupling."""
        return sum(t.idle_s * t.gpus_used for t in self.instances)


def trace_job(
    time_model: CalibratedTimeModel,
    spec: PruneSpec,
    configuration: ResourceConfiguration,
    images: int,
    proportional_split: bool = False,
) -> JobTrace:
    """Expand one configuration evaluation into per-instance traces."""
    if images < 1:
        raise ConfigurationError("images must be >= 1")
    allocation = configuration.allocation(images, proportional_split)
    traces = []
    finish_times = []
    for instance, share in zip(configuration.instances, allocation):
        device = instance.itype.gpu
        per_gpu = -(-share // instance.gpus_used) if share else 0
        batch = max(1, min(time_model.max_batch(device), per_gpu or 1))
        n_batches = -(-per_gpu // batch) if per_gpu else 0
        busy = instance.inference_time(time_model, spec, share)
        finish_times.append(busy)
        traces.append(
            (instance, share, batch, n_batches, busy)
        )
    makespan = max(finish_times)
    out = []
    straggler = ""
    for (instance, share, batch, n_batches, busy), finish in zip(
        traces, finish_times
    ):
        label = str(instance)
        if finish == makespan and not straggler:
            straggler = label
        out.append(
            InstanceTrace(
                label=label,
                gpus_used=instance.gpus_used,
                images=share,
                batch_width=batch,
                batches_per_gpu=n_batches,
                busy_s=busy,
                idle_s=makespan - busy,
            )
        )
    return JobTrace(
        instances=tuple(out), makespan_s=makespan, straggler=straggler
    )


def render_gantt(trace: JobTrace, width: int = 50) -> str:
    """ASCII utilisation chart: '#' busy, '.' idle-until-makespan."""
    if trace.makespan_s <= 0:
        raise ConfigurationError("empty trace")
    label_width = max(len(t.label) for t in trace.instances)
    lines = []
    for t in trace.instances:
        busy_cols = int(round(width * t.busy_s / trace.makespan_s))
        bar = "#" * busy_cols + "." * (width - busy_cols)
        marker = "  <- straggler" if t.label == trace.straggler else ""
        lines.append(
            f"{t.label.ljust(label_width)} |{bar}| "
            f"{t.utilisation:4.0%} busy, {t.images} images{marker}"
        )
    lines.append(
        f"makespan {trace.makespan_s:.1f}s, mean utilisation "
        f"{trace.mean_utilisation:.0%}, wasted "
        f"{trace.wasted_gpu_seconds:.0f} GPU-seconds"
    )
    return "\n".join(lines)
