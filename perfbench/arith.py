"""The benchmark's own arithmetic: percentiles, self time, capacity.

Everything here is pure (no sockets, no clocks) so the rules the
benchmark reports by are unit-tested in ``perfbench/tests``.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

#: a reported percentile must have at least this many samples above it
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def rank(n: int, q: float) -> int:
    """1-based nearest-rank index of percentile ``q`` in ``n`` samples."""
    return max(1, math.ceil(q / 100.0 * n - 1e-9))


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above percentile ``q``."""
    return n - rank(n, q)


def min_samples(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count whose percentile ``q`` has ``min_beyond``
    samples above it."""
    n = 1
    while beyond(n, q) < min_beyond:
        n += 1
    return n


def percentile(values, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank percentile ``q`` of ``values``.

    Raises :class:`InsufficientSamples` unless at least ``min_beyond``
    samples lie above the returned one, so a reported tail is never a
    lone maximum in disguise.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0 or beyond(n, q) < min_beyond:
        raise InsufficientSamples(
            f"p{q:g} needs >= {min_samples(q, min_beyond)} samples "
            f"({min_beyond} beyond it), got {n}"
        )
    return ordered[rank(n, q) - 1]


def highest_supported(n: int, min_beyond: int = MIN_BEYOND) -> float | None:
    """The highest whole percentile ``n`` samples support, or ``None``."""
    for q in range(99, 0, -1):
        if n and beyond(n, q) >= min_beyond:
            return float(q)
    return None


def median(values) -> float:
    """Median (mean of the middle pair for even counts)."""
    return float(statistics.median(values))


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One wrapped call: ``[start, end]`` on one thread, under ``parent``."""

    id: int
    parent: int | None
    layer: str
    start: float
    end: float
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end)
            )
    return {
        span.id: span.duration
        - _covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


# ----------------------------------------------------------------------
# capacity search
# ----------------------------------------------------------------------
#: factor between probes until a step sustains and a faster one fails
GROWTH = 1.25
#: offered rate (1/s) below which the search gives up
MIN_RATE = 0.5


@dataclass(frozen=True)
class Step:
    """One fixed-rate probe of the target.

    ``passed`` means the target met the latency limit with nothing
    failing; ``generator_ok`` means the load generator itself kept to
    its schedule.  Only a step that is both counts as sustained.
    """

    rate: float
    passed: bool
    generator_ok: bool = True

    @property
    def sustained(self) -> bool:
        return self.passed and self.generator_ok


def _bracket(steps) -> tuple[float | None, float | None]:
    """(highest sustained rate, lowest unsustained rate above it)."""
    sustained = [s.rate for s in steps if s.sustained]
    lo = max(sustained) if sustained else None
    failing = [
        s.rate for s in steps if not s.sustained and (lo is None or s.rate > lo)
    ]
    return lo, (min(failing) if failing else None)


@dataclass(frozen=True)
class Capacity:
    """Outcome of :func:`search_capacity`."""

    rate: float | None
    steps: tuple[Step, ...]
    resolution: float

    @property
    def resolved(self) -> bool:
        """True when the bracket closed to the requested resolution."""
        lo, hi = _bracket(self.steps)
        return (
            lo is not None
            and hi is not None
            and hi / lo <= 1.0 + self.resolution + 1e-12
        )

    @property
    def generator_limited(self) -> bool:
        """True when the step bounding the capacity from above failed
        because the generator fell behind, not the target."""
        _, hi = _bracket(self.steps)
        return any(
            s.rate == hi and not s.generator_ok for s in self.steps
        )


def search_capacity(
    probe,
    start: float,
    *,
    resolution: float = 0.025,
    max_steps: int = 8,
) -> Capacity:
    """Highest sustained offered rate, by bracketing then bisection.

    ``probe(rate) -> Step`` runs the target at ``rate``, first at
    ``start``.  The search multiplies or divides by :data:`GROWTH` until
    some step sustains and a faster one does not, then bisects that
    bracket in log space until its ratio is within ``1 + resolution`` or
    ``max_steps`` probes were spent.  A step where the generator fell
    behind never counts as sustained, so the reported rate always comes
    from a step the generator kept up with.
    """
    steps: list[Step] = []
    for _ in range(max_steps):
        lo, hi = _bracket(steps)
        if lo is not None and hi is not None:
            if hi / lo <= 1.0 + resolution:
                break
            rate = math.sqrt(lo * hi)
        elif lo is not None:
            rate = lo * GROWTH
        elif hi is not None:
            rate = hi / GROWTH
            if rate < MIN_RATE:
                break
        else:
            rate = start
        steps.append(probe(rate))
    return Capacity(
        rate=_bracket(steps)[0], steps=tuple(steps), resolution=resolution
    )
