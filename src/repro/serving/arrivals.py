"""Request arrival processes (deterministic given a seed).

All generators return a sorted array of arrival timestamps within
``[0, duration)``.  Poisson models steady social-feed traffic; the
bursty process is a two-state modulated Poisson (quiet/burst) capturing
upload spikes, which is what stresses a latency SLO.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ARRIVALS",
    "bursty_arrivals",
    "poisson_arrivals",
    "uniform_arrivals",
]


def poisson_arrivals(
    rate_per_s: float, duration_s: float, seed: int = 0
) -> np.ndarray:
    """Homogeneous Poisson process: exponential inter-arrival times."""
    if rate_per_s <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    rng = np.random.default_rng(seed)
    # draw with headroom, then trim to the window
    expected = rate_per_s * duration_s
    n = int(expected + 6 * np.sqrt(expected) + 16)
    gaps = rng.exponential(1.0 / rate_per_s, size=n)
    times = np.cumsum(gaps)
    while times[-1] < duration_s:  # pragma: no cover - headroom fallback
        more = rng.exponential(1.0 / rate_per_s, size=n)
        times = np.concatenate([times, times[-1] + np.cumsum(more)])
    return times[times < duration_s]


def uniform_arrivals(
    rate_per_s: float, duration_s: float, seed: int = 0
) -> np.ndarray:
    """Evenly spaced arrivals (a deterministic load baseline)."""
    if rate_per_s <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    n = int(rate_per_s * duration_s)
    return np.arange(n) / rate_per_s


def bursty_arrivals(
    base_rate_per_s: float,
    duration_s: float,
    burst_factor: float = 5.0,
    burst_fraction: float = 0.2,
    phase_s: float = 10.0,
    seed: int = 0,
) -> np.ndarray:
    """Two-state modulated Poisson: quiet periods and bursts.

    The process alternates exponentially-distributed quiet and burst
    phases (mean length ``phase_s``); within a burst the arrival rate is
    ``burst_factor`` x the quiet rate.  ``burst_fraction`` is the long-run
    fraction of time spent bursting; the overall mean rate is
    ``base_rate_per_s`` regardless of the burst parameters.
    """
    if not 0 < burst_fraction < 1:
        raise ValueError("burst_fraction must be in (0, 1)")
    if burst_factor <= 1:
        raise ValueError("burst_factor must exceed 1")
    rng = np.random.default_rng(seed)
    # normalise so the time-average rate equals base_rate_per_s
    quiet_rate = base_rate_per_s / (
        (1 - burst_fraction) + burst_fraction * burst_factor
    )
    burst_rate = quiet_rate * burst_factor
    times: list[np.ndarray] = []
    t = 0.0
    bursting = False
    while t < duration_s:
        mean_len = phase_s * (
            burst_fraction if bursting else (1 - burst_fraction)
        ) * 2.0
        length = rng.exponential(mean_len)
        end = min(t + length, duration_s)
        rate = burst_rate if bursting else quiet_rate
        expected = rate * (end - t)
        if expected > 0:
            n = int(expected + 6 * np.sqrt(expected) + 16)
            gaps = rng.exponential(1.0 / rate, size=n)
            phase_times = t + np.cumsum(gaps)
            times.append(phase_times[phase_times < end])
        t = end
        bursting = not bursting
    if not times:
        return np.empty(0)
    return np.sort(np.concatenate(times))


#: arrival-process name -> generator, each called as
#: ``generator(rate_per_s, duration_s, seed=seed)``: the one list the
#: fleet workload, the load generator and every ``--arrival`` flag read
ARRIVALS = {
    "poisson": poisson_arrivals,
    "uniform": uniform_arrivals,
    "bursty": bursty_arrivals,
}
