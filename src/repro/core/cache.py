"""One bounded, content-keyed evaluation cache with per-key single-flight.

Both process-wide evaluation caches — :func:`repro.core.evalspace.evaluate`
and :func:`repro.serving.fleet.evaluate_fleet` — are a
:class:`SingleFlightCache`, so every caller gets the same guarantees: a
hit never waits on a build of another key; concurrent misses on one key
build once (the waiters count as hits); distinct keys build
concurrently; a build that raises caches nothing and its waiters retry;
at most :data:`MAX_ENTRIES` finished values are kept, oldest evicted
first.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Hashable
from concurrent.futures import Future

from repro.obs import get_metrics

__all__ = ["MAX_ENTRIES", "SingleFlightCache"]

#: finished values each cache keeps before evicting its oldest
MAX_ENTRIES = 32


class SingleFlightCache:
    """A bounded ``key -> value`` memo whose misses build once per key.

    Traffic is counted as ``<name>.cache_hits``/``<name>.cache_misses``;
    :meth:`info` sums ``tally = (label, size_of_value)`` over the cached
    values.  The lock guards the dictionaries, never a build.
    """

    def __init__(self, name: str, tally: tuple[str, Callable]) -> None:
        self._hits = f"{name}.cache_hits"
        self._misses = f"{name}.cache_misses"
        self._tally = tally
        self._entries: dict = {}
        self._flights: dict[Hashable, Future] = {}
        self._lock = threading.Lock()

    def get(self, key: Hashable, compute: Callable):
        """The value for ``key``, calling ``compute()`` on a miss."""
        while True:
            with self._lock:
                value = self._entries.get(key)  # values are never None
                flight = None
                if value is None:
                    flight = self._flights.get(key)
                    if flight is None:
                        flight = self._flights[key] = Future()
                        break  # this caller builds
            if flight is None or flight.exception() is None:
                get_metrics().counter(self._hits).inc()
                return value if flight is None else flight.result()
            # the build this caller waited on failed and cached nothing
        get_metrics().counter(self._misses).inc()
        try:
            value = compute()
        except BaseException as exc:
            with self._lock:
                del self._flights[key]
            flight.set_exception(exc)
            raise
        with self._lock:
            while len(self._entries) >= MAX_ENTRIES:
                self._entries.pop(next(iter(self._entries)))  # oldest
            self._entries[key] = value
            del self._flights[key]
        flight.set_result(value)
        return value

    def clear(self) -> None:
        """Drop every finished entry (builds in flight still land)."""
        with self._lock:
            self._entries.clear()

    def info(self) -> dict[str, int]:
        """Current occupancy: finished entries and the tally over them."""
        with self._lock:
            values = list(self._entries.values())
        label, size = self._tally
        return {"entries": len(values), label: sum(map(size, values))}
