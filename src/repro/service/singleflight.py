"""Single-flight: collapse concurrent identical work onto one leader.

The first caller to :meth:`SingleFlight.join` a key becomes the leader
and does the work; later callers for the same key get the same flight
and wait on it (the classic thundering-herd guard).  A flight is a
:class:`concurrent.futures.Future`; the leader resolves it with
:meth:`SingleFlight.finish`, which also retires the key so the next
caller starts a fresh flight.  Timeouts and error wrapping stay with
the callers — :class:`~repro.service.engine.LayoutEngine` coalesces per
fingerprint inside one process, :class:`~repro.cluster.ClusterRouter`
per request shape across the cluster.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, wait

__all__ = ["SingleFlight"]


class SingleFlight:
    """Open flights keyed by request identity."""

    def __init__(self):
        self._flights: dict[str, Future] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._flights)

    def join(self, key: str) -> tuple[Future, bool]:
        """Return ``(flight, is_leader)`` for ``key``."""
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None:
                return flight, False
            flight = self._flights[key] = Future()
            return flight, True

    def finish(
        self, key: str, result=None, error: BaseException | None = None
    ) -> None:
        """Resolve the leader's flight and retire ``key``."""
        with self._lock:
            flight = self._flights.pop(key)
        if error is not None:
            flight.set_exception(error)
        else:
            flight.set_result(result)

    @staticmethod
    def wait(flight: Future, timeout: float) -> bool:
        """Block until ``flight`` is resolved; ``False`` on timeout."""
        return bool(wait((flight,), timeout).done)
