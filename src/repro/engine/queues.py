"""Bounded hardware FIFO queues with backpressure.

:class:`HWQueue` models an on-chip FIFO (e.g. the traversal unit's mark queue
and tracer queue). ``put`` blocks the producing process while the queue is
full and ``get`` blocks the consumer while it is empty — exactly the
back-pressure behaviour the paper relies on ("the queues exert back-pressure
to avoid overflowing, and marker and tracer can only issue requests if there
is space", §V-C).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional, Tuple

from repro.engine.simulator import Completion, Event, SimulationError, Simulator


class QueueFullError(SimulationError):
    """Raised by :meth:`HWQueue.put_nowait` when the queue is full."""


class QueueEmptyError(SimulationError):
    """Raised by :meth:`HWQueue.get_nowait` when the queue is empty."""


class HWQueue:
    """A bounded FIFO connecting two hardware processes.

    ``yield queue.put(item)`` completes once the item has been accepted;
    ``item = yield queue.get()`` completes with the dequeued item. Both
    maintain FIFO order among waiters.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"queue capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Tuple[Event, Any]] = deque()
        self._ev_put = f"{name}.put"
        self._ev_get = f"{name}.get"
        # Shared always-ready handle for immediate puts: a Completion with
        # time 0 is triggered at every cycle >= 0 and carries value None,
        # so one handle per queue serves every immediate put for the
        # simulation's lifetime. (``get`` cannot share: its value is the
        # dequeued item.)
        self._put_done = Completion(sim, 0, None)
        # Statistics.
        self.total_puts = 0
        self.total_gets = 0
        self.peak_occupancy = 0
        self.put_stall_count = 0  # puts that found the queue full

    # -- non-blocking interface ------------------------------------------

    @property
    def occupancy(self) -> int:
        """Number of items currently held."""
        return len(self._items)

    @property
    def is_empty(self) -> bool:
        return not self._items

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    def put_nowait(self, item: Any) -> None:
        """Enqueue immediately; raises :class:`QueueFullError` if full."""
        if self.is_full:
            raise QueueFullError(f"queue {self.name!r} full")
        self._accept(item)

    def get_nowait(self) -> Any:
        """Dequeue immediately; raises :class:`QueueEmptyError` if empty."""
        if not self._items:
            raise QueueEmptyError(f"queue {self.name!r} empty")
        return self._release()

    def try_put(self, item: Any) -> bool:
        """Enqueue if space is available; returns whether it was accepted."""
        if self.is_full:
            return False
        self._accept(item)
        return True

    # -- blocking (process) interface ------------------------------------

    def put(self, item: Any):
        """Yieldable put: completes when the item has been accepted."""
        if not self._putters and len(self._items) < self.capacity:
            # Immediate acceptance: return the queue's shared pre-resolved
            # handle, which the putter consumes synchronously.
            self._accept(item)
            return self._put_done
        event = Event(self.sim, name=self._ev_put)
        self.put_stall_count += 1
        self._putters.append((event, item))
        return event

    def get(self):
        """Yieldable get: completes with the dequeued item."""
        if self._items:
            return Completion(self.sim, self.sim.now, self._release())
        event = Event(self.sim, name=self._ev_get)
        self._getters.append(event)
        return event

    # -- internals --------------------------------------------------------

    def _accept(self, item: Any) -> None:
        """Add an item, waking a waiting getter if there is one."""
        self.total_puts += 1
        if self._getters:
            # Hand the item straight to the oldest waiting consumer.
            getter = self._getters.popleft()
            self.total_gets += 1
            getter.trigger(item)
            return
        self._items.append(item)
        if len(self._items) > self.peak_occupancy:
            self.peak_occupancy = len(self._items)

    def _release(self) -> Any:
        """Remove the head item, admitting a waiting putter if there is one."""
        item = self._items.popleft()
        self.total_gets += 1
        if self._putters:
            putter_event, pending = self._putters.popleft()
            self._items.append(pending)
            self.total_puts += 1
            putter_event.trigger()
        return item

    def drain(self) -> list:
        """Remove and return all queued items (used when resetting a unit)."""
        items = list(self._items)
        self._items.clear()
        self.total_gets += len(items)
        while self._putters and not self.is_full:
            putter_event, pending = self._putters.popleft()
            self._items.append(pending)
            self.total_puts += 1
            putter_event.trigger()
        return items

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return (
            f"HWQueue({self.name!r}, {len(self._items)}/{self.capacity}, "
            f"waiting_put={len(self._putters)}, waiting_get={len(self._getters)})"
        )
