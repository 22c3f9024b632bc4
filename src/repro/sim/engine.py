"""Deterministic resource timelines for trace-driven timing simulation.

The timing models in this reproduction are *analytical event models*: a
platform model walks a search trace round by round and books work onto
resources (a channel bus, a LUN, a PCIe link).  Each resource is a
:class:`Resource` — a serial server with a "next free" time.  Booking
work returns the interval during which the work actually executes, so
queueing delay emerges naturally from contention without a full
callback-style discrete-event kernel.

This style matches how SSD-Sim-like simulators account for time: every
command occupies a die/bus for a deterministic duration and later
commands wait for the resource to free up.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Resource:
    """A serial resource (bus, die, accelerator) with FIFO service.

    Work booked on the resource starts no earlier than both the request
    time and the time the resource becomes free.  Total busy time is
    accumulated for utilisation and energy accounting.
    """

    name: str
    next_free: float = 0.0
    busy_time: float = 0.0
    operations: int = 0

    def acquire(self, at: float, duration: float) -> tuple[float, float]:
        """Book ``duration`` seconds of work requested at time ``at``.

        Returns ``(start, end)`` of the booked interval.
        """
        if duration < 0:
            raise ValueError(f"negative duration {duration!r} on {self.name}")
        start = max(at, self.next_free)
        end = start + duration
        self.next_free = end
        self.busy_time += duration
        self.operations += 1
        return start, end

    def peek(self, at: float) -> float:
        """Earliest time work requested at ``at`` could start."""
        return max(at, self.next_free)

    def utilization(self, horizon: float) -> float:
        """Fraction of ``[0, horizon]`` this resource spent busy."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / horizon)

    def reset(self) -> None:
        self.next_free = 0.0
        self.busy_time = 0.0
        self.operations = 0


@dataclass
class Timeline:
    """A named collection of resources tracking a simulation clock.

    The clock only moves forward via :meth:`advance`.  Models use the
    timeline both as a resource registry and as the authority on the
    current simulated time, so the final ``now`` is the makespan.
    """

    now: float = 0.0
    resources: dict[str, Resource] = field(default_factory=dict)

    def resource(self, name: str) -> Resource:
        """Get (or lazily create) a serial resource."""
        res = self.resources.get(name)
        if res is None:
            res = Resource(name)
            self.resources[name] = res
        return res

    def advance(self, to: float) -> None:
        """Move the clock forward to ``to`` (no-op if already past)."""
        if to > self.now:
            self.now = to

    def busy_times(self) -> dict[str, float]:
        """Busy seconds per resource name."""
        return {name: res.busy_time for name, res in self.resources.items()}

    def reset(self) -> None:
        self.now = 0.0
        for res in self.resources.values():
            res.reset()
