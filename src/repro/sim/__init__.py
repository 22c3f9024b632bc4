"""Simulation core: deterministic resource timelines, counters, energy, area.

The NDSEARCH paper evaluates every platform with a trace-driven,
cycle-level simulator.  This package provides the shared substrate for
that style of simulation:

* :mod:`repro.sim.engine` — resource timelines used to model contention
  on buses, LUNs, accelerators and links.
* :mod:`repro.sim.events` — a heap-backed discrete-event loop with
  typed, deterministically tie-broken events; the control-flow layer
  the online serving stack runs on (resources model *occupancy*,
  events model *when things happen*).
* :mod:`repro.sim.stats` — event counters and the :class:`SimResult`
  record that every platform model returns.
* :mod:`repro.sim.energy` — component power constants (paper Table I)
  and the activity-based energy integrator.
* :mod:`repro.sim.area` — area model and storage-density accounting.
"""

from repro.sim.engine import Resource, Timeline
from repro.sim.events import (
    AFTER_ARRIVALS,
    Arrival,
    BatchDeadline,
    Completion,
    DataMovement,
    EpochTick,
    Event,
    EventLoop,
    StreamEnd,
)
from repro.sim.stats import Counters, PhaseSegment, SimResult, serial_timeline
from repro.sim.energy import ComponentPower, EnergyModel
from repro.sim.area import AreaModel, ComponentArea

__all__ = [
    "Resource",
    "Timeline",
    "AFTER_ARRIVALS",
    "Arrival",
    "BatchDeadline",
    "Completion",
    "DataMovement",
    "EpochTick",
    "Event",
    "EventLoop",
    "StreamEnd",
    "Counters",
    "PhaseSegment",
    "SimResult",
    "serial_timeline",
    "ComponentPower",
    "EnergyModel",
    "AreaModel",
    "ComponentArea",
]
