"""Search traces: the memory-access record driving the simulators.

The paper's simulation method (Section VII-A) "hacks" the search code
to dump, for every query, the index sequence of accessed vertices; the
trace-driven simulator then replays those accesses on each platform
model.  We formalise that record here:

* :class:`SearchTrace` — all iterations of one query as three flat
  int64 arrays: each iteration's entry vertex (whose neighbor list was
  read), and the neighbor IDs whose distances were computed, stored
  back to back with per-iteration offsets.  This is also the layout
  :class:`~repro.workloads.traces.TraceSet` writes to disk, so no
  layer converts between formats.
* :class:`TraceRecorder` — the hook object search kernels call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False, slots=True)
class SearchTrace:
    """The complete access trace of one query.

    ``entries[r]`` is iteration ``r``'s entry vertex, popped from the
    candidate list (its adjacency information is read).  Iteration
    ``r``'s computed vertices — the previously unvisited neighbors
    whose feature vectors were fetched and whose distances to the
    query were computed — are ``computed[offsets[r]:offsets[r + 1]]``.
    ``offsets`` has ``num_iterations + 1`` entries and starts at 0.

    Equality is identity: the simulators key caches on trace objects.
    """

    query_id: int
    entries: np.ndarray
    offsets: np.ndarray
    computed: np.ndarray

    @property
    def num_iterations(self) -> int:
        return self.entries.size

    @property
    def trace_length(self) -> int:
        """The paper's 'length of the searching trace': number of
        visited vertices that are computed against the query."""
        return self.computed.size

    def computed_at(self, r: int) -> np.ndarray:
        """Iteration ``r``'s computed vertex IDs (a view)."""
        return self.computed[self.offsets[r] : self.offsets[r + 1]]


def computed_segments(traces: list[SearchTrace]) -> tuple[np.ndarray, np.ndarray]:
    """Every (trace, iteration) of ``traces`` as one flat segment array.

    Segment ``s`` is the ``s``-th iteration in trace-major order.
    Returns each segment's ``computed`` length and all computed vertex
    IDs concatenated in segment order.
    """
    lengths = np.concatenate([np.diff(t.offsets) for t in traces])
    return lengths, np.concatenate([t.computed for t in traces])


class TraceRecorder:
    """Mutable builder the search kernels feed; one per query."""

    def __init__(self, query_id: int = 0) -> None:
        self.query_id = query_id
        self._entries: list[int] = []
        self._computed: list[np.ndarray] = []

    def record_iteration(self, entry: int, computed: list[int] | np.ndarray) -> None:
        self._entries.append(int(entry))
        self._computed.append(np.asarray(computed, dtype=np.int64))

    def finish(self) -> SearchTrace:
        lengths = np.array([c.size for c in self._computed], dtype=np.int64)
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return SearchTrace(
            query_id=self.query_id,
            entries=np.asarray(self._entries, dtype=np.int64),
            offsets=offsets,
            computed=np.concatenate(
                self._computed or [np.empty(0, dtype=np.int64)]
            ),
        )


def remap_trace(trace: SearchTrace, new_id: np.ndarray) -> SearchTrace:
    """Rewrite a trace's vertex IDs through a relabeling map.

    Used after static-scheduling reordering: traces are generated on
    the original graph, then remapped to the reordered vertex IDs so
    the simulator sees the post-reordering physical placement.
    ``new_id[old] = new``.
    """
    return SearchTrace(
        query_id=trace.query_id,
        entries=new_id[trace.entries],
        offsets=trace.offsets,
        computed=new_id[trace.computed],
    )
