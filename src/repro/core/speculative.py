"""Speculative searching (Section VI-B2, Fig. 12).

While iteration *i*'s Searching stage runs, the Pref Unit launches a
speculative Allocating stage for iteration *i+1*: it fetches the
first-order neighbors' neighbor lists and selects a few second-order
neighbors — preferring those with the most connections back into the
first-order set, since the next entry vertex will be one of the
first-order neighbors and its neighbor list is what iteration *i+1*
will compute.  The speculative Searching stage (computing distances to
the prefetched vertices) overlaps iteration *i*'s Gathering stage, so
its latency hides entirely; if a query's next iteration indeed targets
prefetched vertices (``N_pref  intersect  N_id != empty``), those
distances are already available and iteration *i+1* shrinks.

The cost is extra page reads — the paper reports over half of the
speculated results go unused (Fig. 15 shows page accesses *rising*
under ``da+sp``) yet the overlap still nets up to 1.27x speedup.
"""

from __future__ import annotations

import numpy as np

from repro.ann.graph import ProximityGraph
from repro.ann.trace import SearchTrace, computed_segments

#: Traces resolved per vectorised pass.  A batch-wide pass allocates
#: gather temporaries proportional to the whole batch; fixed chunks cap
#: that peak at a small, batch-independent size (perfbench offline-fresh
#: on a 2-core host: 98 MB peak RSS against 112 MB unchunked, and no
#: slower).
TRACE_CHUNK = 16


def select_speculative_candidates(
    graph: ProximityGraph,
    first_order: np.ndarray,
    width: int,
) -> np.ndarray:
    """Choose up to ``width`` second-order neighbors to prefetch.

    Candidates are neighbors-of-neighbors not already in the
    first-order set, ranked by how many first-order vertices link to
    them (the Pref Unit's "more connections with the first-order
    neighbors" heuristic), ties broken by vertex ID for determinism.

    Implemented as a CSR gather: one slice of the graph's ``indices``
    per first-order vertex, then a single ``np.unique`` with counts —
    no per-edge Python work, which matters because the serving path
    calls this for every iteration of every trace.
    """
    if width <= 0:
        return np.empty(0, dtype=np.int64)
    first = np.unique(np.asarray(first_order, dtype=np.int64))
    if first.size == 0:
        return np.empty(0, dtype=np.int64)
    starts = graph.indptr[first]
    stops = graph.indptr[first + 1]
    lengths = stops - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # Gather all first-order adjacency lists in one shot: offsets[j]
    # enumerates 0..total-1, mapped into each vertex's CSR range.
    offsets = np.arange(total, dtype=np.int64)
    row_ends = np.cumsum(lengths)
    rows = np.searchsorted(row_ends, offsets, side="right")
    gathered = graph.indices[
        starts[rows] + offsets - (row_ends[rows] - lengths[rows])
    ].astype(np.int64)
    # Drop second-order candidates already in the first-order set
    # (``first`` is sorted, so membership is a searchsorted probe).
    pos = np.searchsorted(first, gathered)
    pos[pos == first.size] = first.size - 1
    outside = first[pos] != gathered
    candidates = gathered[outside]
    if candidates.size == 0:
        return np.empty(0, dtype=np.int64)
    ids, counts = np.unique(candidates, return_counts=True)
    # Rank by (-count, id): lexsort keys run least-significant first.
    order = np.lexsort((ids, -counts))
    return ids[order[:width]]


def precompute_speculative_sets(
    traces: list[SearchTrace], graph: ProximityGraph, width: int
) -> list[list[np.ndarray]]:
    """Per-query, per-iteration speculative candidate sets.

    ``sets[q][i]`` is what the Pref Unit would prefetch during query
    ``q``'s iteration ``i``: exactly
    ``select_speculative_candidates(graph, computed, width)`` for that
    iteration's computed vertices (empty when it computed none).
    Depends only on the graph and traces, so experiments compute it
    once and reuse it across scheduling-flag configurations.

    The batched counterpart of :func:`select_speculative_candidates`:
    traces go through in chunks of :data:`TRACE_CHUNK`, and each chunk
    is one vectorised pass over all of its (trace, iteration) segments
    -- one CSR gather, first-order exclusion and candidate count keyed
    on ``segment * V + vertex``, one ``(segment, -count, id)`` ranking
    -- cut to the top ``width`` per segment.  Each returned set is a
    view into its chunk's already-cut array, so a cached set pins only
    the kept candidates of at most :data:`TRACE_CHUNK` traces, never a
    chunk's untruncated candidates.
    """
    out: list[list[np.ndarray]] = []
    for start in range(0, len(traces), TRACE_CHUNK):
        chunk = traces[start : start + TRACE_CHUNK]
        lengths, flat = computed_segments(chunk)
        segments = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
        top, bounds = _select_per_segment(
            graph, segments, flat, len(lengths), width
        )
        edges = bounds.tolist()
        sets = [top[edges[s] : edges[s + 1]] for s in range(len(lengths))]
        pos = 0
        for trace in chunk:
            out.append(sets[pos : pos + trace.num_iterations])
            pos += trace.num_iterations
    return out


def _select_per_segment(
    graph: ProximityGraph,
    segments: np.ndarray,
    first_order: np.ndarray,
    n_segments: int,
    width: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-``width`` candidates of every segment in one pass.

    ``segments[j]`` names the segment of first-order vertex
    ``first_order[j]`` (ascending).  Returns the ranked candidates of
    all segments concatenated, plus ``n_segments + 1`` offsets into it.
    """
    if width <= 0 or first_order.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, np.zeros(n_segments + 1, dtype=np.int64)
    stride = graph.num_vertices
    if first_order.min() < 0 or first_order.max() >= stride:
        # Would alias into a neighbouring segment's composite keys.
        raise IndexError("first-order vertex ID outside the graph")
    first = np.unique(segments * stride + first_order)
    first_seg = first // stride
    first_v = first - first_seg * stride
    starts = graph.indptr[first_v]
    lengths = graph.indptr[first_v + 1] - starts
    # One CSR gather for every first-order vertex of every segment.
    row_ends = np.cumsum(lengths)
    offsets = np.arange(int(row_ends[-1]), dtype=np.int64)
    offsets += np.repeat(starts - (row_ends - lengths), lengths)
    candidates = (
        np.repeat(first_seg * stride, lengths)
        + graph.indices[offsets].astype(np.int64)
    )
    # Drop candidates already first-order in their own segment.
    pos = np.searchsorted(first, candidates)
    pos[pos == first.size] = first.size - 1
    candidates = candidates[first[pos] != candidates]
    keys, counts = np.unique(candidates, return_counts=True)
    seg = keys // stride
    ids = keys - seg * stride
    # Rank by (segment, -count, id): lexsort keys run least-significant first.
    order = np.lexsort((ids, -counts, seg))
    seg = seg[order]
    seg_starts = np.searchsorted(seg, np.arange(n_segments + 1))
    rank = np.arange(seg.size) - seg_starts[seg]
    keep = rank < width
    top = ids[order][keep]
    bounds = np.searchsorted(seg[keep], np.arange(n_segments + 1))
    return top, bounds


def speculative_hits(
    prefetched: np.ndarray, next_computed: np.ndarray
) -> np.ndarray:
    """Vertices of the next iteration already covered by the prefetch."""
    if prefetched.size == 0 or next_computed.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.intersect1d(prefetched, next_computed)
