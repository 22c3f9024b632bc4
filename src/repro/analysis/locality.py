"""Data-locality metrics from the motivation study (Figs. 4 and 14).

* :func:`page_access_ratio` — (number of page accesses) / (length of
  the searching trace).  High ratio = each page access returns few of
  the vertices the query needed = poor spatial locality.
* :func:`accessed_vector_fraction` — (bytes of requested feature
  vectors) / (bytes of page data fetched).  Low fraction = most of
  every fetched page is irrelevant.
* :func:`lun_coverage` — fraction of vertex-holding LUNs touched by a
  batch (Fig. 4b reports > 82% per batch of 2048, motivating LUN-level
  parallelism).
"""

from __future__ import annotations

import numpy as np

from repro.ann.trace import SearchTrace
from repro.core.placement import VertexPlacement


def page_access_ratio(
    traces: list[SearchTrace], placement: VertexPlacement
) -> float:
    """Mean (#accessed pages / trace length) over queries.

    Page accesses are counted per iteration (the page buffer holds one
    page; a page revisited in a later iteration is re-sensed, matching
    the paper's counting of accesses rather than distinct pages).
    """
    ratios = []
    for trace in traces:
        length = trace.trace_length
        if length == 0:
            continue
        accesses = 0
        for r in range(trace.num_iterations):
            vertices = trace.computed_at(r)
            if vertices.size:
                accesses += int(np.unique(placement.page_keys(vertices)).size)
        ratios.append(accesses / length)
    return float(np.mean(ratios)) if ratios else 0.0


def accessed_vector_fraction(
    traces: list[SearchTrace],
    placement: VertexPlacement,
    vector_bytes: int,
) -> float:
    """Mean (accessed vector bytes / fetched page bytes) over queries."""
    page_size = placement.geometry.page_size
    fractions = []
    for trace in traces:
        vector_bytes_total = 0
        page_bytes_total = 0
        for r in range(trace.num_iterations):
            vertices = trace.computed_at(r)
            if not vertices.size:
                continue
            pages = int(np.unique(placement.page_keys(vertices)).size)
            vector_bytes_total += vertices.size * vector_bytes
            page_bytes_total += pages * page_size
        if page_bytes_total:
            fractions.append(vector_bytes_total / page_bytes_total)
    return float(np.mean(fractions)) if fractions else 0.0


def lun_coverage(
    traces: list[SearchTrace], placement: VertexPlacement
) -> float:
    """Fraction of vertex-holding LUNs accessed by this batch."""
    holding = np.unique(placement.lun)
    touched: set[int] = set()
    for trace in traces:
        if trace.computed.size:
            touched.update(
                int(l) for l in np.unique(placement.lun[trace.computed])
            )
    if holding.size == 0:
        return 0.0
    return len(touched) / int(holding.size)


def batch_page_accesses(
    traces: list[SearchTrace],
    placement: VertexPlacement,
    shared: bool,
) -> int:
    """Total page senses for a batch, with or without cross-query
    sharing (the Fig. 15 normalised-page-access metric)."""
    total = 0
    max_rounds = max((t.num_iterations for t in traces), default=0)
    for round_idx in range(max_rounds):
        active = [
            t.computed_at(round_idx)
            for t in traces
            if round_idx < t.num_iterations
        ]
        if shared:
            active = [np.concatenate(active)] if active else []
        for vertices in active:
            if vertices.size:
                total += int(np.unique(placement.page_keys(vertices)).size)
    return total
