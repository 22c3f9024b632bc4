"""Property-based tests of the search stack on random point clouds."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ann import BruteForceIndex, HNSWIndex, HNSWParams, recall_at_k
from repro.ann.distance import DistanceMetric
from repro.ann.ivf import IVFFlatIndex, IVFParams
from repro.ann.search import greedy_beam_search, top_k_from_results
from repro.ann.trace import TraceRecorder


@st.composite
def point_cloud(draw):
    n = draw(st.integers(min_value=10, max_value=120))
    dim = draw(st.integers(min_value=2, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(4, dim))
    assign = rng.integers(0, 4, size=n)
    vectors = (centers[assign] + 0.4 * rng.normal(size=(n, dim))).astype(
        np.float32
    )
    return vectors, seed


@given(point_cloud())
@settings(max_examples=20, deadline=None)
def test_hnsw_always_finds_itself(cloud):
    """Searching for a stored vector returns it at distance ~0."""
    vectors, seed = cloud
    index = HNSWIndex(vectors, HNSWParams(M=4, ef_construction=12, seed=seed))
    probe = int(seed % vectors.shape[0])
    ids, dists = index.search(vectors[probe], k=1, ef=8)
    assert dists[0] == pytest.approx(0.0, abs=1e-4)


@given(point_cloud())
@settings(max_examples=15, deadline=None)
def test_beam_results_always_sorted_and_unique(cloud):
    vectors, seed = cloud
    index = HNSWIndex(vectors, HNSWParams(M=4, ef_construction=12, seed=seed))
    graph = index.base_graph()
    rng = np.random.default_rng(seed)
    query = rng.normal(size=vectors.shape[1]).astype(np.float32)
    results = greedy_beam_search(
        graph.vectors, graph.neighbors, query, [graph.entry_point], 8,
        DistanceMetric.EUCLIDEAN,
    )
    dists = [d for d, _ in results]
    ids = [v for _, v in results]
    assert dists == sorted(dists)
    assert len(set(ids)) == len(ids)
    assert len(results) <= 8


@given(point_cloud())
@settings(max_examples=15, deadline=None)
def test_trace_covers_results(cloud):
    """Every returned vertex was computed (appears in the trace)."""
    vectors, seed = cloud
    index = HNSWIndex(vectors, HNSWParams(M=4, ef_construction=12, seed=seed))
    graph = index.base_graph()
    rng = np.random.default_rng(seed + 1)
    query = rng.normal(size=vectors.shape[1]).astype(np.float32)
    recorder = TraceRecorder(0)
    results = greedy_beam_search(
        graph.vectors, graph.neighbors, query, [graph.entry_point], 6,
        DistanceMetric.EUCLIDEAN, recorder=recorder,
    )
    trace = recorder.finish()
    visited = set(trace.computed.tolist())
    assert all(v in visited for _, v in results)


@given(point_cloud())
@settings(max_examples=10, deadline=None)
def test_ivf_recall_monotone_in_nprobe(cloud):
    vectors, seed = cloud
    n_lists = min(8, vectors.shape[0])
    index = IVFFlatIndex(
        vectors, IVFParams(n_lists=n_lists, nprobe=1, seed=seed % 1000)
    )
    rng = np.random.default_rng(seed + 2)
    queries = vectors[rng.integers(0, vectors.shape[0], size=5)] + 0.01
    gt, _ = BruteForceIndex(vectors).search_batch(queries, 3)

    def recall_at(nprobe):
        rows = []
        for q in queries:
            ids, _ = index.search(q, 3, nprobe=nprobe)
            rows.append(np.pad(ids, (0, 3 - ids.size), constant_values=-1))
        return recall_at_k(np.stack(rows), gt)

    assert recall_at(n_lists) >= recall_at(1) - 1e-9
    assert recall_at(n_lists) == 1.0
