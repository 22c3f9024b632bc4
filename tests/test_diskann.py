"""Tests for the DiskANN / Vamana implementation."""

import numpy as np
import pytest

from repro.ann import BruteForceIndex, DiskANNIndex, DiskANNParams, recall_at_k
from repro.ann.trace import TraceRecorder


@pytest.fixture(scope="module")
def index(request):
    small_vectors = request.getfixturevalue("small_vectors")
    return DiskANNIndex(small_vectors, DiskANNParams(R=12, L=32, alpha=1.2))


class TestParams:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DiskANNParams(R=1)
        with pytest.raises(ValueError):
            DiskANNParams(R=16, L=8)
        with pytest.raises(ValueError):
            DiskANNParams(alpha=0.5)


class TestConstruction:
    def test_degree_bounded_by_R(self, index):
        assert all(len(a) <= index.params.R for a in index.adjacency)

    def test_medoid_is_central(self, index, small_vectors):
        centroid = small_vectors.mean(axis=0)
        d_medoid = ((small_vectors[index.medoid] - centroid) ** 2).sum()
        d_random = ((small_vectors[0] - centroid) ** 2).sum()
        assert d_medoid <= d_random

    def test_graph_connected(self, index):
        assert index.base_graph().is_connected()

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            DiskANNIndex(np.zeros((0, 3), dtype=np.float32))


class TestSearch:
    def test_recall(self, index, small_vectors, small_queries):
        bf = BruteForceIndex(small_vectors)
        gt, _ = bf.search_batch(small_queries, 5)
        ids, _, _ = index.search_batch(small_queries, 5, ef=48)
        assert recall_at_k(ids, gt) >= 0.85

    def test_exact_match(self, index, small_vectors):
        ids, dists = index.search(small_vectors[42], k=1, ef=32)
        assert ids[0] == 42

    def test_trace_recorded_from_medoid(self, index, small_queries):
        rec = TraceRecorder(0)
        index.search(small_queries[0], k=5, ef=32, recorder=rec)
        trace = rec.finish()
        assert trace.entries[0] == index.medoid

    def test_ef_validation(self, index, small_queries):
        with pytest.raises(ValueError):
            index.search(small_queries[0], k=10, ef=4)


class TestHotVertices:
    def test_fallback_uses_degree(self, small_vectors):
        index = DiskANNIndex(small_vectors, DiskANNParams(R=8, L=16))
        hot = index.hot_vertices(0.05)
        assert hot.size == int(small_vectors.shape[0] * 0.05)
        degrees = np.array([len(a) for a in index.adjacency])
        assert degrees[hot[0]] == degrees.max()

    def test_visit_counts_drive_cache(self, index, small_queries):
        index.search_batch(small_queries, 5, ef=32, record=False)
        hot = index.hot_vertices(0.1)
        # The medoid is visited by every search.
        assert index.medoid in hot.tolist()


class TestRobustPrune:
    def test_prune_limits_degree(self, index, small_vectors):
        candidates = {
            v: float(((small_vectors[v] - small_vectors[0]) ** 2).sum())
            for v in range(1, 60)
        }
        kept = index._robust_prune(0, candidates, alpha=1.2)
        assert len(kept) <= index.params.R
        assert 0 not in kept

    def test_prune_keeps_globally_nearest(self, index, small_vectors):
        # The prune pool is candidates plus v's current out-neighbors;
        # the closest member of that merged pool is always selected.
        candidates = {
            v: float(((small_vectors[v] - small_vectors[0]) ** 2).sum())
            for v in range(1, 60)
        }
        pool = dict(candidates)
        for u in index.adjacency[0]:
            pool[u] = float(((small_vectors[u] - small_vectors[0]) ** 2).sum())
        pool.pop(0, None)
        nearest = min(pool, key=pool.get)
        kept = index._robust_prune(0, candidates, alpha=1.2)
        assert nearest in kept
