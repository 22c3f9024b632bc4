"""Tests for the HNSW implementation."""

import numpy as np
import pytest

from repro.ann import BruteForceIndex, HNSWIndex, HNSWParams, recall_at_k
from repro.ann.trace import TraceRecorder


class TestParams:
    def test_defaults_valid(self):
        p = HNSWParams()
        assert p.max_degree0 == 2 * p.M
        assert p.level_multiplier == pytest.approx(1.0 / np.log(p.M))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            HNSWParams(M=1)
        with pytest.raises(ValueError):
            HNSWParams(M=16, ef_construction=8)


class TestConstruction:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            HNSWIndex(np.zeros((0, 4), dtype=np.float32))

    def test_all_vertices_in_base_layer(self, small_hnsw, small_vectors):
        assert len(small_hnsw.layers[0]) == small_vectors.shape[0]

    def test_layer_sizes_decrease(self, small_hnsw):
        sizes = [len(layer) for layer in small_hnsw.layers]
        assert sizes == sorted(sizes, reverse=True)

    def test_entry_point_on_top_layer(self, small_hnsw):
        top = small_hnsw.num_layers - 1
        assert small_hnsw.entry_point in small_hnsw.layers[top]

    def test_degree_caps_respected(self, small_hnsw):
        p = small_hnsw.params
        for layer_idx, layer in enumerate(small_hnsw.layers):
            cap = p.max_degree0 if layer_idx == 0 else p.max_degree
            for neighbors in layer.values():
                assert len(neighbors) <= cap

    def test_base_graph_connected(self, small_graph):
        assert small_graph.is_connected()

    def test_memory_per_vertex_in_paper_range(self, small_hnsw):
        # Paper Section I: 60-450 bytes per vertex for HNSW.
        per_vertex = small_hnsw.memory_per_vertex_bytes()
        assert 60 <= per_vertex <= 450


class TestSearch:
    def test_recall_against_bruteforce(self, small_vectors, small_queries):
        index = HNSWIndex(small_vectors, HNSWParams(M=8, ef_construction=48))
        bf = BruteForceIndex(small_vectors)
        gt, _ = bf.search_batch(small_queries, 5)
        ids, _, _ = index.search_batch(small_queries, 5, ef=48)
        assert recall_at_k(ids, gt) >= 0.9

    def test_exact_match_found(self, small_hnsw, small_vectors):
        ids, dists = small_hnsw.search(small_vectors[17], k=1, ef=32)
        assert ids[0] == 17
        assert dists[0] == pytest.approx(0.0, abs=1e-5)

    def test_distances_ascending(self, small_hnsw, small_queries):
        _, dists = small_hnsw.search(small_queries[0], k=8, ef=32)
        assert list(dists) == sorted(dists)

    def test_ef_must_cover_k(self, small_hnsw, small_queries):
        with pytest.raises(ValueError):
            small_hnsw.search(small_queries[0], k=10, ef=5)

    def test_trace_recorded(self, small_hnsw, small_queries):
        rec = TraceRecorder(0)
        ids, _ = small_hnsw.search(small_queries[0], k=5, ef=24, recorder=rec)
        trace = rec.finish()
        assert trace.trace_length > 0
        assert set(ids.tolist()) <= set(trace.computed.tolist())

    def test_search_batch_shapes(self, small_hnsw, small_queries):
        ids, dists, traces = small_hnsw.search_batch(small_queries, 5, ef=24)
        assert ids.shape == (len(small_queries), 5)
        assert dists.shape == (len(small_queries), 5)
        assert len(traces) == len(small_queries)

    def test_deterministic_given_seed(self, small_vectors, small_queries):
        a = HNSWIndex(small_vectors, HNSWParams(M=6, ef_construction=24, seed=5))
        b = HNSWIndex(small_vectors, HNSWParams(M=6, ef_construction=24, seed=5))
        ia, _, _ = a.search_batch(small_queries[:4], 5)
        ib, _, _ = b.search_batch(small_queries[:4], 5)
        assert np.array_equal(ia, ib)

    def test_plain_selection_mode(self, small_vectors, small_queries):
        index = HNSWIndex(
            small_vectors,
            HNSWParams(M=8, ef_construction=32, use_heuristic=False),
        )
        bf = BruteForceIndex(small_vectors)
        gt, _ = bf.search_batch(small_queries, 5)
        ids, _, _ = index.search_batch(small_queries, 5, ef=48)
        assert recall_at_k(ids, gt) >= 0.8


def _adversarial_cloud(n: int, dim: int, seed: int) -> np.ndarray:
    """The PR 2 property-test cloud family (4 Gaussian clusters)."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(4, dim))
    assign = rng.integers(0, 4, size=n)
    return (centers[assign] + 0.4 * rng.normal(size=(n, dim))).astype(
        np.float32
    )


class TestSelfRecallRegression:
    """Clouds where the pre-fix single-entry beam missed a stored vector.

    Each case was found by randomized property testing (PR 2 and the
    PR 3 stress runs): ``search(vectors[probe], k=1, ef=8)`` returned a
    non-zero distance.  The fix — maximin restart pivots, the
    nearest-neighbor in-link pass and the ef floor — must keep all of
    them self-retrievable.
    """

    CASES = [  # (n, dim, cloud seed == index seed, probe vertex)
        (72, 7, 619379841, 57),
        (118, 11, 496254106, 32),
        (100, 7, 2141063300, 0),
        (119, 5, 1304948310, 22),
        (91, 9, 274008642, 89),
        (107, 10, 765335761, 71),
        (115, 12, 1618076485, 35),
        (99, 12, 1872236628, 9),
        (110, 4, 485126279, 99),
        (74, 4, 410274922, 52),
        (94, 11, 1605792215, 85),
        (108, 12, 565771716, 0),   # probe had no in-path from the entry
        (108, 8, 1900992776, 104),  # nearest in-link pruned by shrink
    ]

    @pytest.mark.parametrize("n,dim,seed,probe", CASES)
    def test_stored_vector_self_retrievable(self, n, dim, seed, probe):
        vectors = _adversarial_cloud(n, dim, seed)
        index = HNSWIndex(vectors, HNSWParams(M=4, ef_construction=12, seed=seed))
        ids, dists = index.search(vectors[probe], k=1, ef=8)
        assert ids[0] == probe
        assert dists[0] == pytest.approx(0.0, abs=1e-4)

    def test_every_vertex_reachable_from_seeds(self):
        """The build-time repair: BFS from entry + pivots spans layer 0."""
        vectors = _adversarial_cloud(108, 12, 565771716)
        index = HNSWIndex(vectors, HNSWParams(M=4, ef_construction=12,
                                              seed=565771716))
        adj = index.layers[0]
        seen = {index.entry_point, *index._pivots}
        stack = list(seen)
        while stack:
            for w in adj.get(stack.pop(), ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert len(seen) == vectors.shape[0]
