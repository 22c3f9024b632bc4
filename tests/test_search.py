"""Unit tests for the shared beam-search kernel."""

import numpy as np
import pytest

from repro.ann.bruteforce import BruteForceIndex
from repro.ann.distance import DistanceMetric
from repro.ann.search import greedy_beam_search, top_k_from_results
from repro.ann.trace import TraceRecorder


def _line_world(n=32, dim=4):
    """Points on a line; neighbors are adjacent indices."""
    vectors = np.arange(n, dtype=np.float32)[:, None].repeat(dim, axis=1)
    adjacency = [
        np.asarray([v - 1, v + 1][: (2 if 0 < v < n - 1 else 1)])
        if v not in (0, n - 1)
        else np.asarray([1] if v == 0 else [n - 2])
        for v in range(n)
    ]
    return vectors, lambda v: adjacency[v]


class TestBeamSearch:
    def test_finds_nearest_on_line(self):
        vectors, neighbors = _line_world()
        query = np.full(4, 20.2, dtype=np.float32)
        results = greedy_beam_search(
            vectors, neighbors, query, [0], ef=4, metric=DistanceMetric.EUCLIDEAN
        )
        assert results[0][1] == 20

    def test_results_sorted_ascending(self, small_vectors, small_graph):
        query = small_vectors[5]
        results = greedy_beam_search(
            small_vectors,
            small_graph.neighbors,
            query,
            [small_graph.entry_point],
            ef=16,
            metric=DistanceMetric.EUCLIDEAN,
        )
        dists = [d for d, _ in results]
        assert dists == sorted(dists)
        assert len(results) <= 16

    def test_matches_bruteforce_on_connected_graph(self, small_vectors, small_graph):
        bf = BruteForceIndex(small_vectors)
        hits = 0
        for qi in range(10):
            query = small_vectors[qi * 7]
            results = greedy_beam_search(
                small_vectors,
                small_graph.neighbors,
                query,
                [small_graph.entry_point],
                ef=32,
                metric=DistanceMetric.EUCLIDEAN,
            )
            ids, _ = top_k_from_results(results, 1)
            exact, _ = bf.search(query, 1)
            hits += int(ids[0] == exact[0])
        assert hits >= 8  # greedy search nearly always finds the true NN

    def test_recorder_sees_every_expansion(self, small_vectors, small_graph):
        rec = TraceRecorder(0)
        query = small_vectors[0]
        greedy_beam_search(
            small_vectors,
            small_graph.neighbors,
            query,
            [small_graph.entry_point],
            ef=8,
            metric=DistanceMetric.EUCLIDEAN,
            recorder=rec,
        )
        trace = rec.finish()
        assert trace.num_iterations >= 1
        # Every computed vertex appears exactly once across iterations.
        visited = trace.computed.tolist()
        assert len(visited) == len(set(visited))

    def test_neighbor_filter_applied(self):
        vectors, neighbors = _line_world()
        query = np.full(4, 31.0, dtype=np.float32)
        # Filter forbids moving right: search cannot progress past entry.
        results = greedy_beam_search(
            vectors,
            neighbors,
            query,
            [5],
            ef=4,
            metric=DistanceMetric.EUCLIDEAN,
            neighbor_filter=lambda v, ids: ids[ids < v],
        )
        assert all(v <= 5 for _, v in results)

    def test_max_iterations_cap(self, small_vectors, small_graph):
        rec = TraceRecorder(0)
        greedy_beam_search(
            small_vectors,
            small_graph.neighbors,
            small_vectors[3],
            [small_graph.entry_point],
            ef=16,
            metric=DistanceMetric.EUCLIDEAN,
            recorder=rec,
            max_iterations=3,
        )
        # entry record + at most 3 expansions
        assert rec.finish().num_iterations <= 4

    def test_invalid_arguments(self, small_vectors, small_graph):
        with pytest.raises(ValueError):
            greedy_beam_search(
                small_vectors, small_graph.neighbors, small_vectors[0], [0],
                ef=0, metric=DistanceMetric.EUCLIDEAN,
            )
        with pytest.raises(ValueError):
            greedy_beam_search(
                small_vectors, small_graph.neighbors, small_vectors[0], [],
                ef=4, metric=DistanceMetric.EUCLIDEAN,
            )

    def test_multiple_entry_points(self, small_vectors, small_graph):
        results = greedy_beam_search(
            small_vectors,
            small_graph.neighbors,
            small_vectors[9],
            [0, 1, 2],
            ef=8,
            metric=DistanceMetric.EUCLIDEAN,
        )
        assert len(results) >= 3

    def test_seed_iteration_keeps_caller_order(self):
        # Seeds are deduplicated in caller order: the seed iteration's
        # entry and computed order must not follow set hash order.
        vectors, neighbors = _line_world(n=1001)
        rec = TraceRecorder(0)
        greedy_beam_search(
            vectors, neighbors, vectors[500], [5, 1000, 3, 1000],
            ef=4, metric=DistanceMetric.EUCLIDEAN, recorder=rec,
            max_iterations=0,
        )
        trace = rec.finish()
        assert trace.entries.tolist() == [5]
        assert trace.computed.tolist() == [5, 1000, 3]


class TestTopK:
    def test_top_k_split(self):
        results = [(0.1, 4), (0.2, 7), (0.3, 1)]
        ids, dists = top_k_from_results(results, 2)
        assert ids.tolist() == [4, 7]
        assert dists.tolist() == [0.1, 0.2]

    def test_top_k_larger_than_results(self):
        ids, dists = top_k_from_results([(0.5, 2)], 5)
        assert ids.tolist() == [2]
