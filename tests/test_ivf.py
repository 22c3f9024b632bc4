"""Tests for the IVF-Flat extension (Section VIII-B generalisation)."""

import numpy as np
import pytest

from repro.ann import BruteForceIndex, recall_at_k
from repro.ann.ivf import IVFFlatIndex, IVFParams, kmeans
from repro.ann.trace import TraceRecorder


class TestKMeans:
    def test_shapes(self, small_vectors):
        centroids, assignment = kmeans(small_vectors, 8, seed=1)
        assert centroids.shape == (8, small_vectors.shape[1])
        assert assignment.shape == (small_vectors.shape[0],)
        assert set(np.unique(assignment)) <= set(range(8))

    def test_deterministic(self, small_vectors):
        a, _ = kmeans(small_vectors, 6, seed=2)
        b, _ = kmeans(small_vectors, 6, seed=2)
        assert np.array_equal(a, b)

    def test_improves_over_random_assignment(self, small_vectors):
        centroids, assignment = kmeans(small_vectors, 8, seed=3)
        cost = np.sum(
            ((small_vectors - centroids[assignment]) ** 2).sum(axis=1)
        )
        rng = np.random.default_rng(0)
        random_assign = rng.integers(0, 8, size=small_vectors.shape[0])
        random_cost = np.sum(
            ((small_vectors - centroids[random_assign]) ** 2).sum(axis=1)
        )
        assert cost < random_cost

    def test_validation(self, small_vectors):
        with pytest.raises(ValueError):
            kmeans(small_vectors, 0)
        with pytest.raises(ValueError):
            kmeans(small_vectors[:3], 10)

    def test_simultaneous_empty_clusters_reseed_distinctly(self):
        """Several clusters emptying in one iteration must not collapse.

        Ten copies of the origin plus four distinct outliers: with
        seed 0 all five initial centroids are drawn from the duplicate
        block, so four clusters go empty in the *same* Lloyd
        iteration.  Re-seeding used to give them all the same farthest
        point (identical centroids forever after); each must instead
        take a distinct farthest point.
        """
        vectors = np.vstack([
            np.zeros((10, 2), dtype=np.float32),
            np.array(
                [[10, 0], [20, 0], [30, 0], [40, 0]], dtype=np.float32
            ),
        ])
        centroids, assignment = kmeans(vectors, 5, seed=0)
        assert np.unique(centroids, axis=0).shape[0] == 5
        # Every outlier location won its own centroid: the re-seed
        # walked successive farthest points instead of re-using one.
        for point in ((10, 0), (20, 0), (30, 0), (40, 0)):
            assert (np.abs(centroids - np.asarray(point)).sum(axis=1) < 1e-5).any()
        # No cluster is left empty under the returned assignment.
        assert set(np.unique(assignment)) == set(range(5))


@pytest.fixture(scope="module")
def ivf(request):
    vectors = request.getfixturevalue("small_vectors")
    return IVFFlatIndex(vectors, IVFParams(n_lists=16, nprobe=4))


class TestIVFConstruction:
    def test_lists_partition_corpus(self, ivf, small_vectors):
        total = np.concatenate(ivf.lists)
        assert sorted(total.tolist()) == list(range(small_vectors.shape[0]))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            IVFParams(n_lists=0)
        with pytest.raises(ValueError):
            IVFParams(n_lists=8, nprobe=9)

    def test_base_graph_chains_lists(self, ivf):
        graph = ivf.base_graph()
        # Consecutive list members are linked, so edges = sum of
        # (list_size - 1) per non-empty list, doubled (undirected).
        expected = 2 * int(np.sum(np.maximum(ivf.list_sizes - 1, 0)))
        assert graph.num_edges == expected


class TestIVFSearch:
    def test_recall_grows_with_nprobe(self, ivf, small_vectors, small_queries):
        gt, _ = BruteForceIndex(small_vectors).search_batch(small_queries, 5)
        low = []
        high = []
        for q in small_queries:
            ids_l, _ = ivf.search(q, 5, nprobe=1)
            ids_h, _ = ivf.search(q, 5, nprobe=12)
            low.append(np.pad(ids_l, (0, 5 - ids_l.size), constant_values=-1))
            high.append(np.pad(ids_h, (0, 5 - ids_h.size), constant_values=-1))
        assert recall_at_k(np.stack(high), gt) >= recall_at_k(np.stack(low), gt)
        assert recall_at_k(np.stack(high), gt) >= 0.9

    def test_full_probe_is_exact(self, ivf, small_vectors, small_queries):
        gt, _ = BruteForceIndex(small_vectors).search_batch(small_queries, 5)
        ids = []
        for q in small_queries:
            i, _ = ivf.search(q, 5, nprobe=len(ivf.lists))
            ids.append(i)
        assert recall_at_k(np.stack(ids), gt) == 1.0

    def test_trace_records_probed_lists(self, ivf, small_queries):
        rec = TraceRecorder(0)
        ivf.search(small_queries[0], 5, nprobe=3, recorder=rec)
        trace = rec.finish()
        assert trace.num_iterations == 3
        # Each iteration's computed set is one full posting list.
        for r, entry in enumerate(trace.entries):
            assert trace.computed_at(r).size == ivf.lists[entry].size

    def test_search_batch_interface(self, ivf, small_queries):
        ids, dists, traces = ivf.search_batch(small_queries, 5)
        assert ids.shape == (len(small_queries), 5)
        assert len(traces) == len(small_queries)

    def test_invalid_k(self, ivf, small_queries):
        with pytest.raises(ValueError):
            ivf.search(small_queries[0], 0)


class TestIVFOnNDSearch:
    def test_runs_on_the_same_substrate(self, small_vectors, tiny_config):
        """The Section VIII-B claim: the NDP machinery runs IVF traces
        unchanged, and sequential list scans love the page buffers."""
        from repro.core import NDSearch

        ivf = IVFFlatIndex(small_vectors, IVFParams(n_lists=16, nprobe=4))
        system = NDSearch(index=ivf, config=tiny_config)
        queries = small_vectors[:8] + 0.01
        ids, dists, sim = system.search_batch(queries, k=5)
        assert sim.sim_time_s > 0
        assert sim.counters["page_reads"] > 0
        assert (ids[:, 0] >= 0).all()
