"""Integration tests for the NDSearch top-level system."""

import numpy as np
import pytest

from repro.core import NDSearch, NDSearchConfig, SchedulingFlags


@pytest.fixture()
def system(small_hnsw, tiny_config):
    return NDSearch(index=small_hnsw, config=tiny_config)


class TestSearchBatch:
    def test_returns_results_and_simresult(self, system, small_queries):
        ids, dists, result = system.search_batch(small_queries, k=5, ef=24)
        assert ids.shape == (len(small_queries), 5)
        assert result.sim_time_s > 0
        assert result.platform == "ndsearch"
        assert result.power_w > 0

    def test_ids_in_original_numbering(self, system, small_vectors):
        queries = small_vectors[[3, 9, 27]]
        ids, dists, _ = system.search_batch(queries, k=1, ef=16)
        assert ids[:, 0].tolist() == [3, 9, 27]

    def test_energy_attached(self, system, small_queries):
        _, _, result = system.search_batch(small_queries, k=5, ef=24)
        assert 0 < result.power_w <= 26.32 + 1e-9  # paper total power


class TestReordering:
    def test_reorder_modes(self, small_hnsw, tiny_config):
        for mode in ("ours", "random_bfs", "none"):
            nd = NDSearch(index=small_hnsw, config=tiny_config, reorder_mode=mode)
            assert sorted(nd.order.tolist()) == list(
                range(nd.graph.num_vertices)
            )

    def test_unknown_mode_rejected(self, small_hnsw, tiny_config):
        with pytest.raises(ValueError):
            NDSearch(index=small_hnsw, config=tiny_config, reorder_mode="magic")

    def test_flags_disable_reordering(self, small_hnsw, tiny_config):
        nd = NDSearch(
            index=small_hnsw,
            config=tiny_config.with_flags(SchedulingFlags.bare()),
        )
        assert np.array_equal(nd.order, np.arange(nd.graph.num_vertices))

    def test_reordering_improves_beta(self, small_hnsw, tiny_config):
        from repro.core.static_scheduling import bandwidth_beta

        base = small_hnsw.base_graph()
        nd = NDSearch(index=small_hnsw, config=tiny_config)
        assert bandwidth_beta(base, nd.order) < bandwidth_beta(base)


class TestTraceSimulation:
    def test_simulate_traces_consistent_with_search(self, system, small_queries):
        _, _, via_search = system.search_batch(small_queries, k=5, ef=24)
        _, _, traces = system.index.search_batch(small_queries, 5, ef=24)
        via_traces = system.simulate_traces(traces)
        assert via_traces.sim_time_s == pytest.approx(
            via_search.sim_time_s, rel=1e-6
        )

    def test_speculative_counters_present(self, system, small_queries):
        _, _, result = system.search_batch(small_queries, k=5, ef=24)
        assert result.counters["speculative_page_reads"] > 0

    def test_flag_ablation_ordering(self, small_hnsw, tiny_config, small_queries):
        """Each added technique must not slow the system down, and the
        full configuration must beat bare (Fig. 16 shape)."""
        _, _, traces = small_hnsw.search_batch(small_queries, 5, ef=24)
        steps = [
            SchedulingFlags.bare(),
            SchedulingFlags(True, False, False, False),
            SchedulingFlags(True, True, False, False),
            SchedulingFlags(True, True, True, False),
            SchedulingFlags(True, True, True, True),
        ]
        times = []
        for flags in steps:
            nd = NDSearch(index=small_hnsw, config=tiny_config.with_flags(flags))
            times.append(nd.simulate_traces(traces).sim_time_s)
        assert times[-1] < times[0]
        assert times[3] <= times[2] * 1.02  # da never hurts


class TestTraceCache:
    def test_overwrite_keeps_unrelated_entries(
        self, system, small_queries, monkeypatch
    ):
        from repro.core import searssd

        monkeypatch.setattr(searssd, "TRACE_CACHE_CAP", 3)
        _, _, traces = system.index.search_batch(small_queries[:3], 5, ef=24)
        system.simulate_traces(traces)
        cache = system._trace_cache
        assert len(cache) == 3
        # A stale entry under trace 1's key (as after an id recycle) is
        # replaced in place; the oldest entry (trace 0) must survive.
        key = next(k for k, e in cache.items() if e[0] is traces[1])
        cache[key] = (object(), None, None)
        system.simulate_traces([traces[1]])
        assert len(cache) == 3
        cached = [e[0] for e in cache.values()]
        assert all(any(c is t for c in cached) for t in traces)

    def test_repeated_trace_resolves_once(
        self, system, small_queries, monkeypatch
    ):
        from repro.core import ndsearch

        remapped = []
        remap = ndsearch.remap_trace

        def counting(trace, new_id):
            remapped.append(trace)
            return remap(trace, new_id)

        monkeypatch.setattr(ndsearch, "remap_trace", counting)
        _, _, traces = system.index.search_batch(small_queries[:2], 5, ef=24)
        a, b = traces
        result = system.simulate_traces([a, b, a, b, a])
        assert remapped == [a, b]
        again = system.simulate_traces([a, b, a, b, a])
        assert remapped == [a, b]
        assert again.sim_time_s == result.sim_time_s
