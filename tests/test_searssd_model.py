"""Tests for the trace-driven SearSSD timing model."""

import dataclasses

import numpy as np
import pytest

from repro.ann.trace import TraceRecorder
from repro.core.config import SchedulingFlags
from repro.core.placement import map_vertices
from repro.core.searssd import SearSSDModel
from repro.flash.ecc import LDPCModel


def _make_traces(n_queries, iterations, vertices_per_iter, n_vertices, seed=0):
    rng = np.random.default_rng(seed)
    traces = []
    for q in range(n_queries):
        rec = TraceRecorder(query_id=q)
        for _ in range(iterations):
            entry = int(rng.integers(n_vertices))
            computed = rng.choice(n_vertices, vertices_per_iter, replace=False)
            rec.record_iteration(entry, computed)
        traces.append(rec.finish())
    return traces


@pytest.fixture()
def model(tiny_config):
    placement = map_vertices(600, tiny_config.geometry, 64)
    return SearSSDModel(config=tiny_config, placement=placement, dim=16)


class TestBasicRun:
    def test_nonzero_makespan_and_counters(self, model):
        traces = _make_traces(8, 5, 6, 600)
        result = model.run_batch(traces)
        assert result.sim_time_s > 0
        assert result.counters["page_reads"] > 0
        assert result.counters["distance_computations"] == 8 * 5 * 6
        assert result.qps > 0

    def test_empty_batch(self, model):
        result = model.run_batch([])
        assert result.sim_time_s == 0.0

    def test_busy_components_populated(self, model):
        result = model.run_batch(_make_traces(4, 3, 4, 600))
        for key in ("nand_read", "vgenerator", "allocator", "fpga_sort",
                    "pcie_host"):
            assert result.component_busy_s[key] > 0

    def test_more_queries_more_time(self, model):
        small = model.run_batch(_make_traces(4, 5, 6, 600, seed=1))
        large = model.run_batch(_make_traces(32, 5, 6, 600, seed=1))
        assert large.sim_time_s > small.sim_time_s


class TestSchedulingEffects:
    def test_dynamic_alloc_reduces_page_reads(self, tiny_config):
        placement = map_vertices(600, tiny_config.geometry, 64)
        # Queries share targets heavily: same trace for everyone.
        base = _make_traces(1, 6, 8, 600, seed=2)[0]
        traces = [dataclasses.replace(base, query_id=q) for q in range(16)]
        on = SearSSDModel(
            config=tiny_config.with_flags(
                SchedulingFlags(True, True, True, False)
            ),
            placement=placement,
            dim=16,
        ).run_batch(traces)
        off = SearSSDModel(
            config=tiny_config.with_flags(
                SchedulingFlags(True, True, False, False)
            ),
            placement=placement,
            dim=16,
        ).run_batch(traces)
        assert on.counters["page_reads"] < off.counters["page_reads"]
        assert on.sim_time_s < off.sim_time_s

    def test_multiplane_merging_counted(self, tiny_config):
        placement = map_vertices(600, tiny_config.geometry, 64, scheme="multiplane")
        vpp = placement.vectors_per_page
        # Accesses deliberately span sibling planes at equal pages.
        rec = TraceRecorder(query_id=0)
        rec.record_iteration(0, [0, vpp])
        t = rec.finish()
        model = SearSSDModel(config=tiny_config, placement=placement, dim=16)
        result = model.run_batch([t])
        assert result.counters["multiplane_reads"] == 1

    def test_cached_vertices_skip_nand(self, tiny_config):
        placement = map_vertices(600, tiny_config.geometry, 64)
        traces = _make_traces(4, 4, 5, 600, seed=3)
        cached = np.arange(600, dtype=np.int64)  # everything cached
        model = SearSSDModel(
            config=tiny_config, placement=placement, dim=16,
            cached_vertices=cached,
        )
        result = model.run_batch(traces)
        # All demand accesses served from internal DRAM.
        demand_reads = (
            result.counters["page_reads"]
            - result.counters["speculative_page_reads"]
        )
        assert demand_reads == 0
        assert result.counters["cache_hits"] == 4 * 4 * 5


class TestSubBatching:
    def test_oversized_batch_splits(self, tiny_config):
        placement = map_vertices(600, tiny_config.geometry, 64)
        model = SearSSDModel(config=tiny_config, placement=placement, dim=16)
        capacity = tiny_config.max_batch_capacity
        single = model.run_batch(_make_traces(capacity, 3, 4, 600, seed=4))
        double = model.run_batch(_make_traces(2 * capacity, 3, 4, 600, seed=4))
        # Two sequential sub-batches: clearly more than one batch's time.
        assert double.sim_time_s > 1.8 * single.sim_time_s


class TestECCInjection:
    def test_soft_decodes_slow_the_batch(self, tiny_config):
        placement = map_vertices(600, tiny_config.geometry, 64)
        traces = _make_traces(8, 5, 6, 600, seed=5)
        clean = SearSSDModel(
            config=tiny_config, placement=placement, dim=16,
            ldpc=LDPCModel(hard_failure_prob=0.0),
        ).run_batch(traces)
        faulty = SearSSDModel(
            config=tiny_config, placement=placement, dim=16,
            ldpc=LDPCModel(hard_failure_prob=0.3),
        ).run_batch(traces)
        assert faulty.counters["ecc_soft_decodes"] > 0
        assert clean.counters["ecc_soft_decodes"] == 0
        assert faulty.sim_time_s > clean.sim_time_s


class TestCompiledTraceCache:
    def _spec(self, trace):
        return [np.arange(3, dtype=np.int64) for _ in range(trace.num_iterations)]

    def test_overwrite_keeps_unrelated_entries(self, model, monkeypatch):
        from repro.core import searssd

        monkeypatch.setattr(searssd, "TRACE_CACHE_CAP", 4)
        traces = _make_traces(4, 3, 4, 600, seed=6)
        model.run_batch(traces, speculative_sets=[self._spec(t) for t in traces])
        assert len(model._compiled) == 4
        # Trace 2 returns with a fresh spec list: its stale entry is
        # replaced, and the oldest entry (trace 0) must survive.
        model.run_batch([traces[2]], speculative_sets=[self._spec(traces[2])])
        assert len(model._compiled) == 4
        cached = [e.trace for e in model._compiled.values()]
        assert all(any(c is t for c in cached) for t in traces)

    def test_full_cache_evicts_oldest_for_new_trace(self, model, monkeypatch):
        from repro.core import searssd

        monkeypatch.setattr(searssd, "TRACE_CACHE_CAP", 3)
        traces = _make_traces(4, 3, 4, 600, seed=7)
        model.run_batch(traces)
        assert [e.trace for e in model._compiled.values()] == traces[1:]

    def test_repeated_trace_compiles_once(self, model, monkeypatch):
        compiled_pairs = []
        compile_traces = model._compile_traces

        def counting(pairs):
            compiled_pairs.extend(pairs)
            return compile_traces(pairs)

        monkeypatch.setattr(model, "_compile_traces", counting)
        a, b = _make_traces(2, 4, 5, 600, seed=8)
        repeated = model.run_batch([a, b, a, a, b])
        assert [t for t, _ in compiled_pairs] == [a, b]
        fresh = SearSSDModel(
            config=model.config, placement=model.placement, dim=16
        ).run_batch([a, b, a, a, b])
        assert repeated.sim_time_s == fresh.sim_time_s
        assert repeated.counters == fresh.counters
