"""Vectorised sub-batch pricing equals the round-by-round pricing it replaced.

``SearSSDModel._run_sub_batch`` prices every round of a sub-batch in one
pass over flat compiled traces.  The oracle below is the round-by-round
pricing loop it replaced, kept verbatim apart from taking the model as
an argument: per round it aggregates the active traces' compiled work
into first-touch LUN accumulators, prices the Searching stage LUN by
LUN (one ``decode_pages`` call each) and pools the speculative
prefetches.  It runs over rounds resolved by the per-trace compile
oracle of ``test_trace_compile_properties``.

Outputs must match exactly: the makespan's bits, the counters and their
key set, the busy times in order, every timeline segment, and the LDPC
model's read count and RNG state afterwards.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.ann.trace import TraceRecorder
from repro.core.config import HostConfig, NDSearchConfig, SchedulingFlags
from repro.core.placement import map_vertices
from repro.core.searssd import SearSSDModel
from repro.flash.ecc import LDPCModel
from repro.flash.timing import FlashTiming
from repro.sim.stats import Counters, PhaseSegment, SimResult
from repro.sorting.fpga import FPGASorter

from test_trace_compile_properties import (
    FLAGS,
    GEOMETRY,
    batches,
    loads_and_merges,
    oracle_rounds,
)

FAILURE_PROBS = (0.0, 0.01, 0.3, 1.0)


def _model(n, flags, p, cached=None, queries_per_lun=16) -> SearSSDModel:
    config = NDSearchConfig(
        geometry=GEOMETRY,
        timing=FlashTiming(read_page_s=20e-6),
        host=HostConfig(
            dram_capacity_bytes=64 * 1024, vram_capacity_bytes=64 * 1024
        ),
        flags=flags,
        dram_bytes=16 * 1024**2,
        max_queries_per_lun=queries_per_lun,
    )
    placement = map_vertices(n, GEOMETRY, 64, scheme="multiplane")
    return SearSSDModel(
        config=config, placement=placement, dim=16,
        ldpc=LDPCModel(hard_failure_prob=p), cached_vertices=cached,
    )


# ---- the oracle: round-by-round pricing ------------------------------------------
@dataclasses.dataclass
class OracleTrace:
    rounds: tuple
    n_rounds: int
    trace_length: int


def oracle_run_batch(model, traces, speculative_sets) -> SimResult:
    batch = len(traces)
    model.ldpc.reset()
    capacity = model.config.max_batch_capacity
    counters = Counters()
    busy: dict[str, float] = {}
    timeline: list[PhaseSegment] = []
    makespan = 0.0
    specs = speculative_sets or [None] * batch
    compiled = [
        OracleTrace(
            oracle_rounds(model, t, spec), t.num_iterations, t.trace_length
        )
        for t, spec in zip(traces, specs)
    ]
    spec_enabled = speculative_sets is not None
    for start in range(0, batch, capacity):
        sub = compiled[start : start + capacity]
        t, c, b, segments = oracle_sub_batch(model, sub, spec_enabled)
        timeline.extend(
            PhaseSegment(
                s.stage, s.start + makespan, s.end + makespan,
                resource=s.resource,
            )
            for s in segments
        )
        makespan += t
        counters.update(c)
        for key, val in b.items():
            busy[key] = busy.get(key, 0.0) + val
    return SimResult(
        platform="ndsearch", algorithm="hnsw", dataset="synthetic",
        batch_size=batch, sim_time_s=makespan, counters=counters,
        component_busy_s=busy, timeline=timeline,
    )


def oracle_sub_batch(model, compiled, spec_enabled):
    timing = model.config.timing
    flags = model.config.flags
    counters = Counters()
    busy: dict[str, float] = {
        "pcie_host": 0.0,
        "vgenerator": 0.0,
        "allocator": 0.0,
        "nand_read": 0.0,
        "channel_bus": 0.0,
        "dram": 0.0,
        "embedded_cores": 0.0,
        "fpga_sort": 0.0,
        "sin_macs_busy": 0.0,
        "nand_busy": 0.0,
        "lun_queues_busy": 0.0,
        "ecc_busy": 0.0,
    }
    batch = len(compiled)
    if batch == 0:
        return 0.0, counters, busy, []
    segments: list[PhaseSegment] = []

    def book(stage: str, resource: str, start: float, duration: float) -> None:
        if duration > 0:
            segments.append(
                PhaseSegment(stage, start, start + duration, resource=resource)
            )

    query_bytes = batch * (model.dim * 4 + 16)
    t_in = timing.host_transfer_s(query_bytes)
    counters["pcie_bytes"] += query_bytes
    busy["pcie_host"] += t_in
    book("host_in", "host_in", 0.0, t_in)
    makespan = t_in

    max_rounds = max(c.n_rounds for c in compiled)

    for round_idx in range(max_rounds):
        n_active = 0
        n_pairs = 0
        cached_accesses = 0
        lun_acc: dict[int, list] = {}
        for comp in compiled:
            if round_idx >= comp.n_rounds:
                continue
            had, pairs, hits, n_cached, groups = comp.rounds[round_idx][:5]
            n_active += 1
            if hits:
                counters["speculative_hits"] += hits
            if n_cached:
                counters["cache_hits"] += n_cached
                cached_accesses += n_cached
            if had:
                n_pairs += pairs
                counters["distance_computations"] += pairs
            for lun, raw, uniq, loads, merged in groups:
                acc = lun_acc.get(lun)
                if acc is None:
                    acc = lun_acc[lun] = [0, 0, 0, []]
                acc[0] += raw
                acc[1] += loads
                if flags.multiplane:
                    acc[2] += merged
                acc[3].append(uniq)
        if n_active == 0:
            continue

        t_vgen = (n_active + 2) * timing.vgen_stage_s
        t_alloc = n_pairs * timing.alloc_dispatch_s
        dram_ops = 3 * n_active + 2 * n_pairs + cached_accesses
        t_dram_sched = dram_ops * timing.dram_access_s
        counters["dram_accesses"] += dram_ops
        t_sched = max(t_vgen + t_alloc, t_dram_sched)
        if flags.speculative and round_idx > 0:
            t_sched = 0.0
        busy["vgenerator"] += t_vgen
        busy["allocator"] += t_alloc
        busy["dram"] += t_dram_sched

        t_search, search_busy = oracle_search_stage(model, lun_acc, counters)
        for key, val in search_busy.items():
            busy[key] = busy.get(key, 0.0) + val

        gather_ops = n_pairs + n_active
        t_gather = (
            n_pairs * timing.dram_access_s
            + n_active * timing.embedded_core_op_s
        )
        counters["dram_accesses"] += gather_ops
        busy["embedded_cores"] += n_active * timing.embedded_core_op_s
        busy["dram"] += n_pairs * timing.dram_access_s

        if flags.speculative and spec_enabled:
            oracle_speculative_stage(model, compiled, round_idx, counters, busy)

        book("schedule", "engine", makespan, t_sched)
        book("search", "engine", makespan + t_sched, t_search)
        book("gather", "engine", makespan + t_sched + t_search, t_gather)
        makespan += t_sched + t_search + t_gather

    list_len = int(np.mean([max(c.trace_length, 1) for c in compiled]))
    list_len = min(list_len, 256)
    t_sort = FPGASorter(timing=timing).sort_latency_s(batch, list_len)
    counters["sorted_elements"] += batch * list_len
    busy["fpga_sort"] += t_sort
    out_bytes = batch * 10 * 8
    t_out = timing.host_transfer_s(out_bytes)
    counters["pcie_bytes"] += out_bytes
    busy["pcie_host"] += t_out
    book("sort", "sorter", makespan, t_sort)
    book("host_out", "host_out", makespan + t_sort, t_out)
    makespan += t_sort + t_out
    return makespan, counters, busy, segments


def oracle_search_stage(model, lun_acc: dict[int, list], counters: Counters):
    timing = model.config.timing
    geometry = model.config.geometry
    flags = model.config.flags
    busy = {
        "nand_read": 0.0,
        "channel_bus": 0.0,
        "embedded_cores": 0.0,
        "sin_macs_busy": 0.0,
        "nand_busy": 0.0,
        "lun_queues_busy": 0.0,
        "ecc_busy": 0.0,
    }
    channel_compute: dict[int, float] = {}
    channel_readout: dict[int, float] = {}
    soft_stall = 0.0
    da_loads: dict[int, int] = {}
    da_merged: dict[int, int] = {}
    if flags.dynamic_alloc:
        multi: list[np.ndarray] = []
        multi_luns: list[int] = []
        for lun, acc in lun_acc.items():
            if len(acc[3]) > 1:
                multi.extend(acc[3])
                multi_luns.append(lun)
        if multi:
            uniq = np.unique(np.concatenate(multi))
            plane = (uniq // model._plane_span) % geometry.planes_per_lun
            wp = np.unique(uniq - plane * model._plane_span)
            multi_luns.sort()
            edges = np.empty(len(multi_luns) * 2, dtype=np.int64)
            edges[0::2] = np.asarray(multi_luns) * model._lun_span
            edges[1::2] = edges[0::2] + model._lun_span
            bounds = np.searchsorted(uniq, edges)
            wp_bounds = np.searchsorted(wp, edges)
            for i, lid in enumerate(multi_luns):
                loads_i = int(bounds[2 * i + 1] - bounds[2 * i])
                da_loads[lid] = loads_i
                da_merged[lid] = loads_i - int(
                    wp_bounds[2 * i + 1] - wp_bounds[2 * i]
                )
    for lun, (n_vectors, loads, merged, uniqs) in lun_acc.items():
        if flags.dynamic_alloc and len(uniqs) > 1:
            loads = da_loads[lun]
            merged = da_merged[lun] if flags.multiplane else 0
        effective_ops = loads - merged
        counters["page_reads"] += loads
        counters["multiplane_reads"] += merged
        counters["ecc_hard_decodes"] += loads
        t_mac = n_vectors * timing.distance_mac_s(model.dim)
        t_nand = effective_ops * (timing.read_page_s + timing.ecc_hard_decode_s)
        failures = model.ldpc.decode_pages(loads)
        if failures:
            counters["ecc_soft_decodes"] += failures
            t_soft = failures * timing.ecc_soft_decode_s
            t_nand += t_soft
            soft_stall += t_soft
        lun_time = t_nand + t_mac
        busy["nand_busy"] += t_nand
        busy["sin_macs_busy"] += t_mac
        busy["ecc_busy"] += loads * timing.ecc_hard_decode_s
        busy["lun_queues_busy"] += lun_time
        channel = lun // geometry.luns_per_channel
        channel_compute[channel] = max(channel_compute.get(channel, 0.0), lun_time)
        readout_bytes = n_vectors * 8 + 16
        counters["internal_bytes"] += readout_bytes
        channel_readout[channel] = channel_readout.get(channel, 0.0) + (
            readout_bytes / timing.channel_bus_bw + 0.5e-6
        )
    if not channel_compute:
        return 0.0, busy
    t_search = max(
        channel_compute[ch] + channel_readout.get(ch, 0.0)
        for ch in channel_compute
    )
    t_compute_crit = max(channel_compute.values())
    busy["nand_read"] += t_compute_crit
    busy["channel_bus"] += t_search - t_compute_crit
    busy["embedded_cores"] += soft_stall
    return t_search, busy


def oracle_speculative_stage(model, compiled, round_idx, counters, busy) -> None:
    timing = model.config.timing
    total_vertices = 0
    keys_list: list[np.ndarray] = []
    loads = merged = 0
    for comp in compiled:
        if round_idx >= comp.n_rounds:
            continue
        spec_count, spec_keys, spec_loads, spec_merged = (
            comp.rounds[round_idx][5:9]
        )
        if spec_count:
            total_vertices += spec_count
            keys_list.append(spec_keys)
            loads, merged = spec_loads, spec_merged
    if not keys_list:
        return
    if len(keys_list) > 1:
        loads, merged = loads_and_merges(model, np.concatenate(keys_list))
    effective = loads - (merged if model.config.flags.multiplane else 0)
    counters["speculative_page_reads"] += loads
    counters["page_reads"] += loads
    counters["ecc_hard_decodes"] += loads
    busy["nand_busy"] += effective * timing.read_page_s
    busy["sin_macs_busy"] += total_vertices * timing.distance_mac_s(model.dim)


# ---- comparison ------------------------------------------------------------------
def assert_results_identical(got: SimResult, want: SimResult) -> None:
    assert type(got.sim_time_s) is float
    assert got.sim_time_s.hex() == want.sim_time_s.hex()
    assert got.batch_size == want.batch_size
    assert set(got.counters) == set(want.counters)
    assert dict(got.counters) == dict(want.counters)
    assert all(type(v) is int for v in got.counters.values())
    assert [(k, v.hex()) for k, v in got.component_busy_s.items()] == [
        (k, v.hex()) for k, v in want.component_busy_s.items()
    ]
    assert all(type(v) is float for v in got.component_busy_s.values())
    assert [
        (s.stage, s.resource, s.start.hex(), s.end.hex()) for s in got.timeline
    ] == [
        (s.stage, s.resource, s.start.hex(), s.end.hex()) for s in want.timeline
    ]
    assert all(
        type(s.start) is float and type(s.end) is float for s in got.timeline
    )


def assert_ldpc_identical(got: LDPCModel, want: LDPCModel) -> None:
    assert got.reads == want.reads
    assert got._rng.bit_generator.state == want._rng.bit_generator.state


def price_both(n, flags, p, traces, specs, cached=None, queries_per_lun=16):
    """Price ``traces`` cold and then warm on a model and on the oracle."""
    model = _model(n, flags, p, cached, queries_per_lun)
    oracle = _model(n, flags, p, cached, queries_per_lun)
    want = oracle_run_batch(oracle, traces, specs)
    for _ in range(2):
        got = model.run_batch(traces, specs)
        assert_results_identical(got, want)
        assert_ldpc_identical(model.ldpc, oracle.ldpc)
    return got


# ---- properties ------------------------------------------------------------------
@given(
    batches(),
    FLAGS,
    st.sampled_from(FAILURE_PROBS),
    st.sampled_from(["none", "some", "all"]),
    st.sampled_from([1, 2, 16]),
    st.booleans(),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_pricing_matches_round_by_round_oracle(
    batch, flags, p, cache_mode, queries_per_lun, with_specs, data
):
    n, traces, specs = batch
    cached = None
    if cache_mode == "all":
        cached = np.arange(n, dtype=np.int64)
    elif cache_mode == "some":
        cached = np.asarray(
            data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)),
            dtype=np.int64,
        )
    if traces and data.draw(st.booleans()):
        # Repeat some trace objects, as served batches do.
        picks = data.draw(st.lists(st.integers(0, len(traces) - 1), max_size=8))
        traces = traces + [traces[i] for i in picks]
        specs = specs + [specs[i] for i in picks]
    price_both(
        n, flags, p, traces, specs if with_specs else None, cached,
        queries_per_lun,
    )


@given(st.sampled_from(FAILURE_PROBS), st.integers(min_value=0, max_value=12))
@settings(max_examples=20, deadline=None)
def test_every_flag_combination_on_a_split_batch(p, seed):
    """All 16 flag sets, unequal trace lengths, empty rounds, 3 sub-batches."""
    rng = np.random.default_rng(seed)
    n = 64
    traces, specs = [], []
    for q in range(20):
        rec = TraceRecorder(query_id=q)
        for _ in range(int(rng.integers(0, 7))):
            size = int(rng.integers(0, 10))
            rec.record_iteration(0, rng.integers(0, n, size))
        trace = rec.finish()
        traces.append(trace)
        specs.append(
            [
                rng.integers(0, n, int(rng.integers(0, 6)))
                for _ in range(trace.num_iterations)
            ]
        )
    cached = np.arange(0, n, 5, dtype=np.int64)
    for bits in range(16):
        flags = SchedulingFlags(*(bool(bits >> i & 1) for i in range(4)))
        got = price_both(
            n, flags, p, traces, specs, cached, queries_per_lun=1
        )
        assert [s.stage for s in got.timeline].count("host_in") == 3


def test_batch_of_zero_round_traces():
    traces = [TraceRecorder(query_id=q).finish() for q in range(3)]
    got = price_both(8, SchedulingFlags.all_enabled(), 0.3, traces, [[], [], []])
    assert "dram_accesses" not in got.counters
    assert [s.stage for s in got.timeline] == ["host_in", "sort", "host_out"]


def test_empty_batch():
    got = price_both(8, SchedulingFlags.all_enabled(), 0.3, [], None)
    assert got.sim_time_s == 0.0 and got.timeline == [] and got.counters == {}
