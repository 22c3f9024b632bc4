"""The batched trace compile equals the per-trace computation it replaced.

``SearSSDModel._compile_traces`` resolves the rounds of many traces in
one vectorised pass, and ``precompute_speculative_sets`` selects the
prefetch sets of every (trace, iteration) in one pass.  Both must give
exactly what the straightforward per-trace, per-round computation
gives.  That computation is kept here as the oracle: ``oracle_rounds``
is the per-trace compile body (one ``np.unique`` per round and LUN),
and the speculative oracle is ``select_speculative_candidates`` applied
per iteration.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ann.graph import ProximityGraph
from repro.ann.trace import SearchTrace, TraceRecorder
from repro.core.config import HostConfig, NDSearchConfig, SchedulingFlags
from repro.core.placement import map_vertices
from repro.core.searssd import (
    _CACHED,
    _HAD,
    _HITS,
    _PAIRS,
    _ROUND,
    _SPEC,
    SearSSDModel,
)
from repro.core.speculative import (
    TRACE_CHUNK,
    precompute_speculative_sets,
    select_speculative_candidates,
)
from repro.flash.geometry import SSDGeometry
from repro.flash.timing import FlashTiming

GEOMETRY = SSDGeometry(
    channels=2, chips_per_channel=2, luns_per_chip=2, planes_per_lun=2,
    blocks_per_plane=8, pages_per_block=8, page_size=1024,
)


def _model(n, flags, scheme="multiplane", cached=None) -> SearSSDModel:
    config = NDSearchConfig(
        geometry=GEOMETRY,
        timing=FlashTiming(read_page_s=20e-6),
        host=HostConfig(
            dram_capacity_bytes=64 * 1024, vram_capacity_bytes=64 * 1024
        ),
        flags=flags,
        dram_bytes=16 * 1024**2,
    )
    placement = map_vertices(n, GEOMETRY, 64, scheme=scheme)
    return SearSSDModel(
        config=config, placement=placement, dim=16, cached_vertices=cached
    )


def loads_and_merges(model: SearSSDModel, keys: np.ndarray) -> tuple[int, int]:
    """Distinct page senses and multi-plane merge count for keys.

    ``merged`` counts pages folded into another plane's sense of the
    same (block, page): distinct pages minus distinct plane-stripped
    pages.
    """
    unique = np.unique(keys)
    loads = int(unique.size)
    plane = (unique // model._plane_span) % model.config.geometry.planes_per_lun
    without_plane = unique - plane * model._plane_span
    merged = loads - int(np.unique(without_plane).size)
    return loads, merged


def oracle_rounds(model: SearSSDModel, trace: SearchTrace, spec) -> tuple:
    """One trace's rounds, resolved round by round and LUN by LUN."""
    flags = model.config.flags
    n_iter = trace.num_iterations
    rounds = []
    for r in range(n_iter):
        computed = trace.computed_at(r)
        had_computed = computed.size > 0
        hits = 0
        n_cached = 0
        if had_computed:
            if flags.speculative and spec is not None and r >= 1:
                if r - 1 < len(spec) and spec[r - 1].size:
                    mask = np.isin(computed, spec[r - 1])
                    hits = int(np.count_nonzero(mask))
                    if hits:
                        computed = computed[~mask]
            if model._cached_arr is not None and computed.size:
                mask = np.isin(computed, model._cached_arr)
                n_cached = int(np.count_nonzero(mask))
                if n_cached:
                    computed = computed[~mask]
        pairs = int(computed.size)
        groups: tuple = ()
        if computed.size:
            keys = model.placement.page_keys(computed)
            luns = keys // model._lun_span
            group_list = []
            for lun in np.unique(luns):
                lun_keys = keys[luns == lun]
                uniq = np.unique(lun_keys)
                loads, merged = loads_and_merges(model, uniq)
                group_list.append(
                    (int(lun), int(lun_keys.size), uniq, loads, merged)
                )
            groups = tuple(group_list)
        spec_count = 0
        spec_keys = None
        spec_loads = 0
        spec_merged = 0
        if (
            flags.speculative
            and spec is not None
            and r < n_iter - 1
            and r < len(spec)
            and spec[r].size
        ):
            spec_count = int(spec[r].size)
            spec_keys = model.placement.page_keys(spec[r])
            spec_loads, spec_merged = loads_and_merges(model, spec_keys)
        rounds.append(
            (had_computed, pairs, hits, n_cached, groups,
             spec_count, spec_keys, spec_loads, spec_merged)
        )
    return tuple(rounds)


def assert_rounds_equal(model: SearSSDModel, comp, want: tuple) -> None:
    """``comp``'s flat arrays hold exactly the oracle's rounds ``want``."""
    key_space = model._key_space
    n = len(want)
    assert comp.rounds.dtype == np.int64 and comp.rounds.shape == (n, 6)
    assert comp.rounds[:, _ROUND].tolist() == list(range(n))
    assert comp.rounds[:, _HAD].tolist() == [int(w[0]) for w in want]
    assert comp.rounds[:, _PAIRS : _CACHED + 1].tolist() == [
        list(w[1:4]) for w in want
    ]
    assert comp.rounds[:, _SPEC].tolist() == [w[5] for w in want]

    want_groups = [
        (r, lun, raw, loads, merged)
        for r, w in enumerate(want)
        for lun, raw, _, loads, merged in w[4]
    ]
    assert comp.groups.dtype == np.int64
    assert comp.groups.shape == (len(want_groups), 5)
    assert comp.groups.tolist() == [list(g) for g in want_groups]
    want_keys = [
        r * key_space + uniq for r, w in enumerate(want) for _, _, uniq, _, _ in w[4]
    ]
    assert comp.group_keys.dtype == np.int64
    assert np.array_equal(
        comp.group_keys,
        np.concatenate(want_keys) if want_keys else np.empty(0, np.int64),
    )

    # Only the distinct prefetch keys matter: prefetches pool by union.
    # Their loads and merges are what pricing derives from the keys.
    spec_rounds = [r for r, w in enumerate(want) if w[6] is not None]
    assert all(want[r][5] == 0 for r in range(n) if r not in spec_rounds)
    want_spec = [r * key_space + np.unique(want[r][6]) for r in spec_rounds]
    assert comp.spec_keys.dtype == np.int64
    assert np.array_equal(
        comp.spec_keys,
        np.concatenate(want_spec) if want_spec else np.empty(0, np.int64),
    )
    rounds, _, loads, merged = model._group_loads_merges(comp.spec_keys, key_space)
    assert rounds.tolist() == spec_rounds
    assert list(zip(loads.tolist(), merged.tolist())) == [
        (want[r][7], want[r][8]) for r in spec_rounds
    ]


def _record(iterations) -> SearchTrace:
    rec = TraceRecorder(query_id=0)
    for entry, computed in iterations:
        rec.record_iteration(entry, computed)
    return rec.finish()


# ---- strategies --------------------------------------------------------------------
FLAGS = st.builds(
    SchedulingFlags, st.booleans(), st.booleans(), st.booleans(), st.booleans()
)


@st.composite
def batches(draw):
    """A vertex count, traces and matching speculative lists."""
    n = draw(st.integers(min_value=20, max_value=90))
    vertex = st.integers(min_value=0, max_value=n - 1)
    traces, specs = [], []
    for q in range(draw(st.integers(min_value=0, max_value=2 * TRACE_CHUNK + 3))):
        rec = TraceRecorder(query_id=q)
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            computed = draw(st.lists(vertex, max_size=9))
            rec.record_iteration(draw(vertex), computed)
        trace = rec.finish()
        traces.append(trace)
        n_iter = trace.num_iterations
        if draw(st.booleans()):
            length = max(0, n_iter + draw(st.integers(min_value=-2, max_value=1)))
            specs.append([
                np.asarray(draw(st.lists(vertex, max_size=6)), dtype=np.int64)
                for _ in range(length)
            ])
        else:
            specs.append(None)
    return n, traces, specs


@given(
    batches(),
    FLAGS,
    st.sampled_from(["multiplane", "interleaved"]),
    st.sampled_from(["none", "some", "all"]),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_batched_compile_matches_per_trace_oracle(
    batch, flags, scheme, cache_mode, data
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
    model = _model(n, flags, scheme=scheme, cached=cached)
    compiled = model._compile_traces(list(zip(traces, specs)))
    assert len(compiled) == len(traces)
    for comp, trace, spec in zip(compiled, traces, specs):
        assert comp.trace is trace and comp.spec is spec
        assert comp.n_rounds == trace.num_iterations
        assert comp.trace_length == trace.trace_length
        assert_rounds_equal(model, comp, oracle_rounds(model, trace, spec))


@given(batches(), st.data())
@settings(max_examples=30, deadline=None)
def test_repeated_traces_in_a_batch_match_the_oracle(batch, data):
    """A batch repeating trace objects resolves every position exactly."""
    n, traces, specs = batch
    if not traces:
        return
    picks = data.draw(
        st.lists(st.integers(0, len(traces) - 1), min_size=1, max_size=40)
    )
    model = _model(n, SchedulingFlags.all_enabled())
    batch_traces = [traces[i] for i in picks]
    batch_specs = [specs[i] for i in picks]
    compiled = model._compiled_batch(batch_traces, batch_specs)
    for comp, trace, spec in zip(compiled, batch_traces, batch_specs):
        assert comp.trace is trace and comp.spec is spec
        assert_rounds_equal(model, comp, oracle_rounds(model, trace, spec))


def test_spec_edges_at_first_and_last_round():
    """No hit is possible in round 0 and no prefetch in the last round."""
    trace = _record([(0, [1, 2, 3]), (0, [4, 5, 6]), (0, [7, 8, 9])])
    everything = np.arange(12, dtype=np.int64)
    spec = [everything] * 4  # longer than the trace
    model = _model(12, SchedulingFlags.all_enabled())
    (comp,) = model._compile_traces([(trace, spec)])
    want = oracle_rounds(model, trace, spec)
    assert_rounds_equal(model, comp, want)
    assert comp.rounds[:, _HITS].tolist() == [0, 3, 3]
    assert comp.rounds[:, _SPEC].tolist() == [12, 12, 0]
    assert (comp.spec_keys // model._key_space).max() == 1


# ---- speculative sets -------------------------------------------------------------
@st.composite
def graphs_and_traces(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    vertex = st.integers(min_value=0, max_value=n - 1)
    adjacency = [draw(st.lists(vertex, max_size=7)) for _ in range(n)]
    graph = ProximityGraph.from_adjacency(
        np.zeros((n, 2), dtype=np.float32), adjacency
    )
    traces = []
    for q in range(draw(st.integers(min_value=0, max_value=TRACE_CHUNK + 5))):
        rec = TraceRecorder(query_id=q)
        for _ in range(draw(st.integers(min_value=0, max_value=5))):
            rec.record_iteration(0, draw(st.lists(vertex, max_size=8)))
        traces.append(rec.finish())
    return graph, traces


@given(graphs_and_traces(), st.integers(min_value=0, max_value=6))
@settings(max_examples=60, deadline=None)
def test_speculative_sets_match_per_iteration_selection(case, width):
    graph, traces = case
    sets = precompute_speculative_sets(traces, graph, width)
    assert len(sets) == len(traces)
    for per_iter, trace in zip(sets, traces):
        assert len(per_iter) == trace.num_iterations
        for r, got in enumerate(per_iter):
            first = trace.computed_at(r)
            want = (
                select_speculative_candidates(graph, first, width)
                if first.size
                else np.empty(0, dtype=np.int64)
            )
            assert got.dtype == np.int64
            assert np.array_equal(got, want)


def test_speculative_sets_do_not_pin_cut_candidates(small_graph):
    """Each cached set views an array holding only the kept candidates."""
    trace = _record([(v, [v, v + 1, v + 2, v + 3]) for v in range(0, 40, 4)])
    (sets,) = precompute_speculative_sets([trace], small_graph, 2)
    owner = sets[0].base
    assert owner is not None
    assert owner.size == sum(s.size for s in sets) <= 2 * len(sets)


@pytest.mark.parametrize("width", [0, -1])
def test_non_positive_width_selects_nothing(small_graph, width):
    trace = _record([(0, [1, 2, 3]), (1, [])])
    (sets,) = precompute_speculative_sets([trace], small_graph, width)
    assert [s.size for s in sets] == [0, 0]
    assert all(s.dtype == np.int64 for s in sets)


def test_out_of_range_vertex_fails_loudly(small_graph):
    trace = _record([(0, [small_graph.num_vertices])])
    with pytest.raises(IndexError):
        precompute_speculative_sets([trace], small_graph, 4)
