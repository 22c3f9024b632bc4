"""Unit tests for search traces and remapping."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.ann.trace import SearchTrace, TraceRecorder, remap_trace
from repro.workloads import TraceSet


def _record(query_id, iterations) -> SearchTrace:
    rec = TraceRecorder(query_id=query_id)
    for entry, computed in iterations:
        rec.record_iteration(entry, computed)
    return rec.finish()


def _sample_trace():
    return _record(3, [(0, [1, 2]), (1, [3]), (3, [])])


def _iterations(trace: SearchTrace) -> list[tuple[int, list[int]]]:
    """The trace as per-iteration Python lists (the test oracle's form)."""
    return [
        (int(trace.entries[r]), trace.computed_at(r).tolist())
        for r in range(trace.num_iterations)
    ]


class TestSearchTrace:
    def test_trace_length_counts_computed(self):
        assert _sample_trace().trace_length == 3

    def test_num_iterations(self):
        assert _sample_trace().num_iterations == 3

    def test_visited_order(self):
        assert _sample_trace().computed.tolist() == [1, 2, 3]

    def test_entries(self):
        assert _sample_trace().entries.tolist() == [0, 1, 3]

    def test_flat_layout(self):
        trace = _sample_trace()
        assert trace.offsets.tolist() == [0, 2, 3, 3]
        for arr in (trace.entries, trace.offsets, trace.computed):
            assert arr.dtype == np.int64

    def test_equality_is_identity(self):
        a, b = _sample_trace(), _sample_trace()
        assert a == a and a != b


class TestTraceRecorder:
    def test_records_iterations(self):
        rec = TraceRecorder(query_id=7)
        rec.record_iteration(0, [4, 5])
        rec.record_iteration(np.int64(4), np.array([6], dtype=np.int32))
        trace = rec.finish()
        assert trace.query_id == 7
        assert trace.trace_length == 3
        assert trace.computed_at(1).tolist() == [6]
        assert _iterations(trace) == [(0, [4, 5]), (4, [6])]

    def test_zero_iteration_trace(self):
        trace = TraceRecorder(query_id=1).finish()
        assert trace.num_iterations == 0
        assert trace.trace_length == 0
        assert trace.offsets.tolist() == [0]


class TestRemap:
    def test_remap_rewrites_all_ids(self):
        trace = _sample_trace()
        new_id = np.array([10, 11, 12, 13])
        out = remap_trace(trace, new_id)
        assert out.entries.tolist() == [10, 11, 13]
        assert _iterations(out)[0] == (10, [11, 12])
        assert out.query_id == trace.query_id

    def test_remap_preserves_structure(self):
        trace = _sample_trace()
        out = remap_trace(trace, np.arange(4))
        assert out.num_iterations == trace.num_iterations
        assert out.trace_length == trace.trace_length
        assert out.offsets.tolist() == trace.offsets.tolist()

    def test_remap_zero_iteration_trace(self):
        out = remap_trace(TraceRecorder(query_id=0).finish(), np.array([5, 6]))
        assert out.num_iterations == 0
        assert _iterations(out) == []


_N_VERTICES = 64

_iteration_lists = st.lists(
    st.tuples(
        st.integers(0, _N_VERTICES - 1),
        st.lists(st.integers(0, _N_VERTICES - 1), max_size=6),
    ),
    max_size=5,
)


@given(
    traces=st.lists(_iteration_lists, min_size=1, max_size=5),
    perm_seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_record_remap_save_load_matches_list_oracle(tmp_path_factory, traces, perm_seed):
    """record -> remap -> save/load equals remapping per-iteration lists,
    including zero-length iterations and zero-iteration traces."""
    new_id = np.random.default_rng(perm_seed).permutation(_N_VERTICES)
    remapped = [
        remap_trace(_record(q, its), new_id) for q, its in enumerate(traces)
    ]
    oracle = [
        [(int(new_id[e]), [int(new_id[v]) for v in comp]) for e, comp in its]
        for its in traces
    ]
    assert [_iterations(t) for t in remapped] == oracle

    n = len(traces)
    path = tmp_path_factory.mktemp("traces") / "t.traces.npz"
    TraceSet(
        traces=remapped,
        result_ids=np.zeros((n, 2), dtype=np.int64),
        result_dists=np.zeros((n, 2)),
    ).save(path)
    loaded = TraceSet.load(path)
    assert [t.query_id for t in loaded.traces] == list(range(n))
    assert [_iterations(t) for t in loaded.traces] == oracle
    for t in loaded.traces:
        assert t.offsets[0] == 0 and t.offsets.size == t.num_iterations + 1
        assert t.trace_length == int(t.offsets[-1])
