"""Tests for TraceSet persistence and slicing."""

from pathlib import Path

import numpy as np
import pytest

from repro.ann.trace import TraceRecorder
from repro.workloads import TraceSet

#: Written by ``TraceSet.save`` before traces became flat arrays; the
#: on-disk layout (key names, int64 dtypes) must keep loading.
LEGACY_FIXTURE = Path(__file__).parent / "data" / "legacy.traces.npz"
LEGACY_ITERATIONS = [
    [(5, [5, 1000, 3]), (3, [7, 8]), (7, []), (8, [2])],
    [],
    [(0, []), (9, [11, 12, 13])],
    [(4, [4])],
]


def _iterations(trace):
    return [
        (int(trace.entries[r]), trace.computed_at(r).tolist())
        for r in range(trace.num_iterations)
    ]


def _trace_set(n=6, seed=0):
    rng = np.random.default_rng(seed)
    traces = []
    for q in range(n):
        rec = TraceRecorder(query_id=q)
        for _ in range(int(rng.integers(1, 5))):
            rec.record_iteration(int(rng.integers(100)), rng.integers(0, 100, size=3))
        traces.append(rec.finish())
    ids = rng.integers(0, 100, size=(n, 4)).astype(np.int64)
    dists = rng.random(size=(n, 4))
    return TraceSet(traces=traces, result_ids=ids, result_dists=dists)


class TestRoundTrip:
    def test_save_load_identical(self, tmp_path):
        ts = _trace_set()
        path = tmp_path / "traces.npz"
        ts.save(path)
        loaded = TraceSet.load(path)
        assert len(loaded) == len(ts)
        for a, b in zip(ts.traces, loaded.traces):
            assert a.num_iterations == b.num_iterations
            assert _iterations(a) == _iterations(b)
        assert np.array_equal(loaded.result_ids, ts.result_ids)
        assert np.allclose(loaded.result_dists, ts.result_dists)

    def test_empty_iterations_preserved(self, tmp_path):
        rec = TraceRecorder(query_id=0)
        rec.record_iteration(3, [])
        ts = TraceSet(
            traces=[rec.finish()],
            result_ids=np.zeros((1, 2), dtype=np.int64),
            result_dists=np.zeros((1, 2)),
        )
        path = tmp_path / "t.npz"
        ts.save(path)
        loaded = TraceSet.load(path)
        assert _iterations(loaded.traces[0]) == [(3, [])]

    def test_empty_set_round_trips(self, tmp_path):
        ts = TraceSet(
            traces=[],
            result_ids=np.zeros((0, 2), dtype=np.int64),
            result_dists=np.zeros((0, 2)),
        )
        path = tmp_path / "t.npz"
        ts.save(path)
        assert len(TraceSet.load(path)) == 0


class TestLegacyFile:
    def test_keys_and_dtypes(self):
        with np.load(LEGACY_FIXTURE) as data:
            assert sorted(data.files) == [
                "computed", "computed_offsets", "entries",
                "iter_offsets", "result_dists", "result_ids",
            ]
            for key in ("entries", "iter_offsets", "computed", "computed_offsets"):
                assert data[key].dtype == np.int64

    def test_loads_into_list_oracle(self):
        loaded = TraceSet.load(LEGACY_FIXTURE)
        assert [t.query_id for t in loaded.traces] == [0, 1, 2, 3]
        assert [_iterations(t) for t in loaded.traces] == LEGACY_ITERATIONS
        assert [t.trace_length for t in loaded.traces] == [6, 0, 3, 1]
        assert loaded.result_ids.tolist() == [[5, 3], [-1, -1], [11, 12], [4, -1]]
        assert loaded.result_dists[0].tolist() == [0.5, 1.25]

    def test_resave_is_identical(self, tmp_path):
        path = tmp_path / "again.traces.npz"
        TraceSet.load(LEGACY_FIXTURE).save(path)
        with np.load(LEGACY_FIXTURE) as old, np.load(path) as new:
            assert sorted(old.files) == sorted(new.files)
            for key in old.files:
                assert old[key].dtype == new[key].dtype
                np.testing.assert_array_equal(old[key], new[key])


class TestSubset:
    def test_prefix_slice(self):
        ts = _trace_set(8)
        sub = ts.subset(3)
        assert len(sub) == 3
        assert sub.traces[0] is ts.traces[0]
        assert sub.result_ids.shape[0] == 3

    def test_oversized_subset_rejected(self):
        with pytest.raises(ValueError):
            _trace_set(4).subset(10)


class TestZipfianSampler:
    def test_weights_normalised_and_descending(self):
        from repro.workloads import zipf_weights

        w = zipf_weights(100, exponent=1.0)
        assert w.sum() == pytest.approx(1.0)
        assert (np.diff(w) <= 0).all()

    def test_zero_exponent_is_uniform(self):
        from repro.workloads import zipf_weights

        w = zipf_weights(10, exponent=0.0)
        np.testing.assert_allclose(w, 0.1)

    def test_deterministic_given_seed(self):
        from repro.workloads import ZipfianSampler

        a = ZipfianSampler(pool_size=50, exponent=1.0, seed=3).sample(200)
        b = ZipfianSampler(pool_size=50, exponent=1.0, seed=3).sample(200)
        np.testing.assert_array_equal(a, b)
        assert a.min() >= 0 and a.max() < 50

    def test_higher_exponent_concentrates_traffic(self):
        from repro.workloads import ZipfianSampler

        def top1_share(exponent):
            ids = ZipfianSampler(
                pool_size=64, exponent=exponent, seed=7
            ).sample(5000)
            _, counts = np.unique(ids, return_counts=True)
            return counts.max() / ids.size

        assert top1_share(1.5) > top1_share(0.5)

    def test_shuffle_decouples_rank_from_index(self):
        from repro.workloads import ZipfianSampler

        ids = ZipfianSampler(pool_size=1000, exponent=2.0, seed=1).sample(2000)
        _, counts = np.unique(ids, return_counts=True)
        hottest = np.bincount(ids, minlength=1000).argmax()
        assert counts.max() > 100  # skew is real
        assert hottest != 0       # but the hottest query is not index 0

    def test_expected_hit_rate_monotone(self):
        from repro.workloads import ZipfianSampler

        s = ZipfianSampler(pool_size=100, exponent=1.0, seed=0)
        rates = [s.expected_hit_rate(n) for n in (0, 1, 10, 100, 200)]
        assert rates[0] == 0.0
        assert all(a <= b for a, b in zip(rates, rates[1:]))
        assert rates[3] == pytest.approx(1.0)
        assert rates[4] == pytest.approx(1.0)

    def test_invalid_parameters_rejected(self):
        from repro.workloads import ZipfianSampler, zipf_weights

        with pytest.raises(ValueError):
            zipf_weights(0)
        with pytest.raises(ValueError):
            zipf_weights(10, exponent=-0.1)
        with pytest.raises(ValueError):
            ZipfianSampler(pool_size=10).sample(-1)
