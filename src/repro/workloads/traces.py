"""Persistent trace sets: the unit of exchange between the functional
search layer and the trace-driven simulators.

The paper's methodology (Section VII-A) generates memory traces once —
by instrumenting the search code — and feeds them to the simulator.
:class:`TraceSet` is that artifact: a batch of per-query
:class:`~repro.ann.trace.SearchTrace` objects with the search results,
serialisable to a single ``.npz`` so expensive graph construction and
trace generation run once per (dataset, algorithm) and every
experiment replays from cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.ann.trace import SearchTrace, computed_segments


def zipf_weights(pool_size: int, exponent: float = 1.0) -> np.ndarray:
    """Normalised Zipf popularity weights over ``pool_size`` ranks.

    Rank ``r`` (1-based) gets probability proportional to ``r**-exponent``.
    ``exponent=0`` degenerates to uniform; production query logs typically
    sit around 0.7-1.2 (a small head of queries dominates traffic).
    """
    if pool_size < 1:
        raise ValueError("pool_size must be >= 1")
    if exponent < 0:
        raise ValueError("exponent must be >= 0")
    ranks = np.arange(1, pool_size + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()


@dataclass
class ZipfianSampler:
    """Skewed query-popularity sampler over a finite query pool.

    Models the popularity skew of real serving traffic: queries are
    drawn from a pool of ``pool_size`` distinct queries with Zipfian
    rank-frequency weights.  By default the popularity ranking is
    shuffled (seeded) so that "hot" queries are scattered across the
    pool rather than being the lowest indices — pool index and
    popularity rank stay independent, as in real query logs.

    Deterministic: the same ``(pool_size, exponent, seed)`` and call
    sequence reproduce the same query IDs.
    """

    pool_size: int
    exponent: float = 1.0
    seed: int = 0
    shuffle: bool = True

    _rng: np.random.Generator = field(init=False, repr=False)
    _weights: np.ndarray = field(init=False, repr=False)
    _ids: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._weights = zipf_weights(self.pool_size, self.exponent)
        self._ids = np.arange(self.pool_size, dtype=np.int64)
        if self.shuffle:
            self._ids = self._rng.permutation(self._ids)

    def sample(self, size: int) -> np.ndarray:
        """Draw ``size`` query IDs (int64 indices into the pool)."""
        if size < 0:
            raise ValueError("size must be >= 0")
        return self._rng.choice(self._ids, size=size, p=self._weights)

    def expected_hit_rate(self, cache_entries: int) -> float:
        """Popularity mass of the ``cache_entries`` hottest queries —
        an upper bound on the steady-state hit rate of a cache that
        holds that many entries."""
        if cache_entries <= 0:
            return 0.0
        return float(self._weights[: min(cache_entries, self.pool_size)].sum())


@dataclass
class TraceSet:
    """A batch of search traces plus the search outputs."""

    traces: list[SearchTrace]
    result_ids: np.ndarray
    result_dists: np.ndarray

    def __len__(self) -> int:
        return len(self.traces)

    def subset(self, batch_size: int) -> "TraceSet":
        """The first ``batch_size`` queries (prefix slicing keeps all
        experiments on identical query populations)."""
        if batch_size > len(self.traces):
            raise ValueError(
                f"requested batch {batch_size} exceeds pool of {len(self.traces)}"
            )
        return TraceSet(
            traces=self.traces[:batch_size],
            result_ids=self.result_ids[:batch_size],
            result_dists=self.result_dists[:batch_size],
        )

    # ---- persistence ------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Write every trace's arrays back to back into one ``.npz``.

        ``entries`` and ``computed`` are the traces' arrays
        concatenated; ``iter_offsets[q]`` is trace ``q``'s first
        iteration and ``computed_offsets[i]`` iteration ``i``'s first
        computed ID, both counted over the whole set.
        """
        iter_offsets = np.zeros(len(self.traces) + 1, dtype=np.int64)
        np.cumsum([t.num_iterations for t in self.traces], out=iter_offsets[1:])
        if self.traces:
            lengths, computed = computed_segments(self.traces)
            entries = np.concatenate([t.entries for t in self.traces])
        else:
            lengths = computed = entries = np.empty(0, dtype=np.int64)
        computed_offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=computed_offsets[1:])
        np.savez_compressed(
            Path(path),
            entries=entries,
            iter_offsets=iter_offsets,
            computed=computed,
            computed_offsets=computed_offsets,
            result_ids=self.result_ids,
            result_dists=self.result_dists,
        )

    @classmethod
    def load(cls, path: str | Path) -> "TraceSet":
        """Read a :meth:`save` file; each trace's arrays are slices of
        the loaded ones."""
        with np.load(Path(path)) as data:
            entries = data["entries"]
            iter_offsets = data["iter_offsets"].tolist()
            computed = data["computed"]
            computed_offsets = data["computed_offsets"]
            result_ids = data["result_ids"]
            result_dists = data["result_dists"]
        traces: list[SearchTrace] = []
        for q, (a, b) in enumerate(zip(iter_offsets, iter_offsets[1:])):
            lo = computed_offsets[a]
            offsets = computed_offsets[a : b + 1] - lo
            traces.append(
                SearchTrace(
                    query_id=q,
                    entries=entries[a:b],
                    offsets=offsets,
                    computed=computed[lo : lo + offsets[-1]],
                )
            )
        return cls(traces=traces, result_ids=result_ids, result_dists=result_dists)

    @classmethod
    def from_search(
        cls, ids: np.ndarray, dists: np.ndarray, traces: list[SearchTrace]
    ) -> "TraceSet":
        return cls(traces=traces, result_ids=ids, result_dists=dists)
