"""Pinned SearSSD pricing: exact ``NDSearch.simulate_traces`` output.

The serving digests and perfbench run every scheduling flag on, so
nothing else pins the flag-off branches of the SearSSD timing model
bit for bit.  Each cell below prices a fixed batch of traces from a
fixed small HNSW or DiskANN index and hashes the whole
:class:`~repro.sim.stats.SimResult`: ``float.hex`` of the makespan,
energy and power, the sorted counters, the sorted component busy
times and every timeline segment.

Each cell is priced twice on one system, so the second call replays
every trace from the model's per-trace caches; both calls must hash
to the pinned digest.

Regenerating (only after an *intentional* change to the timing model,
with the reasoning recorded in the commit): a failing cell prints the
digest it computed; copy it into ``GOLDEN``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.ann import HNSWIndex, HNSWParams
from repro.ann.diskann import DiskANNIndex, DiskANNParams
from repro.core import NDSearch, NDSearchConfig, SchedulingFlags
from repro.core.config import HostConfig
from repro.flash.geometry import SSDGeometry
from repro.flash.timing import FlashTiming
from repro.sim.stats import SimResult

GOLDEN = {
    "fig16-re":
        "2fc06d95e2a5d05fcac081db7666bc4427d9893462a13586d224d839c2a5b292",
    "fig16-re+mp":
        "85e8fa1b5f311311fa40b411d27fa7750037b70d95011d7330f22d833e0f3c47",
    "fig16-re+mp+da":
        "30ee640880a5973d6bc8d992429da11e289fbaa99e1f05be883b1b4d2a0aed3e",
    "fig16-re+mp+da+sp":
        "42e6433ba3224f156bc6b6e05d8d60da2c3fa6301d39a97e820f10d32b58fc93",
    "bare":
        "403513f92b306fd4ecd67622ba66740c5912c430aff0c558be751092fe1dba30",
    "reorder-none":
        "a395b471826831eb2afa1fb7976c6f769c02067b05993cd9e6b5a193cc7ffab2",
    "reorder-random_bfs":
        "e2ac9a591deac5dc449b4021acca590c54d01be78a785a25db9e4a2cba2643ad",
    "diskann-hot-cache":
        "45e27c6f0b5e0e34a9ecc88b42c4fd8face404e91a7a199ca84d089bf70761d3",
    "diskann-hot-cache-no-sp":
        "1de0d89aed31f9964272bdb44c22e921b1e705170b7f5941aaef2adb52e0390a",
    "over-capacity":
        "c9ce1ce860b97ffad12521d3c714db70fb3b736d709202e9ffb44455f7c2068a",
    "over-capacity-no-sp":
        "8e673cdfcfaf300278025a3513c9788925a6d6709154163466950507a99b71d4",
    "repeated-trace":
        "6607d38efbec1914b80e2ac82047ca50ca8898419daec906416f544119ab7938",
    "repeated-trace-no-da":
        "2a4fa003da750fed6f366a5c45f1836a9feb6d1f0cda9965df85a66b16a188ba",
    "hard-failure-0.3":
        "ad71523f92ec745ecd879a8d6fccbceebe318266fe24e81b92f8d5c9ce6b3e7f",
}

LADDER = {
    "fig16-re": SchedulingFlags(True, False, False, False),
    "fig16-re+mp": SchedulingFlags(True, True, False, False),
    "fig16-re+mp+da": SchedulingFlags(True, True, True, False),
    "fig16-re+mp+da+sp": SchedulingFlags(True, True, True, True),
    "bare": SchedulingFlags.bare(),
}
NO_SP = SchedulingFlags(True, True, True, False)
NO_DA = SchedulingFlags(True, True, False, True)

#: A counter each cell must drive above zero, so a cell cannot silently
#: stop exercising the branch it is named after.
EXERCISES = {
    "fig16-re+mp": "multiplane_reads",
    "fig16-re+mp+da+sp": "speculative_hits",
    "diskann-hot-cache": "cache_hits",
    "diskann-hot-cache-no-sp": "cache_hits",
    "repeated-trace": "speculative_page_reads",
    "hard-failure-0.3": "ecc_soft_decodes",
}


def _config(flags: SchedulingFlags, **overrides) -> NDSearchConfig:
    config = NDSearchConfig(
        geometry=SSDGeometry(
            channels=2, chips_per_channel=2, luns_per_chip=2,
            planes_per_lun=2, blocks_per_plane=8, pages_per_block=8,
            page_size=1024,
        ),
        timing=FlashTiming(read_page_s=20e-6),
        host=HostConfig(
            dram_capacity_bytes=64 * 1024, vram_capacity_bytes=64 * 1024
        ),
        flags=flags,
        dram_bytes=16 * 1024**2,
    )
    return dataclasses.replace(config, **overrides)


def _corpus(seed: int, n: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(6, dim))
    vectors = (
        centers[rng.integers(0, 6, size=n)] + 0.3 * rng.normal(size=(n, dim))
    ).astype(np.float32)
    queries = (
        vectors[rng.integers(0, n, size=24)]
        + 0.05 * rng.normal(size=(24, dim))
    ).astype(np.float32)
    return vectors, queries


@pytest.fixture(scope="module")
def hnsw():
    vectors, queries = _corpus(1401, 360, 12)
    index = HNSWIndex(vectors, HNSWParams(M=6, ef_construction=24))
    _, _, traces = index.search_batch(queries, 5, ef=20)
    return index, traces


@pytest.fixture(scope="module")
def diskann():
    vectors, queries = _corpus(1402, 300, 12)
    index = DiskANNIndex(vectors, DiskANNParams(R=8, L=24))
    # Hot vertices come from the static degree policy: every system is
    # built before the index's first search records visit counts.
    systems = {
        name: NDSearch(index=index, config=_config(flags))
        for name, flags in (
            ("diskann-hot-cache", SchedulingFlags.all_enabled()),
            ("diskann-hot-cache-no-sp", NO_SP),
        )
    }
    _, _, traces = index.search_batch(queries, 5, ef=20)
    return systems, traces


def digest(result: SimResult) -> str:
    h = hashlib.sha256()
    h.update(
        json.dumps(
            {
                "sim_time_s": float(result.sim_time_s).hex(),
                "energy_j": float(result.energy_j).hex(),
                "power_w": float(result.power_w).hex(),
                "batch_size": result.batch_size,
                "counters": sorted(
                    (k, int(v)) for k, v in result.counters.items()
                ),
                "busy": sorted(
                    (k, float(v).hex())
                    for k, v in result.component_busy_s.items()
                ),
                "timeline": [
                    (s.stage, s.resource, float(s.start).hex(),
                     float(s.end).hex())
                    for s in result.timeline
                ],
            },
        ).encode()
    )
    return h.hexdigest()


def _cell(name: str, hnsw, diskann) -> tuple[NDSearch, list]:
    index, traces = hnsw
    if name in LADDER:
        return NDSearch(index=index, config=_config(LADDER[name])), traces
    full = SchedulingFlags.all_enabled()
    if name.startswith("reorder-"):
        mode = name.split("-", 1)[1]
        return (
            NDSearch(index=index, config=_config(full), reorder_mode=mode,
                     reorder_seed=5),
            traces,
        )
    if name.startswith("diskann-"):
        systems, dtraces = diskann
        return systems[name], dtraces
    if name.startswith("over-capacity"):
        # Capacity 8 LUNs x 1 query: 24 traces price as 3 sub-batches.
        flags = NO_SP if name.endswith("no-sp") else full
        config = _config(flags, max_queries_per_lun=1)
        assert len(traces) > config.max_batch_capacity
        return NDSearch(index=index, config=config), traces
    if name.startswith("repeated-trace"):
        flags = NO_DA if name.endswith("no-da") else full
        batch = traces[:6] + [traces[2]] + traces[6:9] + [traces[2], traces[0]]
        return NDSearch(index=index, config=_config(flags)), batch
    if name == "hard-failure-0.3":
        return (
            NDSearch(index=index, config=_config(full), hard_failure_prob=0.3),
            traces,
        )
    raise KeyError(name)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_pricing_matches_golden(name, hnsw, diskann):
    system, traces = _cell(name, hnsw, diskann)
    result = system.simulate_traces(traces)
    if name in EXERCISES:
        assert result.counters[EXERCISES[name]] > 0
    if name.startswith("over-capacity"):
        assert [s.stage for s in result.timeline].count("host_in") == 3
    cold = digest(result)
    warm = digest(system.simulate_traces(traces))
    assert warm == cold, f"{name}: cached replay differs from the cold one"
    assert cold == GOLDEN[name], f"{name}: SearSSD pricing changed: {cold}"
