"""Named serving scenarios: the pinned cells every suite builds from.

A :class:`Scenario` is a frozen spec of one serving cell in three
parts — the :class:`Deployment` (corpus, query pool and shard pool),
the :class:`Stream` (arrival process and query mix) and the
:class:`~repro.serving.frontend.ServingConfig` — with one entry point,
:meth:`Scenario.build`, returning a ready frontend, the request stream
and the query pool::

    from repro.serving import scenarios

    frontend, requests, pool = scenarios.get("batch-x1-hi").build()
    report = frontend.run(requests, pool)

:data:`SCENARIOS` holds the 15 configurations whose reports are pinned
as digests (:data:`PINNED`, see ``tests/test_serving_parity.py``) plus
``skewed-partitioned``, the Zipfian cell the rebalance and flash
comparisons run.  Sweep families are variants of a named spec
(:meth:`Scenario.variant`), never a second table of specs.

Every build returns a *fresh* router: autoscaling and rebalancing
mutate their router, so two builds must never share one.
``build_router`` memoizes the immutable artifacts (indexes, k-means,
centroids) by content, so a rebuild costs only the wrapper.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, replace
from types import MappingProxyType

import numpy as np

from repro.core.config import NDSearchConfig
from repro.data.synthetic import clustered_gaussian, split_queries
from repro.obs.trace import Tracer
from repro.serving.arrivals import MMPPArrivals, PoissonArrivals, QueryStream
from repro.serving.autoscale import AutoscalePolicy
from repro.serving.batcher import BatchPolicy
from repro.serving.frontend import ServingConfig, ServingFrontend
from repro.serving.metrics import ServingReport
from repro.serving.request import Request
from repro.serving.sharding import (
    PARTITIONED,
    REPLICATED,
    ShardRouter,
    build_router,
)


@functools.lru_cache(maxsize=4)
def _dataset(
    corpus: int, dim: int, corpus_seed: int, pool: int, pool_seed: int
) -> tuple[np.ndarray, np.ndarray]:
    vectors = clustered_gaussian(corpus, dim, seed=corpus_seed)
    queries = split_queries(vectors, pool, seed=pool_seed)
    # Shared by every build in the process: freeze them so no run can
    # leak state into the next through the arrays.
    vectors.flags.writeable = False
    queries.flags.writeable = False
    return vectors, queries


@dataclass(frozen=True)
class Deployment:
    """The corpus, the query pool and the shard pool serving them."""

    shards: int = 1
    mode: str = REPLICATED
    platform: str = "ndsearch"
    clusters_per_shard: int = 1
    kmeans_seed: int = 35
    """Partitioned mode's k-means split (replicated pools ignore it)."""

    dram_spill_bytes: int | None = None
    """Shrink the host DRAM to this many bytes, so a CPU host spills
    and every access reads the SSD; ``None`` keeps the scaled host."""

    corpus: int = 800
    dim: int = 16
    corpus_seed: int = 31
    pool: int = 128
    pool_seed: int = 32

    def dataset(self) -> tuple[np.ndarray, np.ndarray]:
        """``(vectors, query_pool)``, read-only and shared per process."""
        return _dataset(
            self.corpus, self.dim, self.corpus_seed, self.pool,
            self.pool_seed,
        )

    def router(self) -> ShardRouter:
        """A fresh router over the (memoized) build artifacts."""
        config = NDSearchConfig.scaled()
        if self.dram_spill_bytes is not None:
            config = replace(
                config,
                host=replace(
                    config.host, dram_capacity_bytes=self.dram_spill_bytes
                ),
            )
        vectors, _ = self.dataset()
        return build_router(
            vectors,
            num_shards=self.shards,
            config=config,
            mode=self.mode,
            platform=self.platform,
            seed=self.kmeans_seed,
            clusters_per_shard=self.clusters_per_shard,
        )


@dataclass(frozen=True)
class Stream:
    """The arrival process and query mix (:class:`QueryStream` fields)."""

    arrivals: PoissonArrivals | MMPPArrivals
    zipf: float = 0.0
    priorities: tuple[int, ...] = (0,)
    weights: tuple[float, ...] | None = None
    slo_s: float | tuple[tuple[int, float], ...] | None = None
    """One SLO for every request, or ``(priority, offset)`` pairs."""

    requests: int = 400
    k: int = 10
    seed: int = 33

    def generate(self, pool_size: int) -> list[Request]:
        slo = dict(self.slo_s) if isinstance(self.slo_s, tuple) else self.slo_s
        return QueryStream(
            self.arrivals,
            pool_size=pool_size,
            n_requests=self.requests,
            k=self.k,
            zipf_exponent=self.zipf,
            seed=self.seed,
            priorities=self.priorities,
            priority_weights=self.weights,
            slo_s=slo,
        ).generate()


@dataclass(frozen=True)
class Scenario:
    """One named serving cell: deployment x stream x frontend config."""

    name: str
    deployment: Deployment
    stream: Stream
    config: ServingConfig

    def requests(self) -> list[Request]:
        return self.stream.generate(self.deployment.pool)

    def build(
        self,
        tracer: Tracer | None = None,
        metrics_window_s: float | None = None,
    ) -> tuple[ServingFrontend, list[Request], np.ndarray]:
        """``(frontend, requests, query_pool)`` over a fresh router.

        ``tracer`` and ``metrics_window_s`` attach the observe-only
        :mod:`repro.obs` instruments; neither changes a run's outcome.
        """
        _, pool = self.deployment.dataset()
        config = self.config
        if metrics_window_s is not None:
            config = replace(config, metrics_window_s=metrics_window_s)
        frontend = ServingFrontend(
            self.deployment.router(), config, tracer=tracer
        )
        return frontend, self.requests(), pool

    def run(
        self,
        tracer: Tracer | None = None,
        metrics_window_s: float | None = None,
    ) -> tuple[ServingReport, list[Request], ServingFrontend]:
        """Build and run to completion: ``(report, requests, frontend)``."""
        frontend, requests, pool = self.build(tracer, metrics_window_s)
        return frontend.run(requests, pool), requests, frontend

    def variant(self, **changes) -> Scenario:
        """This cell with fields of its parts replaced (the name stays).

        Each keyword names a field of exactly one part, e.g.
        ``variant(shards=4, arrivals=PoissonArrivals(500.0), nprobe=1)``
        changes the deployment, the stream and the config.
        """
        parts = {}
        for part in ("deployment", "stream", "config"):
            spec = getattr(self, part)
            own = {
                f.name: changes.pop(f.name)
                for f in fields(spec)
                if f.name in changes
            }
            if own:
                parts[part] = replace(spec, **own)
        if changes:
            raise TypeError(f"unknown scenario fields: {sorted(changes)}")
        return replace(self, **parts)


def _config(policy: BatchPolicy, **kwargs) -> ServingConfig:
    # The pinned cells run without the result cache or coalescing
    # unless they study them.
    kwargs.setdefault("coalesce", False)
    return ServingConfig(policy=policy, cache_capacity=0, **kwargs)


_BATCH = BatchPolicy(max_batch_size=32, max_wait_s=2e-3)
_OVERLOAD = BatchPolicy(max_batch_size=4, max_wait_s=2e-3)

_X1 = Deployment()
_X4 = Deployment(shards=4)
_PART4 = Deployment(shards=4, mode=PARTITIONED)
_CPU_SPILL = Deployment(shards=2, platform="cpu", dram_spill_bytes=16 * 1024)

_HI = Stream(PoissonArrivals(20000.0))
_LO = Stream(PoissonArrivals(500.0))
_BURSTY = Stream(MMPPArrivals(40000.0))
_CPU_BURSTY = Stream(MMPPArrivals(10000.0))
_PART = Stream(PoissonArrivals(2000.0))
_OVERLOAD_STREAM = Stream(PoissonArrivals(25000.0))
#: Two priority classes: the high class (a quarter of the traffic)
#: carries a 4 ms deadline, the best-effort class 4x the budget.
_DEADLINES = Stream(
    PoissonArrivals(4000.0),
    priorities=(0, 1),
    weights=(0.75, 0.25),
    slo_s=((1, 4e-3), (0, 16e-3)),
)

_PINNED_SPECS = (
    Scenario("batch-x1-hi", _X1, _HI, _config(_BATCH)),
    Scenario(
        "greedy-x1-hi", _X1, _HI,
        _config(replace(_BATCH, mode="greedy")),
    ),
    Scenario("batch-x4-lo", _X4, _LO, _config(_BATCH)),
    Scenario("pipelined-x1-bursty", _X1, _BURSTY, _config(_BATCH)),
    Scenario(
        "blocking-x1-bursty", _X1, _BURSTY,
        _config(_BATCH, pipelined=False),
    ),
    Scenario(
        "cpu-spill-pipelined-bursty", _CPU_SPILL, _CPU_BURSTY,
        _config(_BATCH),
    ),
    Scenario(
        "cpu-spill-blocking-bursty", _CPU_SPILL, _CPU_BURSTY,
        _config(_BATCH, pipelined=False),
    ),
    Scenario("partitioned-broadcast", _PART4, _PART, _config(_BATCH)),
    Scenario(
        "partitioned-nprobe1", _PART4, _PART, _config(_BATCH, nprobe=1)
    ),
    Scenario(
        "partitioned-nprobe2", _PART4, _PART, _config(_BATCH, nprobe=2)
    ),
    Scenario(
        "coalesce-zipf-bursty", _X1,
        Stream(MMPPArrivals(20000.0), zipf=1.1),
        _config(_BATCH, coalesce=True),
    ),
    Scenario(
        "slo-deadline-4ms", _X1, _DEADLINES,
        _config(
            BatchPolicy(
                max_batch_size=32, max_wait_s=20e-3, mode="slo",
                slo_margin_s=3e-4,
            )
        ),
    ),
    Scenario(
        "maxwait-deadline-4ms", _X1, _DEADLINES,
        _config(BatchPolicy(max_batch_size=32, max_wait_s=20e-3)),
    ),
    Scenario(
        "static-overload", _X1, _OVERLOAD_STREAM,
        _config(_OVERLOAD, admission_capacity=48),
    ),
    Scenario(
        "autoscale-overload", _X1, _OVERLOAD_STREAM,
        _config(
            _OVERLOAD,
            admission_capacity=48,
            autoscale=AutoscalePolicy(
                min_replicas=1, max_replicas=4, interval_s=2e-3,
                high_utilization=0.7, high_queue_depth=8.0,
            ),
        ),
    ),
)

#: Names of the cells whose reports are pinned as parity digests.
PINNED = tuple(spec.name for spec in _PINNED_SPECS)

#: Every named scenario.  ``skewed-partitioned`` concentrates Zipfian
#: load, routed with ``nprobe=1``, on the devices owning the popular
#: clusters of a 4 x 2-cluster partitioned pool.
SCENARIOS = MappingProxyType({
    spec.name: spec
    for spec in _PINNED_SPECS + (
        Scenario(
            "skewed-partitioned",
            Deployment(shards=4, mode=PARTITIONED, clusters_per_shard=2),
            Stream(PoissonArrivals(16000.0), zipf=1.2, slo_s=4e-3),
            _config(BatchPolicy(max_batch_size=16, max_wait_s=2e-3), nprobe=1),
        ),
    )
})


def get(name: str) -> Scenario:
    """The named scenario; ``KeyError`` lists the available names."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: "
            f"{', '.join(sorted(SCENARIOS))}"
        ) from None
