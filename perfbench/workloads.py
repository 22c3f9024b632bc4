"""The benchmark's workloads: inputs from a seed, set-up, timed units, checks.

Each workload is a class with three steps the worker drives:

* ``setup(seed)`` builds everything a first request needs (corpus,
  index or router, the NDSearch reorder/placement); the worker times it
  for ``setup_s``.
* ``run_unit(i)`` runs one timed unit of work on fresh inputs drawn
  from ``(seed, i)`` and returns a :class:`Unit`: the host seconds of
  the timed part, the simulated results, and the outcome of every
  correctness check.  Unit ``-1`` is the untimed warm-up.
* ``summarize(units)`` reduces the first ``fixed_units`` units (a fixed
  amount of work, so every simulated number repeats exactly for a
  seed) to simulated-clock metrics.

The program is driven only through its public entry points
(``repro.platform.get``, ``HNSWIndex``, ``build_router``,
``ServingFrontend``, ``ServingTwin``).  All inputs — corpus, queries,
arrival streams — are generated here; ground truth is brute force in
numpy, independent of the program.
"""

from __future__ import annotations

import copy
import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro import platform
from repro.ann import HNSWIndex, HNSWParams
from repro.core import NDSearchConfig
from repro.serving import (
    BatchPolicy,
    Request,
    ServingConfig,
    ServingFrontend,
    ServingReport,
    ServingTwin,
    build_router,
)
from repro.serving.backends import dataset_profile
from repro.serving.rebalance import RebalancePolicy
from repro.serving.sharding import clear_router_cache
from repro.serving.storage import FlashConfig

K = 10
HNSW = HNSWParams(M=8, ef_construction=32)
#: Deployment parameter of the partitioned router (k-means seed).
ROUTER_SEED = 7
_DONE = ("completed", "cache_hit", "coalesced")


# ---- inputs ------------------------------------------------------------------

def make_corpus(seed: int, n: int, dim: int, clusters: int = 32) -> np.ndarray:
    """A corpus of ``n`` points drawn from a fixed Gaussian mixture,
    float32 (n, dim).

    The mixture (centers, weights) is part of the workload and the same
    for every seed; the seed draws the points.  So seeds vary the data,
    not its shape, and figures from different seeds stay comparable.
    """
    shape = np.random.default_rng([0, dim, clusters])
    centers = shape.normal(size=(clusters, dim))
    weights = shape.dirichlet(np.full(clusters, 5.0))
    rng = np.random.default_rng([seed, 0])
    assignment = rng.choice(clusters, size=n, p=weights)
    points = centers[assignment] + 0.7 * rng.normal(size=(n, dim))
    return points.astype(np.float32)


def make_queries(rng: np.random.Generator, corpus: np.ndarray, m: int) -> np.ndarray:
    """Perturbed copies of random corpus points: never exact duplicates."""
    picks = rng.integers(0, corpus.shape[0], size=m)
    noise = rng.normal(scale=0.05 * float(corpus.std()), size=(m, corpus.shape[1]))
    return (corpus[picks] + noise).astype(np.float32)


def ground_truth(corpus: np.ndarray, queries: np.ndarray, k: int = K) -> np.ndarray:
    """Exact top-k ids by squared Euclidean distance."""
    c = corpus.astype(np.float64)
    q = queries.astype(np.float64)
    d = (q * q).sum(1)[:, None] - 2.0 * q @ c.T + (c * c).sum(1)[None, :]
    return np.argsort(d, axis=1, kind="stable")[:, :k]


def recall(found: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-row recall of ``found`` ids against ``truth`` ids."""
    k = truth.shape[1]
    return np.array(
        [len(set(f.tolist()) & set(t.tolist())) / k for f, t in zip(found, truth)]
    )


def poisson_stream(
    rng: np.random.Generator,
    rate: float,
    n: int,
    popularity: np.ndarray,
    slo_s: float | None = None,
) -> list[Request]:
    """An open-loop stream: Poisson arrival times, query ids drawn from
    ``popularity``.  Each request's ``arrival_s`` is when it was due, so
    latency counts from the schedule (no coordinated omission)."""
    times = np.cumsum(rng.exponential(1.0 / rate, size=n))
    qids = rng.choice(popularity.size, size=n, p=popularity)
    return [
        Request(
            request_id=i,
            query_id=int(qids[i]),
            arrival_s=float(times[i]),
            k=K,
            deadline_s=None if slo_s is None else float(times[i]) + slo_s,
        )
        for i in range(n)
    ]


def zipf_popularity(seed: int, pool: int, exponent: float) -> np.ndarray:
    """Zipfian popularity over a shuffled pool (hot queries vary by seed)."""
    weights = 1.0 / np.arange(1, pool + 1, dtype=np.float64) ** exponent
    out = np.empty(pool)
    out[np.random.default_rng([seed, 9]).permutation(pool)] = weights
    return out / out.sum()


# ---- results -----------------------------------------------------------------

@dataclass
class Unit:
    """One timed unit of work."""

    work: int
    """Requests (or queries) simulated to completion in the timed part."""
    wall_s: float
    """Host seconds of the timed part."""
    offered: int
    failed: int
    problems: list[str] = field(default_factory=list)
    sim: dict = field(default_factory=dict)
    """Simulated results: deterministic for (seed, unit index)."""
    whatif_ms: list[float] = field(default_factory=list)
    """Host ms of each cold what-if (twin-whatif only)."""


def latency_split(requests: list[Request]) -> dict[str, np.ndarray]:
    """Per-request simulated latency split for served requests.

    ``batch_wait = batched − arrival``, ``queue = start − batched`` and
    ``service = completion − start``; a request never batched (a cache
    hit) has zero wait and queue.
    """
    wait, queue, service, latency = [], [], [], []
    for r in requests:
        if r.outcome not in _DONE:
            continue
        batched = r.arrival_s if r.batched_s is None else r.batched_s
        start = batched if r.start_s is None else r.start_s
        wait.append(batched - r.arrival_s)
        queue.append(start - batched)
        service.append(r.completion_s - start)
        latency.append(r.latency_s)
    return {
        "batch_wait": np.asarray(wait),
        "queue": np.asarray(queue),
        "service": np.asarray(service),
        "latency": np.asarray(latency),
    }


def _ms(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if values.size else 0.0


def _array_digest(values: np.ndarray) -> str:
    data = np.ascontiguousarray(values, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()


def _report_sim(report) -> dict:
    """A report's simulated fields, JSON-canonical (for the digest)."""
    return json.loads(json.dumps(report.to_dict(), sort_keys=True))


def _check_outcomes(requests: list[Request], report, label: str) -> tuple[int, list[str]]:
    """Every request reaches exactly one outcome; returns (failed, problems)."""
    problems = []
    pending = sum(1 for r in requests if r.outcome not in _DONE + ("shed",))
    if pending:
        problems.append(f"{label}: {pending} request(s) never reached an outcome")
    if report.served + report.shed != report.offered or report.offered != len(requests):
        problems.append(
            f"{label}: served {report.served} + shed {report.shed} != "
            f"offered {report.offered} (stream {len(requests)})"
        )
    return report.shed + pending, problems


def _split_metrics(split: dict[str, np.ndarray]) -> dict[str, float]:
    out = {}
    for key, name in (("batch_wait", "serving.batch_wait_ms"),
                      ("queue", "device.queue_ms"),
                      ("service", "device.service_ms")):
        out[f"{name}.p50"] = _ms(split[key], 50)
        out[f"{name}.p99"] = _ms(split[key], 99)
    return out


def _pooled(units: list[Unit], step: str) -> dict[str, np.ndarray]:
    keys = ("batch_wait", "queue", "service", "latency")
    return {
        key: np.concatenate([u.sim["_split"][step][key] for u in units])
        for key in keys
    }


def _serving_layer_sim(reports: list) -> dict[str, float]:
    """Frontend/kernel counters from a set of serving reports."""
    events = sum(int(r.counters.get("loop_events_total", 0)) for r in reports)
    batches = [r.mean_batch_size for r in reports if r.mean_batch_size]
    return {
        "sim.events": float(events),
        "serving.batch_size_mean": float(np.mean(batches)) if batches else 0.0,
        "serving.timeout_close_frac": float(
            np.mean([r.timeout_close_fraction for r in reports])
        ),
        "sharding.probes_per_query": float(
            np.mean([r.mean_probes_per_query for r in reports])
        ),
        "device.util_max": float(max(max(r.shard_utilization) for r in reports)),
    }


class Workload:
    """Base class: subclasses set ``name`` and the three steps."""

    name = ""
    fixed_units = 1

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def run_unit(self, i: int) -> Unit:
        raise NotImplementedError

    def summarize(self, units: list[Unit]) -> tuple[dict, dict, dict]:
        """``(e2e_sim, extra, layer_sim)`` over the fixed units.

        ``e2e_sim`` holds ``sim_qps``, ``sim_p50_ms``, ``sim_p99_ms``
        and ``recall_at_10``; ``extra`` the workload's own named
        metrics ``name -> (value, unit)``; ``layer_sim`` the simulated
        per-layer counters taken from reports.
        """
        raise NotImplementedError

    def validity(self, units: list[Unit]) -> list[str]:
        """Problems if the fixed units did not exercise what the
        workload exists for."""
        return []

    def _rng(self, stream: int, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream, i + 1])


# ---- offline-fresh -------------------------------------------------------------

class OfflineFresh(Workload):
    """Fresh offline batches: HNSW search priced on NDSearch and on CPU."""

    name = "offline-fresh"

    EF = 24
    RECALL_FLOOR = 0.9

    def __init__(self, corpus: int = 1000, dim: int = 16, batch: int = 128,
                 fixed_units: int = 8):
        self.corpus_n, self.dim, self.batch = corpus, dim, batch
        self.fixed_units = fixed_units

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.corpus = make_corpus(seed, self.corpus_n, self.dim)
        self.index = HNSWIndex(self.corpus, HNSW)
        config = NDSearchConfig.scaled()
        self.ndsearch = platform.get("ndsearch", config, index=self.index)
        self.cpu = platform.get("cpu", config)
        self.profile = dataset_profile(self.corpus, self.index)

    def run_unit(self, i: int) -> Unit:
        queries = make_queries(self._rng(1, i), self.corpus, self.batch)
        truth = ground_truth(self.corpus, queries)
        t0 = time.perf_counter()
        ids, _, traces = self.index.search_batch(queries, K, ef=self.EF)
        nd = self.ndsearch.simulate(traces, self.profile)
        cpu = self.cpu.simulate(traces, self.profile)
        wall = time.perf_counter() - t0
        rows = recall(ids, truth)
        problems = []
        failed = 0
        valid = (ids >= 0).all() and (ids < self.corpus_n).all() and all(
            len(set(row.tolist())) == K for row in ids
        )
        if not valid:
            problems.append(f"unit {i}: invalid or duplicate result ids")
        if rows.mean() < self.RECALL_FLOOR or not valid:
            failed = self.batch
            problems.append(
                f"unit {i}: recall@10 {rows.mean():.4f} below floor "
                f"{self.RECALL_FLOOR}"
            )
        sim = {
            "ndsearch_s": nd.sim_time_s,
            "cpu_s": cpu.sim_time_s,
            "counters": dict(sorted(nd.counters.items())),
            "busy_s": dict(sorted(nd.component_busy_s.items())),
            "rounds": sum(1 for s in nd.timeline if s.stage == "search"),
            "recall": float(rows.mean()),
            "ids": _array_digest(ids),
        }
        return Unit(self.batch, wall, self.batch, failed, problems, sim)

    def summarize(self, units):
        nd = np.array([u.sim["ndsearch_s"] for u in units])
        cpu = np.array([u.sim["cpu_s"] for u in units])
        queries = self.batch * len(units)
        e2e = {
            "sim_qps": queries / nd.sum(),
            # Every query of a batch completes when its batch does.
            "sim_p50_ms": float(np.percentile(nd, 50)) * 1e3,
            "sim_p99_ms": float(np.percentile(nd, 99)) * 1e3,
            "recall_at_10": float(np.mean([u.sim["recall"] for u in units])),
        }
        extra = {"sim_speedup_vs_cpu": (cpu.sum() / nd.sum(), "x")}
        layer = {
            "device.service_ms.p50": e2e["sim_p50_ms"],
            "device.service_ms.p99": e2e["sim_p99_ms"],
        }
        return e2e, extra, layer


# ---- serving workloads -----------------------------------------------------------

class _Serving(Workload):
    """Shared set-up for the workloads that serve a query pool."""

    mode = "replicated"
    clusters_per_shard = 1
    SHARDS = 4
    ZIPF = 1.0

    def __init__(self, corpus: int = 1000, dim: int = 16, pool: int = 256):
        self.corpus_n, self.dim, self.pool_n = corpus, dim, pool

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.corpus = make_corpus(seed, self.corpus_n, self.dim)
        self.pool = make_queries(self._rng(3, -1), self.corpus, self.pool_n)
        self.popularity = zipf_popularity(seed, self.pool_n, self.ZIPF)
        self.config = NDSearchConfig.scaled()
        # Each set-up really builds: drop artifacts a previous one left.
        clear_router_cache()
        self.router()
        self.truth = ground_truth(self.corpus, self.pool)

    def router(self):
        # Memoized by content after the first build: later calls return
        # a fresh router over the same indexes (what a fork needs).
        return build_router(
            self.corpus, self.SHARDS, self.config, mode=self.mode,
            hnsw_params=HNSW, seed=ROUTER_SEED,
            clusters_per_shard=self.clusters_per_shard,
        )

    def _recall(self, requests: list[Request]) -> dict[int, float]:
        """Recall per distinct query answered (each query counts once,
        however popular)."""
        answers = {r.query_id: r.result_ids for r in requests if r.outcome in _DONE}
        qids = sorted(answers)
        rows = recall(np.array([answers[q] for q in qids]), self.truth[qids])
        return dict(zip(qids, rows.tolist()))


class ServeLadder(_Serving):
    """Replicated x4, batch-mode batching, an open loop at three rates."""

    name = "serve-ladder"
    OVER_RATE = 1e6
    KNEE_FRAC = 0.8
    LOW_FRAC = 0.005
    P99_LIMIT_MS = 5.0

    def __init__(self, n_over: int = 2400, n_knee: int = 2400, n_low: int = 400,
                 fixed_units: int = 3, **kw):
        super().__init__(**kw)
        self.n = {"over": n_over, "knee": n_knee, "low": n_low}
        self.fixed_units = fixed_units
        self.serving = ServingConfig(
            policy=BatchPolicy(max_batch_size=32, max_wait_s=2e-3),
            cache_capacity=0,
            coalesce=False,
        )

    def setup(self, seed: int) -> None:
        super().setup(seed)
        self.reference_ids = None

    def _step(self, rng, rate: float, step: str):
        requests = poisson_stream(rng, rate, self.n[step], self.popularity)
        frontend = ServingFrontend(self.router(), self.serving)
        t0 = time.perf_counter()
        report = frontend.run(requests, self.pool)
        return requests, report, time.perf_counter() - t0

    def run_unit(self, i: int) -> Unit:
        if self.reference_ids is None:
            # Parity reference, built outside the timed set-up: an
            # unsharded index over the same corpus.
            reference = HNSWIndex(self.corpus, HNSW)
            self.reference_ids = reference.search_batch(self.pool, K)[0]
        rng = self._rng(2, i)
        wall = 0.0
        sim: dict = {"_split": {}}
        failed = 0
        problems: list[str] = []
        recalls: dict[int, float] = {}
        capacity = None
        for step in ("over", "knee", "low"):
            rate = (
                self.OVER_RATE if step == "over"
                else capacity * (self.KNEE_FRAC if step == "knee" else self.LOW_FRAC)
            )
            requests, report, seconds = self._step(rng, rate, step)
            wall += seconds
            if step == "over":
                capacity = report.qps
            bad, why = _check_outcomes(requests, report, f"unit {i} {step}")
            mismatched = sum(
                1 for r in requests
                if r.outcome in _DONE
                and not np.array_equal(r.result_ids, self.reference_ids[r.query_id])
            )
            if mismatched:
                why.append(
                    f"unit {i} {step}: {mismatched} replicated answer(s) differ "
                    f"from the unsharded search"
                )
            failed += bad + mismatched
            problems += why
            recalls.update(self._recall(requests))
            split = latency_split(requests)
            sim["_split"][step] = split
            tail = split["latency"][-max(1, len(requests) // 10):]
            sim[step] = {
                "rate": rate,
                "offered_qps": len(requests) / requests[-1].arrival_s,
                # Backlog grows when the last tenth of the stream waits
                # far longer than a typical request.
                "stable": bool(tail.mean() <= 2.0 * np.median(split["latency"])),
                "report": _report_sim(report),
                "split": {k: _array_digest(v) for k, v in split.items()},
            }
        sim["recall"] = float(np.mean(list(recalls.values())))
        work = sum(self.n.values())
        return Unit(work, wall, work, failed, problems, sim)

    def summarize(self, units):
        knee = _pooled(units, "knee")
        low = _pooled(units, "low")
        capacity = float(np.median([u.sim["over"]["report"]["qps"] for u in units]))
        sustained = 0.0
        for step in ("low", "knee", "over"):
            split = _pooled(units, step)
            offered = float(np.median([u.sim[step]["offered_qps"] for u in units]))
            stable = all(u.sim[step]["stable"] for u in units)
            if stable and _ms(split["latency"], 99) <= self.P99_LIMIT_MS:
                sustained = max(sustained, offered)
        e2e = {
            "sim_qps": capacity,
            "sim_p50_ms": _ms(knee["latency"], 50),
            "sim_p99_ms": _ms(knee["latency"], 99),
            "recall_at_10": float(np.mean([u.sim["recall"] for u in units])),
        }
        extra = {
            "sim_capacity_qps": (capacity, "1/s"),
            "sim_sustained_qps": (sustained, "1/s"),
            "sim_p99_ms.low": (_ms(low["latency"], 99), "ms"),
        }
        reports = [
            ServingReport.from_dict(u.sim[step]["report"]) for u in units
            for step in ("over", "knee", "low")
        ]
        layer = _serving_layer_sim(reports)
        layer.update(_split_metrics(knee))
        layer["serving.batch_wait_ms.p99.low"] = _ms(low["batch_wait"], 99)
        return e2e, extra, layer


class ServeFlash(_Serving):
    """Partitioned x4, nprobe=1, skewed pool, deadlines, live FTL and
    rebalancing, at one rate below saturation."""

    name = "serve-flash"
    mode = "partitioned"
    clusters_per_shard = 2

    RATE = 4000.0
    SLO_S = 10e-3

    def __init__(self, n: int = 3000, fixed_units: int = 3,
                 disturb_threshold: int = 1000, **kw):
        super().__init__(**kw)
        self.n, self.fixed_units = n, fixed_units
        self.disturb_threshold = disturb_threshold

    def setup(self, seed: int) -> None:
        super().setup(seed)
        self.serving = ServingConfig(
            policy=BatchPolicy(max_batch_size=16, max_wait_s=2e-3),
            cache_capacity=0,
            coalesce=False,
            nprobe=1,
            flash=FlashConfig(
                read_disturb_threshold=self.disturb_threshold,
                ecc_hard_failure_prob=0.01,
                seed=1117 + seed,
            ),
            rebalance=RebalancePolicy(interval_s=2e-3),
        )

    def run_unit(self, i: int) -> Unit:
        requests = poisson_stream(
            self._rng(4, i), self.RATE, self.n, self.popularity, self.SLO_S
        )
        frontend = ServingFrontend(self.router(), self.serving)
        t0 = time.perf_counter()
        report = frontend.run(requests, self.pool)
        wall = time.perf_counter() - t0
        failed, problems = _check_outcomes(requests, report, f"unit {i}")
        split = latency_split(requests)
        sim = {
            "_split": {"run": split},
            "report": _report_sim(report),
            "split": {k: _array_digest(v) for k, v in split.items()},
            "recall": float(np.mean(list(self._recall(requests).values()))),
        }
        return Unit(self.n, wall, self.n, failed, problems, sim)

    def summarize(self, units):
        split = _pooled(units, "run")
        reports = [ServingReport.from_dict(u.sim["report"]) for u in units]
        goodput = float(np.median([r.goodput_qps for r in reports]))
        e2e = {
            "sim_qps": goodput,
            "sim_p50_ms": _ms(split["latency"], 50),
            "sim_p99_ms": _ms(split["latency"], 99),
            "recall_at_10": float(np.mean([u.sim["recall"] for u in units])),
        }
        misses = sum(r.deadline_misses for r in reports)
        total = sum(r.deadline_total for r in reports)
        extra = {
            "goodput_qps": (goodput, "1/s"),
            "deadline_miss_frac": (misses / total if total else 0.0, "frac"),
        }
        layer = _serving_layer_sim(reports)
        layer.update(_split_metrics(split))
        flash = [r.flash for r in reports]
        written = sum(f["host_pages_written"] for f in flash)
        layer["storage.write_amp"] = (
            sum(f["nand_pages_written"] for f in flash) / written if written else 0.0
        )
        layer["rebalance.migrations"] = float(
            sum(len(r.rebalance_events) for r in reports)
        )
        layer["rebalance.bytes"] = float(
            sum(e["bytes"] for r in reports for e in r.rebalance_events)
        )
        return e2e, extra, layer

    def validity(self, units) -> list[str]:
        reports = [ServingReport.from_dict(u.sim["report"]) for u in units]
        problems = []
        if not sum(r.flash["refreshes"] for r in reports):
            problems.append("serve-flash: no read-disturb refresh happened")
        if not sum(len(r.rebalance_events) for r in reports):
            problems.append("serve-flash: no cluster migration happened")
        return problems


class TwinWhatif(_Serving):
    """A digital twin ingests a partitioned stream, then answers what-ifs."""

    name = "twin-whatif"
    mode = "partitioned"
    clusters_per_shard = 2
    #: (last_windows, delta) pairs asked with a cold cache, then repeated.
    #: ``add_replicas`` is left out: the twin only grows replicated pools.
    WHATIFS = (
        (1, {}),
        (1, {"nprobe": 1}),
        (3, {"nprobe": None}),
        (3, {"rebalance": RebalancePolicy(interval_s=2e-3)}),
    )

    RATE = 8000.0
    WINDOW_S = 4e-3

    def __init__(self, n: int = 400, fixed_units: int = 4, **kw):
        # A pool small enough that the warm-up reaches every query on
        # every cluster: what-ifs then time the twin, not cold searches.
        kw.setdefault("pool", 64)
        super().__init__(**kw)
        self.n = n
        self.fixed_units = fixed_units
        self.serving = ServingConfig(
            policy=BatchPolicy(max_batch_size=16, max_wait_s=2e-3),
            cache_capacity=0,
            coalesce=False,
            nprobe=2,
        )

    def _ingest(self, twin: ServingTwin, requests: list[Request]):
        """Feed window by window, as a live follower would."""
        fed, window = 0, 1
        last = requests[-1].arrival_s
        while window * self.WINDOW_S <= last:
            boundary = window * self.WINDOW_S
            cut = fed
            while cut < len(requests) and requests[cut].arrival_s <= boundary:
                cut += 1
            twin.feed(requests[fed:cut])
            fed = cut
            twin.advance(boundary)
            window += 1
        twin.feed(requests[fed:])
        return twin.finish()

    def run_unit(self, i: int) -> Unit:
        requests = poisson_stream(self._rng(5, i), self.RATE, self.n, self.popularity)
        pristine = copy.deepcopy(requests)
        t0 = time.perf_counter()
        twin = ServingTwin(
            self.router, self.serving, self.pool, window_s=self.WINDOW_S,
            calibrate_k=K,
        )
        base = self._ingest(twin, requests)
        cold_ms, answers = [], []
        for lw, delta in self.WHATIFS:
            start = time.perf_counter()
            answers.append(twin.whatif(last_windows=lw, **delta))
            cold_ms.append((time.perf_counter() - start) * 1e3)
        hits_before = twin.cache.hits
        repeats = [twin.whatif(last_windows=lw, **delta) for lw, delta in self.WHATIFS]
        wall = time.perf_counter() - t0
        failed, problems = _check_outcomes(requests, base, f"unit {i} base")
        if twin.cache.hits - hits_before != len(self.WHATIFS):
            problems.append(f"unit {i}: repeated what-ifs missed the cache")
        if [_report_sim(a) for a in answers] != [_report_sim(a) for a in repeats]:
            problems.append(f"unit {i}: cached what-if answers differ")
        if 0 <= i < self.fixed_units:
            scratch = ServingFrontend(self.router(), self.serving).run(
                pristine, self.pool
            )
            if json.dumps(answers[0].to_dict(), sort_keys=True) != json.dumps(
                scratch.to_dict(), sort_keys=True
            ):
                problems.append(
                    f"unit {i}: null what-if differs from a from-scratch run"
                )
                failed += self.n
        split = latency_split(requests)
        sim = {
            "_split": {"base": split},
            "base": _report_sim(base),
            "whatifs": [_report_sim(a) for a in answers],
            "split": {k: _array_digest(v) for k, v in split.items()},
            "recall": float(np.mean(list(self._recall(requests).values()))),
        }
        # Work = the stream followed; answering the what-if set is part
        # of following it (replayed suffixes vary with where the windows
        # fall, their cost much less).
        return Unit(self.n, wall, self.n, failed, problems, sim, cold_ms)

    def summarize(self, units):
        split = _pooled(units, "base")
        reports = [ServingReport.from_dict(u.sim["base"]) for u in units]
        e2e = {
            "sim_qps": float(np.median([r.qps for r in reports])),
            "sim_p50_ms": _ms(split["latency"], 50),
            "sim_p99_ms": _ms(split["latency"], 99),
            "recall_at_10": float(np.mean([u.sim["recall"] for u in units])),
        }
        extra = {
            "whatif_answers": (float(len(self.WHATIFS) * len(units)), "count"),
        }
        layer = _serving_layer_sim(reports)
        layer.update(_split_metrics(split))
        return e2e, extra, layer


WORKLOADS = {
    cls.name: cls for cls in (OfflineFresh, ServeLadder, ServeFlash, TwinWhatif)
}
