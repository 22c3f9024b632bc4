"""Pinned parity: the event-kernel frontend vs the legacy arrival loop.

PR 5 replaced ``ServingFrontend.run``'s monolithic arrival-ordered loop
(hand-interleaved batcher deadlines, completion retirement and
autoscale epochs) with the discrete-event kernel in
:mod:`repro.sim.events`.  Before the legacy loop was deleted, both
implementations were run over the existing ``bench_serving``
configurations and their :class:`~repro.serving.metrics.ServingReport`
outputs — per-request outcomes, timestamps and results included — were
required to match *bit for bit*.  The digests pinned below are those
legacy-loop outputs; the kernel frontend must keep reproducing them.
Each configuration is the cell of that name in
:mod:`repro.serving.scenarios`.

The digest covers, per configuration:

* every request's ``(request_id, outcome, batched_s, start_s,
  completion_s)`` tuple plus its result arrays' raw bytes, and
* the full scalar surface of the report (throughput, latency
  percentiles at ``repr`` precision, queue/batch/probe/energy series,
  SLO attainment and scale events).

A digest mismatch means the refactored event loop changed an
observable serving behavior — event ordering, retirement timing,
deadline evaluation — not just an internal detail.

Regenerating (only after an *intentional* semantic change, with the
reasoning recorded in the commit):

    REPRO_WRITE_PARITY=/tmp/parity.json \
        PYTHONPATH=src python -m pytest tests/test_serving_parity.py -q
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.serving import scenarios

#: Golden digests recorded from the legacy arrival-ordered loop at the
#: event-kernel refactor boundary.
GOLDEN = {
    "autoscale-overload":
        "3e924674138b5467bb215a88b1ba80fe4ae8cfd4ede541f7b6a38b4a33e3ba2b",
    "batch-x1-hi":
        "bdf190e7eae0a6001c77d46c3270907cf30c4d7737fcd7fbdb982fbff8dd1079",
    "batch-x4-lo":
        "2cdb0631df0ef80298f36108a9ada52cfce8f3c7a99047b26839c5ba116f003d",
    "blocking-x1-bursty":
        "883b991415a099b95fabfa529063ea47afdc5c7b7ce7c370729ea7abcd979d90",
    "coalesce-zipf-bursty":
        "f17c76e30e8d6639d4d28aa93b1ef69bc7c6b0ec3b1cb2442a16c289bee40a4d",
    "cpu-spill-blocking-bursty":
        "c726d8dff2ef9aa6a2c767715ac32a02dce453980fedecf7c37793801a117721",
    "cpu-spill-pipelined-bursty":
        "2a599f870914f6a9f91c9346047fa5b6b178b34693c8419270f183a2fd96fab6",
    "greedy-x1-hi":
        "250bbd66d5ea4a4f8620814f7bc78bad98960f0d009dc46344ebe7baf9fe2fc4",
    "maxwait-deadline-4ms":
        "4b6629b69f3edab623c9cf2a72fb6cbfa629fcd62823be7a8180d62dd2a8b1fa",
    "partitioned-broadcast":
        "841b3307a52e16196ca27eb36aedca0288e86491550974adc309426b6fe00343",
    "partitioned-nprobe1":
        "1c8665e0faee5887a7b727c8403519854a38c34e7ef3c83ff94ba9bc7547dce3",
    "partitioned-nprobe2":
        "12f8c73ad1304b98ebac5f4bf5e150e44694bee8b14e6aad8ca55ad31e607a75",
    "pipelined-x1-bursty":
        "a8f7fe6780daae4f1e21e81bf39378df2426d47cd8a909a085812097ee1c6330",
    "slo-deadline-4ms":
        "639af8a2bc05e6647e7717fa6d6ff48c7b6c0b735d4a562502b0c7507b86c5da",
    "static-overload":
        "b53dc2564986f86c5c08d062dd55d272dd6deb1420633846517f12394e325b3e",
}


def _digest(report, requests) -> str:
    h = hashlib.sha256()
    for r in requests:
        h.update(
            repr(
                (r.request_id, r.outcome, r.batched_s, r.start_s,
                 r.completion_s)
            ).encode()
        )
        if r.result_ids is not None:
            h.update(r.result_ids.tobytes())
            h.update(r.result_dists.tobytes())
    fields = (
        report.offered, report.completed, report.cache_hits,
        report.coalesced, report.shed, report.horizon_s, report.qps,
        report.latency_p50_s, report.latency_p95_s, report.latency_p99_s,
        report.latency_mean_s, report.mean_batch_size,
        report.timeout_close_fraction, report.cache_hit_rate,
        report.shed_rate, report.mean_queue_depth, report.max_queue_depth,
        report.shard_utilization, report.energy_j,
        report.shard_probe_counts, report.mean_probes_per_query,
        report.deadline_total, report.deadline_misses,
        report.deadline_miss_rate, report.goodput_qps,
        sorted(report.priority_stats.items()),
        report.scale_events, report.replicas_final,
    )
    h.update(repr(fields).encode())
    return h.hexdigest()


CASES = (
    "batch-x1-hi",
    "greedy-x1-hi",
    "batch-x4-lo",
    "pipelined-x1-bursty",
    "blocking-x1-bursty",
    "cpu-spill-pipelined-bursty",
    "cpu-spill-blocking-bursty",
    "partitioned-broadcast",
    "partitioned-nprobe1",
    "partitioned-nprobe2",
    "coalesce-zipf-bursty",
    "slo-deadline-4ms",
    "maxwait-deadline-4ms",
    "static-overload",
    "autoscale-overload",
)

_WRITE_PATH = os.environ.get("REPRO_WRITE_PARITY")
_WRITTEN: dict[str, str] = {}


@pytest.mark.parametrize("traced", (False, True), ids=("plain", "traced"))
@pytest.mark.parametrize("name", CASES)
def test_event_kernel_reproduces_legacy_loop(name, traced):
    # The traced leg attaches the full repro.obs instrumentation (span
    # tracer + windowed metrics) and must reproduce the same pinned
    # digests: observability is observe-only by construction, and this
    # is where that construction is held to account.
    tracer = None
    if traced:
        from repro.obs import SpanTracer

        tracer = SpanTracer()
    report, requests, _ = scenarios.get(name).run(
        tracer=tracer, metrics_window_s=1e-3 if traced else None
    )
    got = _digest(report, requests)
    if traced:
        assert len(tracer) > 0, "traced run recorded no span events"
        assert report.timeseries is not None
        assert report.counters["loop_events_total"] > 0
    if _WRITE_PATH:
        if traced:
            return  # the plain leg records the digests
        _WRITTEN[name] = got
        with open(_WRITE_PATH, "w") as fh:
            json.dump(_WRITTEN, fh, indent=2, sort_keys=True)
        return
    assert got == GOLDEN[name], (
        f"serving behavior diverged from the pinned legacy-loop report "
        f"for {name!r}"
        + (" with repro.obs instrumentation attached" if traced else "")
    )


# ---- the scenario registry the pinned cells are built from ---------------

def test_registry_pins_exactly_the_golden_cells():
    assert set(scenarios.PINNED) == set(GOLDEN) == set(CASES)
    assert set(scenarios.PINNED) < set(scenarios.SCENARIOS)


def test_every_build_gets_a_fresh_router():
    # Autoscaling grows and shrinks its router's replica pool, so a
    # second build sharing the first one's router would start from the
    # grown pool and miss the digest.
    scenario = scenarios.get("autoscale-overload")
    routers = []
    for _ in range(2):
        report, requests, frontend = scenario.run()
        assert report.scale_events
        assert _digest(report, requests) == GOLDEN["autoscale-overload"]
        routers.append(frontend.router)
    assert routers[0] is not routers[1]


def test_unknown_names_fail_loudly():
    with pytest.raises(KeyError, match="no-such-cell.*batch-x1-hi"):
        scenarios.get("no-such-cell")
    with pytest.raises(TypeError, match="no_such_field"):
        scenarios.get("batch-x1-hi").variant(no_such_field=1)
