"""Snapshot/restore parity and the serving digital twin.

The incremental re-simulation machinery (PR 10) rests on one claim:
freezing a running serving simulation at a window boundary
(:meth:`ServingFrontend.snapshot`) and resuming it in a *fresh*
frontend (:meth:`ServingFrontend.restore`) is byte-identical to never
having paused.  This suite holds that claim to the same standard as
the event-kernel refactor before it — the 15 pinned legacy-loop
digests in :mod:`test_serving_parity` — by driving every pinned
configuration through snapshot-at-midpoint → restore → finish, plain
and with the full :mod:`repro.obs` instrumentation attached.

The edge cases the window grid does not guarantee are pinned
explicitly: a checkpoint taken while a cluster migration's
``DataMovement`` is still in the event heap, and one taken with a
``FlashMaintenance`` refresh pending.  Both must resume to the same
report as an uninterrupted run.

On top of restore parity, :class:`~repro.serving.twin.ServingTwin` is
checked for the properties the CI twin step asserts: a no-delta
what-if reproduces the from-scratch report byte for byte, repeated
what-ifs hit the content-addressed cache, fork reports never leak twin
bookkeeping, and the base report round-trips its ``twin`` summary
through ``to_dict``/``from_dict``/``format``.
"""

from __future__ import annotations

import dataclasses
import json
from types import SimpleNamespace

import pytest

from repro.obs import SpanTracer
from repro.serving import (
    AutoscalePolicy,
    FlashConfig,
    PoissonArrivals,
    RebalancePolicy,
    ServingFrontend,
    scenarios,
)
from repro.serving.metrics import ServingReport
from repro.serving.twin import ServingTwin, TwinCache, config_digest
from repro.sim.events import DataMovement, FlashMaintenance
from repro.sim.snapshot import SNAPSHOT_VERSION

from test_serving_parity import CASES, GOLDEN, _digest


def _report_bytes(report):
    return json.dumps(report.to_dict(), sort_keys=True).encode()


def _midpoint_snapshot(name, tracer=None, metrics_window_s=None, at=None):
    """Stream the named cell up to its middle arrival (or request
    ``at``) and snapshot it: ``(snapshot, requests, pool)``."""
    frontend, requests, pool = scenarios.get(name).build(
        tracer=tracer, metrics_window_s=metrics_window_s
    )
    frontend.stream_begin(pool, calibrate_k=max(r.k for r in requests))
    frontend.stream_extend(requests)
    cut = len(requests) // 2 if at is None else at
    frontend.stream_step(requests[cut].arrival_s)
    return frontend.snapshot(), requests, pool


# ---- snapshot → restore → run parity vs the pinned digests ---------------

class TestSnapshotRestoreParity:
    """Every pinned configuration, paused at its midpoint and resumed
    in a fresh frontend, must still hit the legacy-loop digest."""

    @pytest.mark.parametrize(
        "traced", (False, True), ids=("plain", "traced")
    )
    @pytest.mark.parametrize("name", CASES)
    def test_restore_hits_golden_digest(self, name, traced):
        window = 1e-3 if traced else None
        snapshot, requests, pool = _midpoint_snapshot(
            name, tracer=SpanTracer() if traced else None,
            metrics_window_s=window,
        )
        assert snapshot.version == SNAPSHOT_VERSION
        assert snapshot.time == requests[len(requests) // 2].arrival_s

        resumed, _, _ = scenarios.get(name).build(
            tracer=SpanTracer() if traced else None,
            metrics_window_s=window,
        )
        resumed.restore(snapshot, pool)
        report = resumed.stream_finish()
        got = _digest(report, resumed.stream_requests)
        assert got == GOLDEN[name], (
            f"snapshot→restore→run diverged from the pinned report for "
            f"{name!r}"
            + (" with instrumentation attached" if traced else "")
        )

    def test_snapshot_digest_is_tracer_blind(self):
        # The captured state excludes the span tracer (observe-only by
        # construction), so a traced run and a plain run frozen at the
        # same point produce the same content address.  Windowed
        # metrics, by contrast, ARE simulation state — restore refuses
        # a windows-enabled snapshot into a windows-less frontend —
        # so both legs here run without them.
        digests = [
            _midpoint_snapshot("batch-x4-lo", tracer=tracer)[0].digest
            for tracer in (None, SpanTracer())
        ]
        assert digests[0] == digests[1]

    def test_snapshot_is_restorable_twice(self):
        # Restoring deep-copies again: two forks of one checkpoint must
        # not share mutable state, so both reach the pinned digest.
        snapshot, _, pool = _midpoint_snapshot("partitioned-nprobe2")
        for _ in range(2):
            fork, _, _ = scenarios.get("partitioned-nprobe2").build()
            fork.restore(snapshot, pool)
            report = fork.stream_finish()
            assert (
                _digest(report, fork.stream_requests)
                == GOLDEN["partitioned-nprobe2"]
            )

    def test_restore_rejects_version_and_mode_mismatch(self):
        snapshot, _, pool = _midpoint_snapshot("batch-x4-lo", at=10)

        stale = dataclasses.replace(snapshot, version=SNAPSHOT_VERSION + 1)
        target, _, _ = scenarios.get("batch-x4-lo").build()
        with pytest.raises(ValueError, match="version"):
            target.restore(stale, pool)

        partitioned, _, _ = scenarios.get("partitioned-broadcast").build()
        with pytest.raises(ValueError, match="mode"):
            partitioned.restore(snapshot, pool)


# ---- checkpoints inside multi-event transactions -------------------------

class TestMidFlightCheckpoints:
    """A snapshot taken while a migration or a flash refresh is still
    in the event heap must resume byte-identically."""

    @staticmethod
    def _resume_first_caught(scenario, caught, kind):
        """Stream ``scenario`` until ``caught(frontend)`` holds after an
        arrival, snapshot there, and resume in a fresh frontend: the
        report must match an uninterrupted run's."""
        reference, ref_requests, _ = scenario.run()
        live, requests, pool = scenario.build()
        live.stream_begin(pool)
        live.stream_extend(requests)
        for request in requests:
            live.stream_step(request.arrival_s)
            if caught(live):
                break
        else:
            pytest.fail(
                f"scan never caught a {kind} checkpoint — the config no "
                f"longer triggers it, so this edge case is untested"
            )
        snapshot = live.snapshot(kind=kind)
        resumed, _, _ = scenario.build()
        resumed.restore(snapshot, pool)
        report = resumed.stream_finish()
        assert _digest(report, resumed.stream_requests) == _digest(
            reference, ref_requests
        )

    @staticmethod
    def _pending(frontend, event_type):
        return any(
            isinstance(entry[-1], event_type) for entry in frontend._loop._heap
        )

    def test_mid_migration_checkpoint(self):
        # The rebalance suite's skewed cell with glacial migration
        # bandwidth, so a triggered migration stays in flight long
        # enough for the step scan to catch it mid-transfer.
        scenario = scenarios.get("skewed-partitioned").variant(
            rebalance=RebalancePolicy(
                interval_s=2e-3, skew_threshold=0.05,
                min_window_queries=1, migration_gbps=1e-3,
            )
        )
        self._resume_first_caught(
            scenario,
            lambda f: (
                self._pending(f, DataMovement) or f.rebalancer._inflight
            ),
            "mid-migration",
        )

    def test_mid_flash_maintenance_checkpoint(self):
        # A replicated x2 pool under Zipfian load with the serving-flash
        # test preset: a disturb threshold low enough that refreshes
        # fire at benchmark request counts.
        scenario = scenarios.get("batch-x4-lo").variant(
            shards=2,
            arrivals=PoissonArrivals(2000.0),
            zipf=1.1,
            flash=FlashConfig(
                read_disturb_threshold=200, ecc_hard_failure_prob=0.05
            ),
        )
        self._resume_first_caught(
            scenario,
            lambda f: self._pending(f, FlashMaintenance),
            "mid-maintenance",
        )


# ---- the digital twin ----------------------------------------------------

#: The replicated x4 pool under the partitioned cells' 2,000 QPS stream.
TWIN_CELL = scenarios.get("batch-x4-lo").variant(
    arrivals=PoissonArrivals(2000.0)
)


@pytest.fixture(scope="module")
def twin_run():
    """One shared twin session over the replicated x4 pool: feed,
    advance, two null what-ifs, a scratch fallback, then finish."""
    _, pool = TWIN_CELL.deployment.dataset()
    tracer = SpanTracer()
    twin = ServingTwin(
        TWIN_CELL.deployment.router, TWIN_CELL.config, pool, window_s=0.05,
        tracer=tracer,
    )
    requests = TWIN_CELL.requests()
    twin.feed(requests)
    checkpoints = twin.advance(requests[-1].arrival_s)
    null_first = twin.whatif()
    null_second = twin.whatif()
    hits_after_nulls = twin.cache.hits
    scratch = twin.whatif(last_windows=checkpoints + 5)
    reference, _, _ = TWIN_CELL.run()
    base = twin.finish()
    return SimpleNamespace(
        twin=twin, tracer=tracer, checkpoints=checkpoints,
        null_first=null_first, null_second=null_second,
        hits_after_nulls=hits_after_nulls, scratch=scratch,
        reference=reference, base=base,
    )


class TestServingTwin:
    def test_windows_checkpointed(self, twin_run):
        assert twin_run.checkpoints >= 2
        assert len(twin_run.twin.checkpoints) == twin_run.checkpoints
        indexes = [c.index for c in twin_run.twin.checkpoints]
        assert indexes == list(range(1, twin_run.checkpoints + 1))

    def test_null_whatif_is_byte_identical_to_scratch(self, twin_run):
        assert _report_bytes(twin_run.null_first) == _report_bytes(
            twin_run.reference
        )

    def test_repeat_whatif_hits_cache(self, twin_run):
        assert twin_run.hits_after_nulls == 1
        assert _report_bytes(twin_run.null_second) == _report_bytes(
            twin_run.null_first
        )

    def test_scratch_fallback_matches_scratch(self, twin_run):
        # Asking for more history than there are checkpoints replays
        # from scratch — and still reproduces the reference bytes.
        assert _report_bytes(twin_run.scratch) == _report_bytes(
            twin_run.reference
        )

    def test_fork_reports_never_carry_twin_stats(self, twin_run):
        assert twin_run.null_first.twin is None
        assert twin_run.null_second.twin is None
        assert twin_run.scratch.twin is None

    def test_base_report_identical_modulo_twin_field(self, twin_run):
        base = dict(twin_run.base.to_dict())
        ref = dict(twin_run.reference.to_dict())
        assert base.pop("twin") is not None
        ref.pop("twin")
        assert json.dumps(base, sort_keys=True) == json.dumps(
            ref, sort_keys=True
        )

    def test_base_report_twin_stats(self, twin_run):
        stats = twin_run.base.twin
        assert stats["checkpoints"] == twin_run.checkpoints
        assert stats["windows_simulated"] == twin_run.checkpoints
        assert stats["cache_hits"] == 1
        assert stats["cache_misses"] == 2
        assert stats["restores"] == 1
        assert stats["window_s"] == 0.05

    def test_twin_observability_rides_the_tracer(self, twin_run):
        names = [e["name"] for e in twin_run.tracer.events()]
        assert names.count("twin.checkpoint") == twin_run.checkpoints
        assert "twin.restore" in names
        assert "twin.cache_hit" in names

    def test_whatif_deltas_change_the_answer(self, twin_run):
        grown = twin_run.twin.whatif(add_replicas=2)
        assert _report_bytes(grown) != _report_bytes(twin_run.null_first)
        assert len(grown.shard_utilization) == 6
        assert grown.twin is None

    def test_whatif_validations(self):
        _, pool = TWIN_CELL.deployment.dataset()
        replicated = TWIN_CELL.deployment.router
        config = TWIN_CELL.config
        with pytest.raises(ValueError, match="window_s"):
            ServingTwin(replicated, config, pool, window_s=0.0)

        twin = ServingTwin(replicated, config, pool, window_s=0.05)
        with pytest.raises(ValueError, match="last_windows"):
            twin.whatif(last_windows=0)

        partitioned = scenarios.get("partitioned-broadcast").deployment
        part_twin = ServingTwin(
            partitioned.router, config, pool, window_s=0.05
        )
        with pytest.raises(ValueError, match="replicated"):
            part_twin.whatif(add_replicas=1)

        scaled_config = dataclasses.replace(
            config, autoscale=AutoscalePolicy(
                min_replicas=1, max_replicas=4, interval_s=2e-3,
                high_utilization=0.7, high_queue_depth=8.0,
            ),
        )
        scaled = ServingTwin(replicated, scaled_config, pool, window_s=0.05)
        with pytest.raises(ValueError, match="autoscaler"):
            scaled.whatif(add_replicas=1)

    def test_cache_key_covers_the_causal_inputs(self):
        config = TWIN_CELL.config
        suffix = TWIN_CELL.requests()[:5]
        base = TwinCache.key(config, "d" * 64, 3, suffix)
        assert TwinCache.key(config, "d" * 64, 3, suffix) == base
        other_config = dataclasses.replace(config, nprobe=1)
        assert TwinCache.key(other_config, "d" * 64, 3, suffix) != base
        assert TwinCache.key(config, "e" * 64, 3, suffix) != base
        assert TwinCache.key(config, "d" * 64, 4, suffix) != base
        assert TwinCache.key(config, "d" * 64, 3, suffix[:-1]) != base

    def test_config_digest_is_repr_stable(self):
        a = TWIN_CELL.config
        b = dataclasses.replace(a, policy=dataclasses.replace(a.policy))
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest(
            dataclasses.replace(a, nprobe=2)
        )


#: A null what-if may replay at most this fraction of the run's kernel
#: events; anything more means restore degraded toward a full replay.
MAX_REPLAY_FRACTION = 1 / 5


class TestIncrementalReplay:
    def test_null_whatif_replays_only_the_final_window(self, monkeypatch):
        # Partitioned x4 at nprobe=1, 800 requests at 20k/s, a
        # checkpoint every 2 ms: a null what-if restores the last
        # checkpoint and re-simulates only the events after it.
        scenario = scenarios.get("partitioned-nprobe1").variant(
            arrivals=PoissonArrivals(20000.0), requests=800
        )
        _, pool = scenario.deployment.dataset()
        twin = ServingTwin(
            scenario.deployment.router, scenario.config, pool,
            window_s=2e-3, calibrate_k=scenario.stream.k,
        )
        requests = scenario.requests()
        twin.feed(requests)
        twin.advance(requests[-1].arrival_s)
        twin.finish()
        # Events already processed in whatever state the fork restores;
        # a from-scratch fork restores nothing and replays everything.
        restored = [0]
        restore = ServingFrontend.restore

        def spy(frontend, snapshot, pool):
            restored[0] = snapshot.state["loop"]["processed"]
            return restore(frontend, snapshot, pool)

        monkeypatch.setattr(ServingFrontend, "restore", spy)
        answer = twin.whatif()
        total = int(answer.counters["loop_events_total"])
        replayed = total - restored[0]
        assert 0 < replayed <= MAX_REPLAY_FRACTION * total, (replayed, total)


# ---- ServingReport.twin round-trip (satellite: report surface) -----------

class TestReportTwinRoundTrip:
    def test_twin_field_round_trips(self, twin_run):
        payload = twin_run.base.to_dict()
        clone = ServingReport.from_dict(json.loads(json.dumps(payload)))
        assert clone.twin == twin_run.base.twin
        assert json.dumps(clone.to_dict(), sort_keys=True) == json.dumps(
            payload, sort_keys=True
        )
        assert "twin" in twin_run.base.format()
        assert str(twin_run.checkpoints) in twin_run.base.format()

    def test_pre_twin_payloads_still_load(self, twin_run):
        legacy = dict(twin_run.reference.to_dict())
        legacy.pop("twin")
        report = ServingReport.from_dict(legacy)
        assert report.twin is None
        assert "twin" not in report.format()
