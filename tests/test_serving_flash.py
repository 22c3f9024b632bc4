"""Stateful flash under serving (``ServingConfig.flash``).

The online stack routed through a live FTL: cluster reads translate
through the mapping and accumulate read disturb, crossing the threshold
schedules a :class:`~repro.sim.events.FlashMaintenance` refresh whose
GC pause is booked on the device like a migration, rebalance data
movement charges program/erase through the FTL, and LDPC retry storms
jitter individual reads.  All of it is opt-in: ``flash=None`` (the
default) is the parity baseline pinned in ``test_serving_parity.py``.
"""

from __future__ import annotations

import json

from repro.obs import SpanTracer
from repro.serving import FlashConfig, RebalancePolicy, scenarios

#: Disturb threshold scaled down so the test's read volume trips
#: refreshes the way production volumes trip the real threshold.
FLASH = FlashConfig(read_disturb_threshold=200, ecc_hard_failure_prob=0.05)


#: The sweep's flash cell: a partitioned pool under skewed Zipfian load
#: with nprobe=1, so the hot clusters' blocks see disproportionate
#: disturb.  Every run builds a fresh router — flash wear is mutable
#: state and rebalance mutates placement.
IDEAL = scenarios.get("skewed-partitioned")
STATEFUL = IDEAL.variant(flash=FLASH)


class TestDeterminism:
    def test_same_seed_same_config_byte_identical(self):
        """Satellite 1: flash-on runs are exactly reproducible — the
        full report (flash wear summary included) serializes to the
        same bytes across two independent runs."""
        payloads = []
        for _ in range(2):
            report, _, _ = STATEFUL.run()
            payloads.append(
                json.dumps(report.to_dict(), sort_keys=True).encode()
            )
        assert payloads[0] == payloads[1]


class TestGCPausesShapeTail:
    def test_refreshes_fire_and_inflate_p99(self):
        ideal, _, _ = IDEAL.run()
        stateful, _, _ = STATEFUL.run()
        assert ideal.flash is None
        assert stateful.flash is not None
        assert stateful.flash["refreshes"] > 0
        assert stateful.flash["ecc_soft_decodes"] > 0
        # Same stream, same placement: the only difference is the FTL
        # charging for its reads — and the tail pays for it.
        assert stateful.latency_p99_s > ideal.latency_p99_s

    def test_pauses_are_booked_device_time(self):
        """Satellite 3: a refresh is not a latency fudge — it occupies
        the device's entry-stage FIFO (visible in ``stage_busy``), so
        queued batches drain later."""
        _, _, plain = IDEAL.run()
        _, _, flashed = STATEFUL.run()
        plain_busy = sum(
            sum(d.stage_busy.values()) for d in plain.devices
        )
        flash_busy = sum(
            sum(d.stage_busy.values()) for d in flashed.devices
        )
        assert flash_busy > plain_busy

    def test_wear_skew_follows_popularity(self):
        """Zipfian-hot clusters wear their blocks: the most-read
        cluster accumulates at least as many erases as any other and
        strictly more than the least-read one."""
        report, _, _ = STATEFUL.run()
        reads = report.flash["cluster_page_reads"]
        erases = report.flash["cluster_erases"]
        hot = max(reads, key=reads.get)
        cold = min(reads, key=reads.get)
        assert reads[hot] > reads[cold]
        assert erases.get(hot, 0) > erases.get(cold, 0), (reads, erases)
        # Relocation writes amplify beyond the host's own programs.
        assert report.flash["write_amplification"] > 1.0

    def test_migration_charges_program_erase(self):
        """Rebalance data movement is honest about write amplification:
        migrating a cluster programs its pages on the destination FTL
        and erases its blocks on the source, so nand writes grow beyond
        the no-migration run's."""
        static, _, _ = STATEFUL.run()
        moved, _, _ = STATEFUL.variant(
            rebalance=RebalancePolicy(
                interval_s=2e-3, skew_threshold=0.25, migration_gbps=1.0
            ),
        ).run()
        assert moved.rebalance_events, "skew never triggered a migration"
        assert (
            moved.flash["nand_pages_written"]
            > static.flash["nand_pages_written"]
        )
        assert moved.flash["total_erases"] > static.flash["total_erases"]


class TestObservability:
    def test_trace_carries_flash_lanes(self):
        """Refreshes and ECC retries render as their own trace spans
        (distinct from query stages and migrations), and the kernel
        telemetry counts the FlashMaintenance events."""
        tracer = SpanTracer()
        report, _, _ = STATEFUL.run(tracer=tracer)
        payload = tracer.to_json()
        names = {e.get("name") for e in payload["traceEvents"]}
        assert "flash refresh" in names
        assert "ecc retry" in names
        assert report.counters["loop_events_FlashMaintenance"] > 0
        assert (
            report.counters["loop_events_FlashMaintenance"]
            <= report.flash["refreshes"]
        )
