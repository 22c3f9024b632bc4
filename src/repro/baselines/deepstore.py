"""DeepStore-style in-storage accelerators: DS-c and DS-cp (Fig. 13).

DeepStore [58] places accelerators *outside* the NAND flash chips — at
channel level (DS-c) or chip level (DS-cp).  Built here under the same
budget and the same static data layout as NDSearch, per the paper's
methodology, with dynamic allocating implemented for them ("we actually
implement dynamic allocating on DS-cp to maximize its hardware
utilization").  What they cannot avoid:

* every sensed page must leave the NAND chip — crossing the chip bus
  (DS-cp) or the chip + channel bus (DS-c) and paying the ~30 us
  page-buffer-to-external-accelerator penalty (Section III);
* parallelism is capped at one accelerator per chip (DS-cp) or per
  channel (DS-c), versus one per LUN with per-plane MAC groups in
  NDSearch, and the shared bus serialises the transfers of all LUNs
  below one accelerator.

Because graph-traversal ANNS is not compute-bound, DS-cp's extra
proximity beats DS-c's bigger logic — the inversion versus the original
DeepStore paper that Section VII-B calls out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ann.trace import SearchTrace
from repro.baselines.common import DatasetProfile
from repro.core.config import NDSearchConfig
from repro.core.placement import VertexPlacement
from repro.sim.energy import EnergyModel
from repro.sim.stats import Counters, PhaseSegment, SimResult


@dataclass
class DeepStoreModel:
    """Trace-driven DS-c / DS-cp model sharing NDSearch's substrate."""

    config: NDSearchConfig
    placement: VertexPlacement
    level: str = "chip"
    """``"chip"`` for DS-cp, ``"channel"`` for DS-c."""

    dynamic_alloc: bool = True

    external_pipeline_factor: float = 2.0
    """The ~30 us page-buffer-to-external-accelerator penalty overlaps
    the previous page's bus transfer via double buffering, so its
    effective serial cost is external / this factor."""

    def __post_init__(self) -> None:
        if self.level not in ("chip", "channel"):
            raise ValueError(f"level must be 'chip' or 'channel', got {self.level!r}")
        g = self.config.geometry
        self._plane_span = g.blocks_per_plane * g.pages_per_block
        self._lun_span = self._plane_span * g.planes_per_lun

    @property
    def platform(self) -> str:
        return "ds-cp" if self.level == "chip" else "ds-c"

    @property
    def num_accelerators(self) -> int:
        g = self.config.geometry
        return g.total_chips if self.level == "chip" else g.channels

    def _group_of_lun(self, luns: np.ndarray) -> np.ndarray:
        g = self.config.geometry
        if self.level == "chip":
            return luns // g.luns_per_chip
        return luns // g.luns_per_channel

    def _transfer_s(self) -> float:
        """Move one page from the page buffer to the accelerator."""
        timing = self.config.timing
        g = self.config.geometry
        if self.level == "chip":
            bus = timing.chip_bus_bw
        else:
            bus = timing.channel_bus_bw
        overhead = timing.external_accelerator_s / self.external_pipeline_factor
        return g.page_size / bus + overhead

    def run_batch(
        self,
        traces: list[SearchTrace],
        profile: DatasetProfile,
        algorithm: str = "hnsw",
        cached_vertices: np.ndarray | None = None,
    ) -> SimResult:
        timing = self.config.timing
        cached = (
            np.asarray(cached_vertices, dtype=np.int64)
            if cached_vertices is not None
            else np.empty(0, dtype=np.int64)
        )
        counters = Counters()
        busy: dict[str, float] = {
            "pcie_host": 0.0,
            "nand_read": 0.0,
            "page_transfer": 0.0,
            "controller": 0.0,
            "compute": 0.0,
        }
        batch = len(traces)
        if batch == 0:
            return SimResult(self.platform, algorithm, profile.name, 0, 0.0)

        query_bytes = batch * (profile.dim * 4 + 16)
        t_in = timing.host_transfer_s(query_bytes)
        counters["pcie_bytes"] += query_bytes
        busy["pcie_host"] += t_in
        makespan = t_in
        timeline: list[PhaseSegment] = []
        if t_in > 0:
            timeline.append(
                PhaseSegment("host_in", 0.0, t_in, resource="host_in")
            )
        t_page = self._transfer_s()

        max_rounds = max(t.num_iterations for t in traces)
        for round_idx in range(max_rounds):
            group_pages: dict[int, list[np.ndarray]] = {}
            group_vectors: dict[int, int] = {}
            n_active = 0
            n_pairs = 0
            for trace in traces:
                if round_idx >= trace.num_iterations:
                    continue
                n_active += 1
                computed = trace.computed_at(round_idx)
                if cached.size and computed.size:
                    # DiskANN-style hot vertices served from the SSD's
                    # controller DRAM, as on NDSearch.
                    mask = np.isin(computed, cached)
                    hits = int(mask.sum())
                    if hits:
                        counters["cache_hits"] += hits
                        computed = computed[~mask]
                if computed.size == 0:
                    continue
                n_pairs += int(computed.size)
                keys = self.placement.page_keys(computed)
                luns = keys // self._lun_span
                groups = self._group_of_lun(luns)
                for grp in np.unique(groups):
                    grp_keys = keys[groups == grp]
                    group_pages.setdefault(int(grp), []).append(grp_keys)
                    group_vectors[int(grp)] = (
                        group_vectors.get(int(grp), 0) + grp_keys.size
                    )
            if n_active == 0:
                continue

            t_sched = n_active * timing.vgen_stage_s + n_pairs * timing.alloc_dispatch_s
            t_gather = n_pairs * timing.dram_access_s
            busy["controller"] += t_sched + t_gather
            counters["distance_computations"] += n_pairs

            round_time = 0.0
            for grp, key_groups in group_pages.items():
                if self.dynamic_alloc:
                    loads = int(np.unique(np.concatenate(key_groups)).size)
                else:
                    loads = int(sum(np.unique(k).size for k in key_groups))
                counters["page_reads"] += loads
                counters["internal_bytes"] += loads * self.config.geometry.page_size
                # Transfers serialise on the shared bus; senses from the
                # LUNs below the accelerator pipeline behind them.
                luns_below = (
                    self.config.geometry.luns_per_chip
                    if self.level == "chip"
                    else self.config.geometry.luns_per_channel
                )
                t_transfer = loads * t_page
                t_sense = -(-loads // luns_below) * timing.read_page_s
                t_compute = group_vectors.get(grp, 0) * timing.distance_mac_s(
                    profile.dim
                )
                group_time = max(t_transfer, t_sense) + t_compute
                busy["page_transfer"] += t_transfer
                busy["nand_read"] += t_sense
                busy["compute"] += t_compute
                round_time = max(round_time, group_time)
            t_round = t_sched + round_time + t_gather
            if t_round > 0:
                timeline.append(
                    PhaseSegment(
                        "search_round", makespan, makespan + t_round,
                        resource="engine",
                    )
                )
            makespan += t_round

        out_bytes = batch * 10 * 8
        t_out = timing.host_transfer_s(out_bytes)
        if t_out > 0:
            timeline.append(
                PhaseSegment(
                    "host_out", makespan, makespan + t_out, resource="host_out"
                )
            )
        makespan += t_out
        counters["pcie_bytes"] += out_bytes

        result = SimResult(
            platform=self.platform,
            algorithm=algorithm,
            dataset=profile.name,
            batch_size=batch,
            sim_time_s=makespan,
            counters=counters,
            component_busy_s=busy,
            timeline=timeline,
        )
        EnergyModel.for_platform(self.platform).attach(result)
        return result
