"""SearSSD: the modified SSD device and its timing simulator.

Two layers:

* :class:`SearSSDDevice` — the *functional* device: a real
  :class:`repro.flash.ssd.SSD` with the graph's feature vectors
  programmed into NAND pages per the placement, LUNCSR built and
  mirrored to the FTL, one LUN-level accelerator per LUN, plus the
  Vgenerator, Allocator and FPGA sorter.  Used by the processing model
  (Algorithm 1) to compute real search results through the hardware
  path.

* :class:`SearSSDModel` — the *timing* simulator: a trace-driven,
  round-based replay in the style of the paper's SSD-Sim-based
  in-house simulator.  Each round advances every active query by one
  search iteration; page senses, multi-plane merges, channel-bus
  readouts, controller work, ECC faults and speculative prefetches are
  booked per component, and the round's critical path accumulates into
  the batch makespan.
"""

from __future__ import annotations

import numpy as np

from repro.ann.graph import ProximityGraph
from repro.ann.trace import SearchTrace, computed_segments
from repro.core.allocator import Allocator
from repro.core.config import NDSearchConfig
from repro.core.luncsr import LUNCSR
from repro.core.placement import VertexPlacement, map_vertices
from repro.core.sin import LunAccelerator, SiNEngine
from repro.core.speculative import TRACE_CHUNK
from repro.core.vgenerator import Vgenerator
from repro.flash.ecc import LDPCModel
from repro.flash.geometry import PhysicalAddress
from repro.flash.ssd import SSD
from repro.sim.stats import Counters, PhaseSegment, SimResult
from repro.sorting.fpga import FPGASorter


# =============================================================================
# Functional device
# =============================================================================
class SearSSDDevice:
    """A fully assembled, functional SearSSD holding one graph."""

    def __init__(self, graph: ProximityGraph, config: NDSearchConfig) -> None:
        self.config = config
        self.graph = graph
        self.ssd = SSD(geometry=config.geometry, timing=config.timing)
        self.vector_bytes = graph.dim * graph.vectors.itemsize
        scheme = "multiplane" if config.flags.multiplane else "interleaved"
        self.placement = map_vertices(
            graph.num_vertices, config.geometry, self.vector_bytes, scheme=scheme
        )
        self._program_vectors()
        self.luncsr = LUNCSR.build(graph, self.placement, self.vector_bytes)
        self.luncsr.attach_to_ftl(self.ssd.ftl)
        self.vgenerator = Vgenerator(self.luncsr, config.vgen_buffer_bytes)
        self.allocator = Allocator(self.luncsr, config.alloc_buffer_bytes)
        self.fpga = FPGASorter(timing=config.timing)
        self._accelerators: dict[int, LunAccelerator] = {}
        self.sin_engines: list[SiNEngine] = []
        self._build_sins()

    def _program_vectors(self) -> None:
        """Write every vertex's vector bytes into its flash page slot."""
        placement, geometry = self.placement, self.config.geometry
        page_bytes: dict[tuple[int, int, int, int], np.ndarray] = {}
        for v in range(self.graph.num_vertices):
            key = placement.page_key(v)
            buf = page_bytes.get(key)
            if buf is None:
                buf = np.zeros(geometry.page_size, dtype=np.uint8)
                page_bytes[key] = buf
            start = int(placement.slot[v]) * self.vector_bytes
            buf[start : start + self.vector_bytes] = np.frombuffer(
                self.graph.vectors[v].tobytes(), dtype=np.uint8
            )
        for (lun, plane, block, page), buf in page_bytes.items():
            self.ssd.program(
                PhysicalAddress(lun=lun, plane=plane, block=block, page=page), buf
            )

    def _build_sins(self) -> None:
        geometry = self.config.geometry
        for chip in self.ssd.chips:
            accelerators = []
            for lun in chip.luns:
                acc = LunAccelerator(
                    lun=lun,
                    geometry=geometry,
                    dim=self.graph.dim,
                    query_queue_capacity=self.config.max_queries_per_lun,
                )
                self._accelerators[lun.lun_index] = acc
                accelerators.append(acc)
            self.sin_engines.append(SiNEngine(accelerators=accelerators))

    def accelerator_of(self, lun: int) -> LunAccelerator:
        return self._accelerators[lun]

    def total_counters(self) -> Counters:
        total = Counters()
        total.update(self.vgenerator.counters)
        total.update(self.allocator.counters)
        total.update(self.fpga.counters)
        for engine in self.sin_engines:
            total.update(engine.counters)
        return total


# =============================================================================
# Timing simulator
# =============================================================================
#: Entries kept by each id-keyed per-trace cache (oldest evicted first).
TRACE_CACHE_CAP = 8192


def cache_put(cache: dict, key: int, entry) -> None:
    """Insert ``entry`` under ``key`` in a per-trace cache.

    A stale entry already under ``key`` is replaced in place of an
    eviction; the oldest entry is evicted only to make room for a new
    key in a full cache.
    """
    if cache.pop(key, None) is None and len(cache) >= TRACE_CACHE_CAP:
        cache.pop(next(iter(cache)))
    cache[key] = entry


class _CompiledTrace:
    """One trace's replay, pre-resolved to per-round LUN work.

    Everything about a single query's rounds — speculative hits, cache
    hits, per-LUN page keys, load/merge counts, the spec-prefetch
    contribution — is a pure function of the trace content, the
    speculative sets and the (immutable) model configuration.  It is
    compiled on a trace's first appearance, together with every other
    cache-missing trace of the same :meth:`SearSSDModel.run_batch`
    call (see :meth:`SearSSDModel._compile_traces`), and reused across
    every later batch the trace appears in.  Only the cross-query
    aggregation (LUN pooling under dynamic allocation, the ECC fault
    stream, stage timing) remains batch-coupled and is redone per
    sub-batch.

    ``rounds[r]`` is ``(had_computed, pairs, hits, n_cached, groups,
    spec_count, spec_keys, spec_loads, spec_merged)`` where ``groups``
    is a tuple of ``(lun, raw_count, unique_keys, loads, merged)`` in
    ascending LUN order and ``spec_keys`` holds the distinct page keys
    the round prefetches, ascending (``None`` when it prefetches
    nothing).
    """

    __slots__ = ("trace", "spec", "rounds", "n_rounds", "trace_length")

    def __init__(self, trace, spec, rounds) -> None:
        self.trace = trace
        self.spec = spec
        self.rounds = rounds
        self.n_rounds = trace.num_iterations
        self.trace_length = trace.trace_length


class SearSSDModel:
    """Trace-driven timing simulation of one batch on SearSSD."""

    def __init__(
        self,
        config: NDSearchConfig,
        placement: VertexPlacement,
        dim: int,
        graph: ProximityGraph | None = None,
        ldpc: LDPCModel | None = None,
        cached_vertices: np.ndarray | None = None,
    ) -> None:
        self.config = config
        self.placement = placement
        self.dim = dim
        self.graph = graph
        self.ldpc = ldpc or LDPCModel(hard_failure_prob=0.01)
        self.cached = (
            frozenset(int(v) for v in cached_vertices)
            if cached_vertices is not None
            else frozenset()
        )
        g = config.geometry
        self._plane_span = g.blocks_per_plane * g.pages_per_block
        self._lun_span = self._plane_span * g.planes_per_lun
        self._cached_arr = (
            np.fromiter(sorted(self.cached), dtype=np.int64, count=len(self.cached))
            if self.cached
            else None
        )
        # Per-trace compiled replays, keyed by trace identity.  Each
        # entry pins its trace (and spec list) so a keyed id cannot be
        # recycled onto a different object while the entry lives; the
        # `is` checks on lookup make a stale hit impossible either way.
        self._compiled: dict[int, _CompiledTrace] = {}

    # ---- helpers ---------------------------------------------------------------
    def _loads_and_merges(self, keys: np.ndarray) -> tuple[int, int]:
        """Distinct page senses and multi-plane merge count for keys.

        ``merged`` counts pages folded into another plane's sense of
        the same (block, page): distinct pages minus distinct
        plane-stripped pages.
        """
        unique = np.unique(keys)
        loads = int(unique.size)
        plane = (unique // self._plane_span) % self.config.geometry.planes_per_lun
        without_plane = unique - plane * self._plane_span
        merged = loads - int(np.unique(without_plane).size)
        return loads, merged

    # ---- main entry ----------------------------------------------------------------
    def run_batch(
        self,
        traces: list[SearchTrace],
        speculative_sets: list[list[np.ndarray]] | None = None,
        algorithm: str = "hnsw",
        dataset: str = "synthetic",
    ) -> SimResult:
        """Simulate a full batch, splitting into sub-batches if needed."""
        batch = len(traces)
        # Deterministic fault injection: the same batch always sees the
        # same hard-decode failure stream.
        self.ldpc.reset()
        capacity = self.config.max_batch_capacity
        counters = Counters()
        busy: dict[str, float] = {}
        timeline: list[PhaseSegment] = []
        makespan = 0.0
        compiled = self._compiled_batch(traces, speculative_sets)
        spec_enabled = speculative_sets is not None
        for start in range(0, batch, capacity):
            sub = compiled[start : start + capacity]
            t, c, b, segments = self._run_sub_batch(sub, spec_enabled)
            # Sub-batch segments are relative to the sub-batch's own
            # start; shift them onto the batch clock.
            timeline.extend(
                PhaseSegment(
                    s.stage, s.start + makespan, s.end + makespan,
                    resource=s.resource,
                )
                for s in segments
            )
            makespan += t
            counters.update(c)
            for key, val in b.items():
                busy[key] = busy.get(key, 0.0) + val
        result = SimResult(
            platform="ndsearch",
            algorithm=algorithm,
            dataset=dataset,
            batch_size=batch,
            sim_time_s=makespan,
            counters=counters,
            component_busy_s=busy,
            timeline=timeline,
        )
        return result

    # ---- trace compilation -----------------------------------------------------------
    def _compiled_batch(
        self,
        traces: list[SearchTrace],
        speculative_sets: list[list[np.ndarray]] | None,
    ) -> list[_CompiledTrace]:
        """Resolve every trace to its compiled replay.

        Every entry is looked up first; the misses (each (trace, spec
        list) pair once, however often it appears in the batch) then
        compile together in one batched pass.
        """
        cache = self._compiled
        keys = [id(t) for t in traces]  # repro-lint: disable=DET001 -- trace pinned in entry
        specs = (
            speculative_sets if speculative_sets is not None
            else [None] * len(traces)
        )
        out: list = []
        todo: list[tuple] = []
        pending: dict[int, int] = {}
        for k, trace, spec in zip(keys, traces, specs):
            entry = cache.get(k)
            if entry is not None and entry.trace is trace and entry.spec is spec:
                out.append(entry)
                continue
            j = pending.get(k)
            if j is None or todo[j][2] is not spec:
                j = pending[k] = len(todo)
                todo.append((k, trace, spec))
            out.append(j)
        if not todo:
            return out
        fresh = self._compile_traces([(t, spec) for _, t, spec in todo])
        for (k, _, _), entry in zip(todo, fresh):
            cache_put(cache, k, entry)
        return [fresh[e] if isinstance(e, int) else e for e in out]

    def _compile_traces(
        self, pairs: list[tuple[SearchTrace, list[np.ndarray] | None]]
    ) -> list[_CompiledTrace]:
        """Compile ``(trace, spec list)`` pairs, :data:`TRACE_CHUNK` at a time."""
        out: list[_CompiledTrace] = []
        for start in range(0, len(pairs), TRACE_CHUNK):
            out.extend(self._compile_chunk(pairs[start : start + TRACE_CHUNK]))
        return out

    def _group_loads_merges(
        self, composite: np.ndarray, span: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Loads and multi-plane merges per group of composite page keys.

        ``composite`` is sorted and distinct, and its group is
        ``composite // span``.  Returns the distinct groups, the start
        of each group's run in ``composite``, its loads (run length) and
        its merges (loads minus distinct plane-stripped keys).  Plane
        stripping never crosses a group: groups are whole LUNs or
        whole segments.
        """
        group = composite // span
        edge = np.empty(group.size, dtype=bool)
        edge[:1] = True
        np.not_equal(group[1:], group[:-1], out=edge[1:])
        starts = np.flatnonzero(edge)
        loads = np.diff(starts, append=group.size)
        plane = (composite // self._plane_span) % self.config.geometry.planes_per_lun
        stripped = np.unique(composite - plane * self._plane_span)
        _, distinct = np.unique(stripped // span, return_counts=True)
        return group[starts], starts, loads, loads - distinct

    def _compile_chunk(
        self, pairs: list[tuple[SearchTrace, list[np.ndarray] | None]]
    ) -> list[_CompiledTrace]:
        """Compile a few traces in one vectorised pass over all their rounds.

        Every round of every trace is a *segment*.  Speculative hits
        and DRAM-cache hits are one membership test each; the demand
        and prefetch page keys come from one ``page_keys`` call; one
        sort of ``segment * key_space + page key`` then yields, from
        run boundaries, every round's per-LUN raw counts, distinct
        keys, loads and merges, and a second sort does the same for the
        prefetches.  All outputs are integers or sorted integer arrays,
        so this is exactly the per-round ``np.unique`` computation.
        """
        flags = self.config.flags
        n_luns = self.config.geometry.total_luns
        key_space = n_luns * self._lun_span
        lengths, vertices = computed_segments([t for t, _ in pairs])
        n_seg = len(lengths)
        seg = np.repeat(np.arange(n_seg, dtype=np.int64), lengths)
        # Round r's prefetch set spec[r] exists only while a round r+1
        # follows (r < n_iter - 1): it prefetches in segment base + r
        # and can hit in segment base + r + 1.
        spec_parts: list[np.ndarray] = []
        spec_at: list[int] = []
        base = 0
        for trace, spec in pairs:
            if flags.speculative and spec is not None:
                for r in range(min(len(spec), trace.num_iterations - 1)):
                    if spec[r].size:
                        spec_parts.append(spec[r])
                        spec_at.append(base + r)
            base += trace.num_iterations
        hits = n_cached = [0] * n_seg
        if spec_parts:
            spec_v = np.concatenate(spec_parts).astype(np.int64, copy=False)
            spec_seg = np.repeat(
                np.asarray(spec_at, dtype=np.int64),
                [part.size for part in spec_parts],
            )
            stride = int(max(vertices.max(initial=0), spec_v.max())) + 1
            hit = np.isin(seg * stride + vertices, (spec_seg + 1) * stride + spec_v)
            hits = np.bincount(seg[hit], minlength=n_seg).tolist()
            seg, vertices = seg[~hit], vertices[~hit]
        else:
            spec_v = spec_seg = np.empty(0, dtype=np.int64)
        # Internal-DRAM cache (DiskANN hot vertices).
        if self._cached_arr is not None and vertices.size:
            cached = np.isin(vertices, self._cached_arr)
            n_cached = np.bincount(seg[cached], minlength=n_seg).tolist()
            seg, vertices = seg[~cached], vertices[~cached]
        pairs_per_seg = np.bincount(seg, minlength=n_seg).tolist()
        keys = self.placement.page_keys(np.concatenate([vertices, spec_v]))

        # Demand: groups are (segment, LUN) = composite // lun_span.
        composite, raw = np.unique(
            seg * key_space + keys[: vertices.size], return_counts=True
        )
        group, starts, loads, merged = self._group_loads_merges(
            composite, self._lun_span
        )
        unique_keys = composite % key_space
        ends = np.append(starts[1:], composite.size).tolist()
        group_tuples = list(
            zip(
                (group % n_luns).tolist(),
                np.add.reduceat(raw, starts).tolist() if raw.size else [],
                (unique_keys[a:b] for a, b in zip(starts.tolist(), ends)),
                loads.tolist(),
                merged.tolist(),
            )
        )
        bounds = np.searchsorted(group // n_luns, np.arange(n_seg + 1)).tolist()
        groups = [
            tuple(group_tuples[bounds[s] : bounds[s + 1]]) for s in range(n_seg)
        ]

        # Prefetch: groups are segments = composite // key_space.  The
        # loads/merges pre-resolve a round where one query prefetches;
        # multi-query rounds still pool the keys at batch time.
        spec_round: list[tuple] = [(0, None, 0, 0)] * n_seg
        if spec_v.size:
            spec_count = np.bincount(spec_seg, minlength=n_seg).tolist()
            composite = np.unique(spec_seg * key_space + keys[vertices.size :])
            group, starts, loads, merged = self._group_loads_merges(
                composite, key_space
            )
            spec_keys = composite % key_space
            ends = np.append(starts[1:], composite.size).tolist()
            for s, a, b, n_load, n_merge in zip(
                group.tolist(), starts.tolist(), ends,
                loads.tolist(), merged.tolist(),
            ):
                spec_round[s] = (spec_count[s], spec_keys[a:b], n_load, n_merge)

        out: list[_CompiledTrace] = []
        base = 0
        for trace, spec in pairs:
            rounds = tuple(
                (lengths[s] > 0, pairs_per_seg[s], hits[s], n_cached[s], groups[s])
                + spec_round[s]
                for s in range(base, base + trace.num_iterations)
            )
            out.append(_CompiledTrace(trace, spec, rounds))
            base += trace.num_iterations
        return out

    # ---- one sub-batch ---------------------------------------------------------------
    def _run_sub_batch(
        self,
        compiled: list[_CompiledTrace],
        spec_enabled: bool,
    ):
        timing = self.config.timing
        flags = self.config.flags
        geometry = self.config.geometry
        counters = Counters()
        busy: dict[str, float] = {
            "pcie_host": 0.0,
            "vgenerator": 0.0,
            "allocator": 0.0,
            "nand_read": 0.0,
            "channel_bus": 0.0,
            "dram": 0.0,
            "embedded_cores": 0.0,
            "fpga_sort": 0.0,
            "sin_macs_busy": 0.0,
            "nand_busy": 0.0,
            "lun_queues_busy": 0.0,
            "ecc_busy": 0.0,
        }
        batch = len(compiled)
        if batch == 0:
            return 0.0, counters, busy, []

        # Phase timeline of this sub-batch, relative to its own start.
        # Host-in/out are distinct resources (full-duplex PCIe), so the
        # serving layer can drain batch N's results while batch N+1's
        # queries stream in.
        segments: list[PhaseSegment] = []

        def book(stage: str, resource: str, start: float, duration: float) -> None:
            if duration > 0:
                segments.append(
                    PhaseSegment(stage, start, start + duration, resource=resource)
                )

        # 1. Host sends the query batch over PCIe (Fig. 5 step 1).
        query_bytes = batch * (self.dim * 4 + 16)
        t_in = timing.host_transfer_s(query_bytes)
        counters["pcie_bytes"] += query_bytes
        busy["pcie_host"] += t_in
        book("host_in", "host_in", 0.0, t_in)
        makespan = t_in

        max_rounds = max(c.n_rounds for c in compiled)

        for round_idx in range(max_rounds):
            # Aggregate the batch's compiled per-trace round work.  LUN
            # accumulators keep first-touch order (query id ascending,
            # LUN ascending per query) — the ECC fault stream consumes
            # its draws in exactly this order.
            n_active = 0
            n_pairs = 0
            cached_accesses = 0
            # lun -> [n_vectors, loads, merged, unique-key arrays]
            lun_acc: dict[int, list] = {}
            for comp in compiled:
                if round_idx >= comp.n_rounds:
                    continue
                had, pairs, hits, n_cached, groups = comp.rounds[round_idx][:5]
                n_active += 1
                if hits:
                    counters["speculative_hits"] += hits
                if n_cached:
                    counters["cache_hits"] += n_cached
                    cached_accesses += n_cached
                if had:
                    n_pairs += pairs
                    counters["distance_computations"] += pairs
                for lun, raw, uniq, loads, merged in groups:
                    acc = lun_acc.get(lun)
                    if acc is None:
                        acc = lun_acc[lun] = [0, 0, 0, []]
                    acc[0] += raw
                    acc[1] += loads
                    if flags.multiplane:
                        acc[2] += merged
                    acc[3].append(uniq)
            if n_active == 0:
                continue

            # Scheduling stage: Vgenerator pipeline + Allocator dispatch.
            t_vgen = (n_active + 2) * timing.vgen_stage_s
            t_alloc = n_pairs * timing.alloc_dispatch_s
            dram_ops = 3 * n_active + 2 * n_pairs + cached_accesses
            t_dram_sched = dram_ops * timing.dram_access_s
            counters["dram_accesses"] += dram_ops
            t_sched = max(t_vgen + t_alloc, t_dram_sched)
            # Speculative searching launches the next iteration's
            # Allocating stage during the current Searching stage
            # (Fig. 12), hiding the scheduling latency of every round
            # after the first behind the previous round's search.
            if flags.speculative and round_idx > 0:
                t_sched = 0.0
            busy["vgenerator"] += t_vgen
            busy["allocator"] += t_alloc
            busy["dram"] += t_dram_sched

            # Searching stage: every LUN works in parallel (multi-LUN).
            t_search, search_busy = self._search_stage(lun_acc, counters)
            for key, val in search_busy.items():
                busy[key] = busy.get(key, 0.0) + val

            # Gathering stage: Reduce/Apply on the QPT.
            gather_ops = n_pairs + n_active
            t_gather = (
                n_pairs * timing.dram_access_s
                + n_active * timing.embedded_core_op_s
            )
            counters["dram_accesses"] += gather_ops
            busy["embedded_cores"] += n_active * timing.embedded_core_op_s
            busy["dram"] += n_pairs * timing.dram_access_s

            # Speculative searching overlaps the next round's
            # scheduling window; it only adds NAND activity + counters.
            if flags.speculative and spec_enabled:
                self._speculative_stage(compiled, round_idx, counters, busy)

            book("schedule", "engine", makespan, t_sched)
            book("search", "engine", makespan + t_sched, t_search)
            book("gather", "engine", makespan + t_sched + t_search, t_gather)
            makespan += t_sched + t_search + t_gather

        # Sorting stage: result lists to the FPGA, top-k back to host.
        list_len = int(np.mean([max(c.trace_length, 1) for c in compiled]))
        list_len = min(list_len, 256)
        t_sort = FPGASorter(timing=timing).sort_latency_s(batch, list_len)
        counters["sorted_elements"] += batch * list_len
        busy["fpga_sort"] += t_sort
        out_bytes = batch * 10 * 8
        t_out = timing.host_transfer_s(out_bytes)
        counters["pcie_bytes"] += out_bytes
        busy["pcie_host"] += t_out
        book("sort", "sorter", makespan, t_sort)
        book("host_out", "host_out", makespan + t_sort, t_out)
        makespan += t_sort + t_out
        return makespan, counters, busy, segments

    # ---- searching stage -------------------------------------------------------------
    def _search_stage(self, lun_acc: dict[int, list], counters: Counters):
        timing = self.config.timing
        geometry = self.config.geometry
        flags = self.config.flags
        busy = {
            "nand_read": 0.0,
            "channel_bus": 0.0,
            "embedded_cores": 0.0,
            "sin_macs_busy": 0.0,
            "nand_busy": 0.0,
            "lun_queues_busy": 0.0,
            "ecc_busy": 0.0,
        }
        channel_compute: dict[int, float] = {}
        channel_readout: dict[int, float] = {}
        soft_stall = 0.0
        # Dynamic allocation pools each LUN's round demand: one sense
        # covers every query that needs the page, so loads/merges come
        # from the *union* of the per-query page sets, not their sum.
        # A LUN with a single contributing query needs no pooling (its
        # union is the per-query set, resolved at compile time); the
        # multi-query LUNs pool in ONE pass — page keys embed the LUN
        # as their most-significant field, so one global unique yields
        # every LUN's union size at once.
        da_loads: dict[int, int] = {}
        da_merged: dict[int, int] = {}
        if flags.dynamic_alloc:
            multi: list[np.ndarray] = []
            multi_luns: list[int] = []
            for lun, acc in lun_acc.items():
                if len(acc[3]) > 1:
                    multi.extend(acc[3])
                    multi_luns.append(lun)
            if multi:
                uniq = np.unique(np.concatenate(multi))
                plane = (
                    uniq // self._plane_span
                ) % self.config.geometry.planes_per_lun
                wp = np.unique(uniq - plane * self._plane_span)
                # Both arrays are sorted with the LUN as the top key
                # field, so each LUN's slice is found by bisecting its
                # key range — no per-LUN unique needed.
                multi_luns.sort()
                edges = np.empty(len(multi_luns) * 2, dtype=np.int64)
                edges[0::2] = np.asarray(multi_luns) * self._lun_span
                edges[1::2] = edges[0::2] + self._lun_span
                bounds = np.searchsorted(uniq, edges)
                wp_bounds = np.searchsorted(wp, edges)
                for i, lid in enumerate(multi_luns):
                    loads_i = int(bounds[2 * i + 1] - bounds[2 * i])
                    da_loads[lid] = loads_i
                    da_merged[lid] = loads_i - int(
                        wp_bounds[2 * i + 1] - wp_bounds[2 * i]
                    )
        for lun, (n_vectors, loads, merged, uniqs) in lun_acc.items():
            if flags.dynamic_alloc and len(uniqs) > 1:
                loads = da_loads[lun]
                merged = da_merged[lun] if flags.multiplane else 0
            effective_ops = loads - merged
            counters["page_reads"] += loads
            counters["multiplane_reads"] += merged
            counters["ecc_hard_decodes"] += loads
            t_mac = n_vectors * timing.distance_mac_s(self.dim)
            t_nand = effective_ops * (timing.read_page_s + timing.ecc_hard_decode_s)
            # ECC fault injection: failed hard decodes fall back to the
            # soft decoder on the embedded cores and stall this LUN.
            failures = self.ldpc.decode_pages(loads)
            if failures:
                counters["ecc_soft_decodes"] += failures
                t_soft = failures * timing.ecc_soft_decode_s
                t_nand += t_soft
                soft_stall += t_soft
            lun_time = t_nand + t_mac
            busy["nand_busy"] += t_nand
            busy["sin_macs_busy"] += t_mac
            busy["ecc_busy"] += loads * timing.ecc_hard_decode_s
            busy["lun_queues_busy"] += lun_time
            channel = lun // geometry.luns_per_channel
            channel_compute[channel] = max(channel_compute.get(channel, 0.0), lun_time)
            # Output-buffer readout over the shared channel bus.
            readout_bytes = n_vectors * 8 + 16
            counters["internal_bytes"] += readout_bytes
            channel_readout[channel] = channel_readout.get(channel, 0.0) + (
                readout_bytes / timing.channel_bus_bw + 0.5e-6
            )
        if not channel_compute:
            return 0.0, busy
        t_search = max(
            channel_compute[ch] + channel_readout.get(ch, 0.0)
            for ch in channel_compute
        )
        # Critical-path attribution: the slowest channel's compute time
        # counts as NAND read, the remainder as channel-bus readout.
        t_compute_crit = max(channel_compute.values())
        busy["nand_read"] += t_compute_crit
        busy["channel_bus"] += t_search - t_compute_crit
        busy["embedded_cores"] += soft_stall
        return t_search, busy

    # ---- speculative stage ------------------------------------------------------------
    def _speculative_stage(
        self,
        compiled: list[_CompiledTrace],
        round_idx: int,
        counters: Counters,
        busy: dict[str, float],
    ) -> None:
        timing = self.config.timing
        total_vertices = 0
        keys_list: list[np.ndarray] = []
        loads = merged = 0
        for comp in compiled:
            if round_idx >= comp.n_rounds:
                continue
            spec_count, spec_keys, spec_loads, spec_merged = (
                comp.rounds[round_idx][5:9]
            )
            if spec_count:
                total_vertices += spec_count
                keys_list.append(spec_keys)
                loads, merged = spec_loads, spec_merged
        if not keys_list:
            return
        if len(keys_list) > 1:
            # Cross-query pooling: a page two queries prefetch is
            # sensed once, so the batch's loads come from the pooled
            # key set, not the per-query sums.
            loads, merged = self._loads_and_merges(np.concatenate(keys_list))
        effective = loads - (merged if self.config.flags.multiplane else 0)
        counters["speculative_page_reads"] += loads
        counters["page_reads"] += loads
        counters["ecc_hard_decodes"] += loads
        # Overlapped with the next round's scheduling window: adds NAND
        # busy time (and energy) but not critical-path latency.
        busy["nand_busy"] += effective * timing.read_page_s
        busy["sin_macs_busy"] += total_vertices * timing.distance_mac_s(self.dim)
