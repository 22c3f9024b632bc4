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


#: Columns of :attr:`_CompiledTrace.rounds`.
_ROUND, _HAD, _PAIRS, _HITS, _CACHED, _SPEC = range(6)
#: Columns of :attr:`_CompiledTrace.groups` (column 0 is the round).
_LUN, _RAW, _LOADS, _MERGED = range(1, 5)

#: Component busy-time keys of a sub-batch, in reporting order.
_BUSY_KEYS = (
    "pcie_host", "vgenerator", "allocator", "nand_read", "channel_bus",
    "dram", "embedded_cores", "fpga_sort", "sin_macs_busy", "nand_busy",
    "lun_queues_busy", "ecc_busy",
)
#: The per-round engine stages, in booking order.
_ROUND_STAGES = ("schedule", "search", "gather")


def _run_bounds(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values in sorted ``keys`` starts, then ``keys.size``."""
    edge = np.empty(keys.size + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
    return edge.nonzero()[0]


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys``, ascending.

    A sort and its run boundaries: on the key arrays pooled per
    sub-batch this is cheaper than ``np.unique``.
    """
    keys = np.sort(keys)
    return keys[_run_bounds(keys)[:-1]]


def _running_sums(terms: np.ndarray) -> np.ndarray:
    """Left-to-right sums along the last axis, as ``total += term`` books them.

    ``np.cumsum`` accumulates sequentially, unlike the pairwise
    ``np.sum``, so a row padded with zeros anywhere (``x + 0.0 == x``
    for the non-negative times summed here) sums bit-identically to its
    unpadded terms added one at a time from 0.0.
    """
    if not terms.shape[-1]:
        return np.zeros(terms.shape[:-1])
    return np.cumsum(terms, axis=-1)[..., -1]


class _CompiledTrace:
    """One trace's replay, pre-resolved to per-round LUN work.

    Everything about a single query's rounds — speculative hits, cache
    hits, per-LUN page keys, load/merge counts, the spec-prefetch
    keys — is a pure function of the trace content, the speculative
    sets and the (immutable) model configuration.  It is compiled on a
    trace's first appearance, together with every other cache-missing
    trace of the same :meth:`SearSSDModel.run_batch` call (see
    :meth:`SearSSDModel._compile_traces`), and reused across every
    later batch the trace appears in.  Only the cross-query aggregation
    (LUN pooling under dynamic allocation, the ECC fault stream, stage
    timing) remains batch-coupled and is redone per sub-batch.

    The layout is flat, four int64 arrays per trace:

    * ``rounds``, ``(n_rounds, 6)``: per round, its index, whether it
      computed any vertex, the distance pairs left after speculative
      and DRAM-cache hits, those two hit counts, and how many vertices
      it prefetches (columns ``_ROUND`` … ``_SPEC``);
    * ``groups``, ``(n_groups, 5)``: one row per (round, LUN) the trace
      reads, ordered by round and then LUN: the round, the LUN, its raw
      vertex count, distinct page loads and multi-plane merges;
    * ``group_keys`` and ``spec_keys``: the distinct page keys each
      round reads and prefetches, ascending, flat as
      ``round * key_space + page key``.

    Each is a view into an array shared by the traces of one compile
    chunk, so an entry pins at most :data:`TRACE_CHUNK` traces' arrays.
    """

    __slots__ = (
        "trace", "spec", "n_rounds", "trace_length",
        "rounds", "groups", "group_keys", "spec_keys",
    )

    def __init__(self, trace, spec, rounds, groups, group_keys, spec_keys) -> None:
        self.trace = trace
        self.spec = spec
        self.n_rounds = trace.num_iterations
        self.trace_length = trace.trace_length
        self.rounds = rounds
        self.groups = groups
        self.group_keys = group_keys
        self.spec_keys = spec_keys


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
        self._key_space = g.total_luns * self._lun_span
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
        for start in range(0, batch, capacity):
            t, c, b, segments = self._run_sub_batch(compiled[start : start + capacity])
            if makespan:
                # Sub-batch segments are relative to the sub-batch's own
                # start; shift later sub-batches onto the batch clock.
                segments = [
                    PhaseSegment(
                        s.stage, s.start + makespan, s.end + makespan,
                        resource=s.resource,
                    )
                    for s in segments
                ]
            timeline.extend(segments)
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
        bounds = _run_bounds(group)
        starts = bounds[:-1]
        loads = bounds[1:] - starts
        plane = (composite // self._plane_span) % self.config.geometry.planes_per_lun
        stripped = _run_bounds(
            _distinct(composite - plane * self._plane_span) // span
        )
        return group[starts], starts, loads, loads - (stripped[1:] - stripped[:-1])

    def _compile_chunk(
        self, pairs: list[tuple[SearchTrace, list[np.ndarray] | None]]
    ) -> list[_CompiledTrace]:
        """Compile a few traces in one vectorised pass over all their rounds.

        Every round of every trace is a *segment*.  Speculative hits
        and DRAM-cache hits are one membership test each; the demand
        and prefetch page keys come from one ``page_keys`` call; one
        sort of ``segment * key_space + page key`` then yields, from
        run boundaries, every round's per-LUN raw counts, distinct
        keys, loads and merges, and a second sort gives the distinct
        prefetch keys.  All outputs are integers or sorted integer
        arrays, so this is exactly the per-round ``np.unique``
        computation.
        """
        flags = self.config.flags
        n_luns = self.config.geometry.total_luns
        key_space = self._key_space
        lengths, vertices = computed_segments([t for t, _ in pairs])
        n_seg = len(lengths)
        seg = np.repeat(np.arange(n_seg, dtype=np.int64), lengths)
        n_iter = [t.num_iterations for t, _ in pairs]
        first = np.zeros(len(pairs) + 1, dtype=np.int64)
        np.cumsum(n_iter, out=first[1:])
        # Each segment's trace's first segment: segment - base = round.
        seg_base = np.repeat(first[:-1], n_iter)
        rounds = np.zeros((n_seg, 6), dtype=np.int64)
        rounds[:, _ROUND] = np.arange(n_seg) - seg_base
        rounds[:, _HAD] = lengths > 0
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
        if spec_parts:
            spec_v = np.concatenate(spec_parts).astype(np.int64, copy=False)
            spec_seg = np.repeat(
                np.asarray(spec_at, dtype=np.int64),
                [part.size for part in spec_parts],
            )
            stride = int(max(vertices.max(initial=0), spec_v.max())) + 1
            hit = np.isin(seg * stride + vertices, (spec_seg + 1) * stride + spec_v)
            rounds[:, _HITS] = np.bincount(seg[hit], minlength=n_seg)
            rounds[:, _SPEC] = np.bincount(spec_seg, minlength=n_seg)
            seg, vertices = seg[~hit], vertices[~hit]
        else:
            spec_v = spec_seg = np.empty(0, dtype=np.int64)
        # Internal-DRAM cache (DiskANN hot vertices).
        if self._cached_arr is not None and vertices.size:
            cached = np.isin(vertices, self._cached_arr)
            rounds[:, _CACHED] = np.bincount(seg[cached], minlength=n_seg)
            seg, vertices = seg[~cached], vertices[~cached]
        rounds[:, _PAIRS] = np.bincount(seg, minlength=n_seg)
        keys = self.placement.page_keys(np.concatenate([vertices, spec_v]))

        # Demand: groups are (segment, LUN) = composite // lun_span.
        composite, raw = np.unique(
            seg * key_space + keys[: vertices.size], return_counts=True
        )
        group, starts, loads, merged = self._group_loads_merges(
            composite, self._lun_span
        )
        raw_before = np.zeros(raw.size + 1, dtype=np.int64)
        np.cumsum(raw, out=raw_before[1:])
        group_seg = group // n_luns
        groups = np.stack(
            [
                group_seg - seg_base[group_seg],
                group % n_luns,
                raw_before[starts + loads] - raw_before[starts],
                loads,
                merged,
            ],
            axis=1,
        )
        group_keys = composite - seg_base[composite // key_space] * key_space
        group_bounds = np.searchsorted(group_seg, first).tolist()
        key_bounds = np.searchsorted(composite, first * key_space).tolist()

        # Prefetch: the distinct keys of each segment; their loads and
        # merges are pooled across the sub-batch at pricing time.
        spec_keys = np.unique(spec_seg * key_space + keys[vertices.size :])
        spec_bounds = np.searchsorted(spec_keys, first * key_space).tolist()
        spec_keys -= seg_base[spec_keys // key_space] * key_space

        round_bounds = first.tolist()
        return [
            _CompiledTrace(
                trace, spec,
                rounds[round_bounds[i] : round_bounds[i + 1]],
                groups[group_bounds[i] : group_bounds[i + 1]],
                group_keys[key_bounds[i] : key_bounds[i + 1]],
                spec_keys[spec_bounds[i] : spec_bounds[i + 1]],
            )
            for i, (trace, spec) in enumerate(pairs)
        ]

    # ---- one sub-batch ---------------------------------------------------------------
    def _run_sub_batch(self, compiled: list[_CompiledTrace]):
        """Price one sub-batch, all of its rounds in one vectorised pass.

        Round ``r`` advances every trace that has a round ``r``: the
        Scheduling, Searching and Gathering stages run back to back on
        the engine, and the speculative prefetch overlaps them.  Every
        float total is a left-to-right running sum in the order the
        rounds book it (see :func:`_running_sums`), so the makespan,
        busy times and timeline are bit-identical to pricing the rounds
        one at a time.
        """
        timing = self.config.timing
        batch = len(compiled)
        counters = Counters()

        # 1. Host sends the query batch over PCIe (Fig. 5 step 1).
        query_bytes = batch * (self.dim * 4 + 16)
        t_in = timing.host_transfer_s(query_bytes)

        # Per-round totals over the active traces.
        n_rounds = max(c.n_rounds for c in compiled)
        rows = np.concatenate([c.rounds for c in compiled])
        n_active = np.bincount(rows[:, _ROUND], minlength=n_rounds)
        sums = np.zeros((n_rounds, 6), dtype=np.int64)
        np.add.at(sums, rows[:, _ROUND], rows)
        n_pairs = sums[:, _PAIRS]
        totals = sums.sum(axis=0).tolist()
        if totals[_HITS]:
            counters["speculative_hits"] += totals[_HITS]
        if totals[_CACHED]:
            counters["cache_hits"] += totals[_CACHED]
        if totals[_HAD]:
            counters["distance_computations"] += totals[_PAIRS]

        # Scheduling stage: Vgenerator pipeline + Allocator dispatch.
        t_vgen = (n_active + 2) * timing.vgen_stage_s
        t_alloc = n_pairs * timing.alloc_dispatch_s
        dram_ops = 3 * n_active + 2 * n_pairs + sums[:, _CACHED]
        t_dram_sched = dram_ops * timing.dram_access_s
        t_sched = np.maximum(t_vgen + t_alloc, t_dram_sched)
        # Speculative searching launches the next iteration's
        # Allocating stage during the current Searching stage
        # (Fig. 12), hiding the scheduling latency of every round
        # after the first behind the previous round's search.
        if self.config.flags.speculative:
            t_sched[1:] = 0.0

        # Searching stage: every LUN works in parallel (multi-LUN).
        t_search, t_crit, lun_busy = self._search_rounds(compiled, n_rounds, counters)

        # Gathering stage: Reduce/Apply on the QPT.
        t_gather = (
            n_pairs * timing.dram_access_s + n_active * timing.embedded_core_op_s
        )
        if n_rounds:
            # Scheduling's dram_ops plus gathering's n_pairs + n_active.
            counters["dram_accesses"] += (
                4 * len(rows) + 3 * totals[_PAIRS] + totals[_CACHED]
            )

        # Speculative searching overlaps the next round's scheduling
        # window; it only adds NAND activity + counters.
        spec_nand, spec_mac = self._prefetch_rounds(
            compiled, n_rounds, sums[:, _SPEC], counters
        )

        # Busy time, booked round by round in stage order: each row is
        # one component's (first, second) term per round.
        nand, mac, queues, ecc, soft = lun_busy
        terms = np.zeros((10, n_rounds, 2))
        terms[:, :, 0] = (
            t_vgen, t_alloc, t_crit, t_search - t_crit, t_dram_sched,
            soft, mac, nand, queues, ecc,
        )
        terms[4:8, :, 1] = (
            n_pairs * timing.dram_access_s,
            n_active * timing.embedded_core_op_s,
            spec_mac,
            spec_nand,
        )
        round_busy = _running_sums(terms.reshape(10, -1)).tolist()

        # The engine clock: round r starts where round r - 1 ended, and
        # its stages follow one another from there.
        stages = np.empty((n_rounds, 3))
        stages[:] = np.transpose((t_sched, t_search, t_gather))
        steps = np.empty(n_rounds + 1)
        steps[0] = t_in
        steps[1:] = t_sched + t_search + t_gather
        clock = np.cumsum(steps)
        edges = np.empty((n_rounds, 4))
        edges[:, 0] = clock[:-1]
        for k in range(3):
            np.add(edges[:, k], stages[:, k], out=edges[:, k + 1])
        booked_round, booked_stage = (stages > 0).nonzero()
        # Phase timeline of this sub-batch, relative to its own start.
        # Host-in/out are distinct resources (full-duplex PCIe), so the
        # serving layer can drain batch N's results while batch N+1's
        # queries stream in.
        segments: list[PhaseSegment] = []
        if t_in > 0:
            segments.append(PhaseSegment("host_in", 0.0, t_in, resource="host_in"))
        segments.extend(
            PhaseSegment(_ROUND_STAGES[stage], start, end, resource="engine")
            for stage, start, end in zip(
                booked_stage.tolist(),
                edges[booked_round, booked_stage].tolist(),
                edges[booked_round, booked_stage + 1].tolist(),
            )
        )
        makespan = float(clock[-1])

        # Sorting stage: result lists to the FPGA, top-k back to host.
        # The mean list length, truncated (exact: the sum is far below 2**53).
        list_len = sum(max(c.trace_length, 1) for c in compiled) // batch
        list_len = min(list_len, 256)
        t_sort = FPGASorter(timing=timing).sort_latency_s(batch, list_len)
        counters["sorted_elements"] += batch * list_len
        out_bytes = batch * 10 * 8
        t_out = timing.host_transfer_s(out_bytes)
        counters["pcie_bytes"] += query_bytes + out_bytes
        if t_sort > 0:
            segments.append(
                PhaseSegment("sort", makespan, makespan + t_sort, resource="sorter")
            )
        if t_out > 0:
            segments.append(
                PhaseSegment(
                    "host_out", makespan + t_sort, makespan + t_sort + t_out,
                    resource="host_out",
                )
            )
        makespan += t_sort + t_out
        busy = dict(
            zip(_BUSY_KEYS, [t_in + t_out, *round_busy[:6], t_sort, *round_busy[6:]])
        )
        return makespan, counters, busy, segments

    def _search_rounds(
        self, compiled: list[_CompiledTrace], n_rounds: int, counters: Counters
    ):
        """The multi-LUN Searching stage of every round of a sub-batch.

        Returns per round the stage time, its slowest channel's compute
        time, and the within-round running sums of the LUNs' NAND, MAC,
        queue, hard-decode and soft-decode stall times.
        """
        timing = self.config.timing
        geometry = self.config.geometry
        flags = self.config.flags
        n_luns = geometry.total_luns
        groups = np.concatenate([c.groups for c in compiled])
        # Each (round, LUN) the sub-batch reads is one LUN run.  Within
        # a round the trace-major rows are in query-then-LUN order, so
        # a run's first row is its first touch: runs sorted by (round,
        # first row) are in the order the LUN accumulators fill.
        key = groups[:, _ROUND] * n_luns + groups[:, _LUN]
        by_key = key.argsort(kind="stable")
        bounds = _run_bounds(key[by_key])
        first = by_key[bounds[:-1]]
        run_key = key[first]
        before = np.zeros((key.size + 1, 3), dtype=np.int64)
        np.cumsum(groups[by_key, _RAW:], axis=0, out=before[1:])
        run_sums = before[bounds[1:]] - before[bounds[:-1]]
        if flags.dynamic_alloc:
            # Dynamic allocation pools each run's demand: one sense
            # covers every query that needs the page, so loads/merges
            # come from the *union* of the per-query page sets.  Keys
            # embed (round, LUN) as their most significant fields, so
            # one sorted union yields every run's loads and merges;
            # a single query's union is its own set.
            pooled = _distinct(np.concatenate([c.group_keys for c in compiled]))
            _, _, loads, merged = self._group_loads_merges(pooled, self._lun_span)
        else:
            loads, merged = run_sums[:, _LOADS - _RAW], run_sums[:, _MERGED - _RAW]
        touch = np.argsort(run_key // n_luns * groups.shape[0] + first)
        rnd, lun = np.divmod(run_key[touch], n_luns)
        n_vectors = run_sums[touch, 0]
        loads = loads[touch]
        merged = merged[touch] if flags.multiplane else np.zeros_like(loads)
        # ECC fault injection: failed hard decodes fall back to the
        # soft decoder on the embedded cores and stall their LUN.  The
        # draws run in (round, first touch) order.
        failures = self.ldpc.decode_runs(loads)
        readout_bytes = n_vectors * 8 + 16
        if rnd.size:
            n_loads = int(loads.sum())
            counters["page_reads"] += n_loads
            counters["multiplane_reads"] += int(merged.sum())
            counters["ecc_hard_decodes"] += n_loads
            if failures.any():
                counters["ecc_soft_decodes"] += int(failures.sum())
            counters["internal_bytes"] += int(readout_bytes.sum())

        t_mac = n_vectors * timing.distance_mac_s(self.dim)
        t_soft = failures * timing.ecc_soft_decode_s
        t_nand = (loads - merged) * (timing.read_page_s + timing.ecc_hard_decode_s)
        t_nand += t_soft
        lun_time = t_nand + t_mac
        # Within-round running sums, one row per round, runs in order.
        slot = np.arange(rnd.size) - np.searchsorted(rnd, rnd)
        per_round = np.zeros((5, n_rounds, int(slot.max(initial=-1)) + 1))
        per_round[:, rnd, slot] = (
            t_nand, t_mac, lun_time, loads * timing.ecc_hard_decode_s, t_soft
        )
        lun_busy = _running_sums(per_round)

        # Per channel: the slowest LUN's compute time, then each LUN's
        # output-buffer readout over the shared channel bus in turn.
        channel = lun // geometry.luns_per_channel
        cell = rnd * geometry.channels + channel
        order = np.argsort(cell, kind="stable")
        cell = cell[order]
        slot = np.arange(cell.size) - np.searchsorted(cell, cell)
        per_channel = np.zeros(
            (2, n_rounds, geometry.channels, int(slot.max(initial=-1)) + 1)
        )
        per_channel[:, rnd[order], channel[order], slot] = (
            lun_time[order],
            readout_bytes[order] / timing.channel_bus_bw + 0.5e-6,
        )
        compute = per_channel[0].max(axis=-1, initial=0.0)
        t_search = (compute + _running_sums(per_channel[1])).max(axis=1, initial=0.0)
        # Critical-path attribution: the slowest channel's compute time
        # counts as NAND read, the remainder as channel-bus readout.
        return t_search, compute.max(axis=1, initial=0.0), lun_busy

    def _prefetch_rounds(
        self,
        compiled: list[_CompiledTrace],
        n_rounds: int,
        n_spec: np.ndarray,
        counters: Counters,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-round NAND and MAC busy time of the speculative prefetches.

        Cross-query pooling: a page two queries prefetch in a round is
        sensed once, so each round's loads come from the union of its
        prefetch keys.  The prefetches overlap the next round's
        scheduling window, so they add busy time but no latency.
        """
        timing = self.config.timing
        pooled = _distinct(np.concatenate([c.spec_keys for c in compiled]))
        rounds, _, loads, merged = self._group_loads_merges(pooled, self._key_space)
        if rounds.size:
            n_loads = int(loads.sum())
            counters["speculative_page_reads"] += n_loads
            counters["page_reads"] += n_loads
            counters["ecc_hard_decodes"] += n_loads
        effective = loads - merged if self.config.flags.multiplane else loads
        nand = np.zeros(n_rounds)
        nand[rounds] = effective * timing.read_page_s
        return nand, n_spec * timing.distance_mac_s(self.dim)
