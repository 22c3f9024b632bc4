"""Span tracing for the traced run, from the benchmark's own files.

:class:`SpanRecorder` wraps the public entry point of each layer (it
replaces the class attribute with a timing wrapper and puts the
original back on :meth:`uninstall`); nothing under ``src/`` changes.
Each wrapped call while the recorder is enabled becomes one span —
name, start, end, parent span, group id (the batch- or request-level
span it belongs to) and a few counts read from its arguments and
result.  Spans stay in memory; :meth:`chrome_trace` writes them as
Chrome trace-event JSON that Perfetto loads.

A layer's self time is the time its spans cover minus the time their
direct child spans cover, so the self times of all layers add up to no
more than the traced wall time.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

from repro.ann import HNSWIndex
from repro.core.ndsearch import NDSearch
from repro.core.searssd import SearSSDModel
from repro.flash.ecc import LDPCModel
from repro.platform.adapters import BaselinePlatform
from repro.serving import ServingFrontend, ServingTwin
from repro.serving.backends import PlatformBackend
from repro.serving.rebalance import Rebalancer
from repro.serving.storage import FlashBackedStore
from repro.serving.twin import TwinCache
from repro.sim.events import EventLoop

# Span record fields (plain lists keep the per-call cost low).
NAME, START, END, PARENT, GROUP, INFO = range(6)


def _queries(args, kwargs, result):
    return {"queries": len(args[1])}


def _ann_search(args, kwargs, result):
    return {
        "queries": len(args[1]),
        "visited": sum(t.trace_length for t in result[2]),
    }


def _price(args, kwargs, result):
    return {"traces": args[1], "result": result}


def _decode(args, kwargs, result):
    return {"pages": int(args[1])}


def _refresh(args, kwargs, result):
    return {"refreshes": len(args[1]), "pause_s": float(result)}


def _program(args, kwargs, result):
    return {"pages": int(result)}


def _events(args, kwargs, result):
    return {"events": int(result)}


def _lookup(args, kwargs, result):
    return {"hit": result is not None}


#: (span name, owner class, attribute, info extractor).  The layer of a
#: span is its name up to the first dot.
ENTRY_POINTS = (
    ("ann.build", HNSWIndex, "__init__", None),
    ("ann.search", HNSWIndex, "search_batch", _ann_search),
    ("backend.search", PlatformBackend, "search_batch", _queries),
    ("core.price", NDSearch, "simulate_traces", _price),
    ("core.run_batch", SearSSDModel, "run_batch", None),
    ("baseline.price", BaselinePlatform, "simulate", None),
    ("flash.decode", LDPCModel, "decode_pages", _decode),
    ("storage.read", FlashBackedStore, "record_reads", None),
    ("storage.refresh", FlashBackedStore, "perform_refreshes", _refresh),
    ("storage.program", FlashBackedStore, "program_cluster", _program),
    ("rebalance.decide", Rebalancer, "decide", None),
    ("serving.loop", EventLoop, "run", _events),
    ("snapshot.capture", ServingFrontend, "snapshot", None),
    ("snapshot.restore", ServingFrontend, "restore", None),
    ("twin.whatif", ServingTwin, "whatif", None),
    ("twin.lookup", TwinCache, "lookup", _lookup),
)

#: Spans that start their own group: one served batch, one what-if.
#: Every other span joins its parent's group; a top-level span (a
#: benchmark unit, an index build) starts one.
GROUP_ROOTS = frozenset({"backend.search", "twin.whatif"})


class SpanRecorder:
    """In-memory spans around the wrapped entry points."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self._stack: list[int] = []
        self._originals: list[tuple[type, str, object]] = []
        self._groups = 0

    def install(self) -> "SpanRecorder":
        for name, owner, attr, info in ENTRY_POINTS:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, info))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        if parent < 0 or name in GROUP_ROOTS:
            self._groups += 1
            group = self._groups
        else:
            group = self.spans[parent][GROUP]
        span = [name, 0.0, 0.0, parent, group, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        if not self.enabled:
            yield
            return
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name, original, info):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        return wrapper

    # ---- reductions ------------------------------------------------------
    def self_times(self, first: int = 0) -> dict[str, float]:
        """Per-layer self seconds over spans ``first`` onwards."""
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        for span in spans:
            parent = span[PARENT] - first
            if parent >= 0:
                child_time[parent] += span[END] - span[START]
        out: dict[str, float] = {}
        for span, children in zip(spans, child_time):
            layer = layer_of(span[NAME])
            out[layer] = out.get(layer, 0.0) + (span[END] - span[START]) - children
        return out

    def chrome_trace(self, path: str) -> None:
        """Write the spans as Chrome trace-event JSON (Perfetto loads it)."""
        origin = self.spans[0][START] if self.spans else 0.0
        events = []
        for index, span in enumerate(self.spans):
            events.append({
                "name": span[NAME],
                "cat": layer_of(span[NAME]),
                "ph": "X",
                "ts": (span[START] - origin) * 1e6,
                "dur": (span[END] - span[START]) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"span": index, "parent": span[PARENT], "group": span[GROUP]},
            })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def _pct_ms(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def layer_metrics(recorder: SpanRecorder, first: int = 0) -> dict[str, float]:
    """The per-layer metrics from spans ``first`` onwards.

    Host seconds come from span durations; the simulated counters come
    from the :class:`~repro.sim.stats.SimResult` each pricing call
    returned.  A layer the workload never reached reports zeros.
    """
    spans = recorder.spans[first:]
    by_name: dict[str, list[list]] = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)

    def total(name: str) -> float:
        return sum(s[END] - s[START] for s in by_name.get(name, ()))

    def summed(name: str, key: str) -> float:
        return float(sum(s[INFO][key] for s in by_name.get(name, ()) if s[INFO]))

    out: dict[str, float] = {}
    # repro.ann
    ann_queries = summed("ann.search", "queries")
    backend_queries = summed("backend.search", "queries")
    out["ann.build_s"] = total("ann.build")
    out["ann.search_s"] = total("ann.search")
    out["ann.queries"] = ann_queries
    out["ann.us_per_query"] = (
        out["ann.search_s"] / ann_queries * 1e6 if ann_queries else 0.0
    )
    out["ann.visited_per_query"] = (
        summed("ann.search", "visited") / ann_queries if ann_queries else 0.0
    )
    # Queries answered from the serving backend's per-query memo.  Only
    # index searches made on the backend's behalf count against it.
    backend_ann = sum(
        s[INFO]["queries"] for s in by_name.get("ann.search", ())
        if s[PARENT] >= 0 and recorder.spans[s[PARENT]][NAME] == "backend.search"
    )
    out["ann.memo_hit_ratio"] = (
        1.0 - backend_ann / backend_queries if backend_queries else 0.0
    )
    # repro.core via repro.platform
    prices = by_name.get("core.price", [])
    price_ms = [(s[END] - s[START]) for s in prices]
    priced_queries = sum(len(s[INFO]["traces"]) for s in prices)
    out["core.price_s"] = sum(price_ms)
    out["core.batches"] = float(len(prices))
    out["core.price_ms.p50"] = _pct_ms(price_ms, 50)
    out["core.price_ms.p99"] = _pct_ms(price_ms, 99)
    out["core.us_per_query"] = (
        out["core.price_s"] / priced_queries * 1e6 if priced_queries else 0.0
    )
    # Ordered trace identities seen before.  The spans pin every trace,
    # so an id cannot be recycled onto another trace while they live.
    seen: set[tuple] = set()
    repeats = 0
    for s in prices:
        key = tuple(id(t) for t in s[INFO]["traces"])
        repeats += key in seen
        seen.add(key)
    out["core.repeat_batch_ratio"] = repeats / len(prices) if prices else 0.0
    results = [s[INFO]["result"] for s in prices]
    page_reads = sum(r.counters.get("page_reads", 0) for r in results)
    spec_reads = sum(r.counters.get("speculative_page_reads", 0) for r in results)
    out["core.page_reads"] = float(page_reads)
    out["core.rounds"] = float(
        sum(1 for r in results for seg in r.timeline if seg.stage == "search")
    )
    out["core.spec_hit_ratio"] = (
        sum(r.counters.get("speculative_hits", 0) for r in results) / spec_reads
        if spec_reads else 0.0
    )
    out["core.multiplane_share"] = (
        sum(r.counters.get("multiplane_reads", 0) for r in results) / page_reads
        if page_reads else 0.0
    )
    out["core.nand_busy_s"] = float(
        sum(r.component_busy_s.get("nand_busy", 0.0) for r in results)
    )
    out["baseline.price_s"] = total("baseline.price")
    # repro.flash
    out["flash.decode_calls"] = float(len(by_name.get("flash.decode", ())))
    out["flash.decode_pages"] = summed("flash.decode", "pages")
    out["flash.decode_s"] = total("flash.decode")
    # repro.serving.storage
    out["storage.read_s"] = total("storage.read")
    out["storage.refreshes"] = summed("storage.refresh", "refreshes")
    out["storage.refresh_s"] = total("storage.refresh")
    out["storage.program_pages"] = summed("storage.program", "pages")
    out["storage.gc_pause_ms"] = summed("storage.refresh", "pause_s") * 1e3
    # repro.serving.rebalance
    out["rebalance.decide_s"] = total("rebalance.decide")
    # repro.serving frontend + repro.sim.events
    selfs = recorder.self_times(first)
    out["serving.self_s"] = selfs.get("serving", 0.0)
    # repro.sim.snapshot / repro.serving.twin
    captures = [s[END] - s[START] for s in by_name.get("snapshot.capture", ())]
    restores = [s[END] - s[START] for s in by_name.get("snapshot.restore", ())]
    out["snapshot.captures"] = float(len(captures))
    out["snapshot.capture_ms.p50"] = _pct_ms(captures, 50)
    out["snapshot.capture_ms.p99"] = _pct_ms(captures, 99)
    out["snapshot.restore_ms.p50"] = _pct_ms(restores, 50)
    lookups = by_name.get("twin.lookup", [])
    out["twin.cache_hit_ratio"] = (
        sum(1 for s in lookups if s[INFO]["hit"]) / len(lookups) if lookups else 0.0
    )
    for layer in ("ann", "backend", "core", "baseline", "flash", "storage",
                  "rebalance", "snapshot", "twin"):
        out[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    return out


def loop_events(recorder: SpanRecorder, first: int = 0) -> tuple[float, int, float]:
    """Event-loop work from spans ``first`` onwards: (events dispatched
    under cold what-ifs, cold what-if count, events dispatched in all)."""
    spans = recorder.spans
    replayed = looped = 0.0
    cold = 0
    for index in range(first, len(spans)):
        span = spans[index]
        if span[NAME] == "serving.loop":
            looped += span[INFO]["events"]
            ancestor = span[PARENT]
            while ancestor >= 0 and spans[ancestor][NAME] != "twin.whatif":
                ancestor = spans[ancestor][PARENT]
            if ancestor >= 0:
                replayed += span[INFO]["events"]
        elif span[NAME] == "twin.lookup" and not span[INFO]["hit"]:
            cold += 1
    return replayed, cold, looped
