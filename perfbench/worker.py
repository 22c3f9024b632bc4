"""Run one workload in this process and print its metrics.

Started by ``perfbench/run.py``, which pins BLAS to one thread and puts
``src`` on the path.  With ``--trace 0`` it sets up ``SETUP_REPS``
times, runs one untimed warm-up unit, then timed units until
``--seconds`` have passed (and at least the workload's fixed units),
and prints the end-to-end metrics.  With ``--trace 1`` it sets up once
under spans, runs the warm-up, then each fixed unit three times — to
warm it, traced, and untraced — and prints the per-layer metrics and
``trace.overhead_frac``.

Simulated metrics and the ``digest`` line come from the fixed units
only, so they repeat exactly for a seed on any host.  Metric names and
units come from ``BENCHMARK.json``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A failed check sets ``correct`` to false and the exit
code to 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from perfbench.reference import Scaler
from perfbench.workloads import WORKLOADS, Unit, Workload

SETUP_REPS = 3
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"


def spec() -> dict:
    """``BENCHMARK.json``: the metric names and units a run prints."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def digest(units: list[Unit]) -> str:
    """sha256 over the fixed units' simulated results."""
    payload = [
        {key: value for key, value in u.sim.items() if not key.startswith("_")}
        for u in units
    ]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_plain(workload: Workload, seed: int, seconds: float) -> dict:
    """The untraced run: end-to-end metrics."""
    scaler = Scaler()
    setups, raw_setups = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        workload.setup(seed)
        raw_setups.append(time.perf_counter() - t0)
        setups.append(scaler.scale(raw_setups[-1]))
    workload.run_unit(-1)
    units: list[Unit] = []
    scaled: list[float] = []
    scaler.mark()
    start = time.perf_counter()
    while len(units) < workload.fixed_units or time.perf_counter() - start < seconds:
        units.append(workload.run_unit(len(units)))
        scaled.append(scaler.scale(units[-1].wall_s))
        if len(units) == workload.fixed_units:
            # Memory through a fixed amount of work: later units depend
            # on host speed, and the program's caches grow with them.
            rss = peak_rss_mb()
    fixed = units[: workload.fixed_units]
    e2e, extra, layer = workload.summarize(fixed)
    metrics = {
        "setup_s": statistics.median(setups),
        "host_qps": statistics.median(u.work / s for u, s in zip(units, scaled)),
        "peak_rss_mb": rss,
        **e2e,
    }
    whatif = [ms for u in units for ms in u.whatif_ms]
    if whatif:
        # Raw host ms: the what-ifs are timed inside a unit.
        extra["whatif_ms.p50"] = (statistics.median(whatif), "ms")
        extra["whatif_ms.samples"] = (float(len(whatif)), "count")
    extra["host_qps.raw"] = (statistics.median(u.work / u.wall_s for u in units), "1/s")
    extra["setup_s.raw"] = (statistics.median(raw_setups), "s")
    extra["host_units"] = (float(len(units)), "count")
    return {
        "units": units,
        "fixed": fixed,
        "values": metrics,
        "extra": extra,
        "layer_sim": layer,
        "scaled": scaled,
        "setups": setups,
        "problems": [],
    }


def run_traced(workload: Workload, seed: int) -> dict:
    """The traced run: per-layer metrics from spans over the fixed units."""
    from perfbench.spans import SpanRecorder, layer_metrics, loop_events

    recorder = SpanRecorder().install()
    try:
        recorder.enabled = True
        workload.setup(seed)
        recorder.enabled = False
        build = layer_metrics(recorder)["ann.build_s"]
        workload.run_unit(-1)
        first = len(recorder.spans)
        plain: list[Unit] = []
        traced: list[Unit] = []
        scaled = {"plain": 0.0, "traced": 0.0}
        scaler = Scaler()
        for i in range(workload.fixed_units):
            # A first pass warms what unit i touches first, so the traced
            # and the untraced pass both time warm caches.
            workload.run_unit(i)
            scaler.mark()
            recorder.enabled = True
            with recorder.span("bench.unit"):
                traced.append(workload.run_unit(i))
            recorder.enabled = False
            scaled["traced"] += scaler.scale(traced[-1].wall_s)
            plain.append(workload.run_unit(i))
            scaled["plain"] += scaler.scale(plain[-1].wall_s)
        layer = layer_metrics(recorder, first)
        layer["ann.build_s"] = build
        _, _, layer_sim = workload.summarize(traced)
        layer.update(layer_sim)
        replayed, cold, looped = loop_events(recorder, first)
        layer["serving.ns_per_event"] = (
            layer["serving.self_s"] / looped * 1e9 if looped else 0.0
        )
        # A from-scratch run of a twin stream dispatches its base events.
        scratch_events = layer.get("sim.events", 0.0) / len(traced)
        layer["twin.replay_ratio"] = (
            replayed / (cold * scratch_events) if cold and scratch_events else 0.0
        )
        layer["trace.wall_s"] = sum(
            s[2] - s[1] for s in recorder.spans[first:] if s[0] == "bench.unit"
        )
        layer["trace.self_sum_s"] = sum(recorder.self_times(first).values())
        layer["trace.spans"] = float(len(recorder.spans))
        layer["trace.overhead_frac"] = scaled["traced"] / scaled["plain"] - 1.0
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
        recorder.chrome_trace(str(trace_path))
    finally:
        recorder.uninstall()
    problems = []
    if digest(plain) != digest(traced):
        problems.append("traced units simulated differently from untraced ones")
    return {
        "units": plain + traced,
        "fixed": traced,
        "values": layer,
        "extra": {},
        "problems": problems,
        "trace_path": trace_path,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]()
    contract = spec()
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}"
    )
    if args.trace:
        out = run_traced(workload, args.seed)
        listed = contract["per_layer"]
        print(f"  trace: {out['trace_path'].relative_to(ROOT)}")
    else:
        out = run_plain(workload, args.seed, args.seconds)
        listed = contract["end_to_end"]
    values = out["values"]
    unlisted = sorted(set(values) - {m["name"] for m in listed})
    if unlisted:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unlisted}")
    # A layer the workload never reaches reports 0.
    metrics = {m["name"]: (values.get(m["name"], 0.0), m["unit"]) for m in listed}
    problems = [p for u in out["units"] for p in u.problems] + out["problems"]
    problems += workload.validity(out["fixed"])
    attempted = sum(u.offered for u in out["units"])
    failed = sum(u.failed for u in out["units"])
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {unit}")
    for name, (value, unit) in out["extra"].items():
        print(f"  {name:<32} {value:>16.6g} {unit}   (workload metric, not gated)")
    if not args.trace:
        units = {m["name"]: m["unit"] for m in contract["per_layer"]}
        for name, value in sorted(out["layer_sim"].items()):
            print(f"  {name:<32} {value:>16.6g} {units[name]}   (simulated)")
    if not args.trace:
        rates = " ".join(
            f"{u.work / s:.5g}" for u, s in zip(out["units"], out["scaled"])
        )
        print(f"  host_qps per unit: {rates}")
        setups = " ".join(f"{s:.4g}" for s in out["setups"])
        print(f"  setup_s per set-up: {setups}")
    print(f"  failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"digest sha256:{digest(out['fixed'])}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
