#!/usr/bin/env python3
"""Repeat the benchmark over seeds, measure its spread, compare two sets.

Run from the repository root::

    # one run per seed, one after another; appends result lines to OUT
    python3 perfbench/compare.py runs --workload serve-ladder --seeds 1-10 --out a.jsonl

    # per metric: median, quartiles, spread = (Q3 - Q1) / median vs bound
    python3 perfbench/compare.py spread a.jsonl

    # candidate against baseline: a metric regresses when its median is
    # worse than the baseline median by more than its bound
    python3 perfbench/compare.py compare a.jsonl b.jsonl

Bounds and the direction of "better" come from ``BENCHMARK.json``.
``compare`` exits 1 when any metric regresses.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def end_to_end() -> dict[str, dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m for m in spec["end_to_end"]}


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """One benchmark run; returns its JSON result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load(path: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, from a ``runs`` output file."""
    out: dict[str, dict[str, list[float]]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            metrics = out.setdefault(row["workload"], {})
            for name, metric in row["result"]["metrics"].items():
                metrics.setdefault(name, []).append(metric["value"])
    return out


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def worsening(base: list[float], cand: list[float], better: str) -> float:
    """How much worse the candidate median is, as a share of the base's."""
    b, c = statistics.median(base), statistics.median(cand)
    change = (c - b) / abs(b) if b else 0.0
    return change if better == "lower" else -change


def regressions(base: dict, cand: dict, spec: dict[str, dict]) -> list[str]:
    """Metrics whose candidate median is worse than the base by more
    than the metric's bound."""
    out = []
    for workload, metrics in sorted(cand.items()):
        for name, values in sorted(metrics.items()):
            if name not in spec or name not in base.get(workload, {}):
                continue
            worse = worsening(base[workload][name], values, spec[name]["better"])
            if worse > spec[name]["bound"]:
                out.append(
                    f"{workload} {name}: {worse:+.1%} worse "
                    f"(bound {spec[name]['bound']:.0%})"
                )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/compare.py")
    sub = parser.add_subparsers(dest="command", required=True)
    runs = sub.add_parser("runs", help="run the benchmark once per seed")
    runs.add_argument("--workload", required=True)
    runs.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,7")
    runs.add_argument("--seconds", type=int, default=None)
    runs.add_argument("--out", required=True)
    show = sub.add_parser("spread", help="median and spread per metric")
    show.add_argument("results")
    cmp_ = sub.add_parser("compare", help="candidate against baseline")
    cmp_.add_argument("base")
    cmp_.add_argument("cand")
    args = parser.parse_args(argv)
    spec = end_to_end()

    if args.command == "runs":
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            seconds = args.seconds or json.load(handle)["run_seconds"]
        for seed in parse_seeds(args.seeds):
            result = run_once(args.workload, seed, seconds)
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(
                    {"workload": args.workload, "seed": seed, "result": result}
                ) + "\n")
            print(f"{args.workload} seed {seed}: correct={result['correct']}")
        return 0
    if args.command == "spread":
        worst = 0
        for workload, metrics in sorted(load(args.results).items()):
            for name, values in metrics.items():
                bound = spec[name]["bound"]
                s = spread(values) if len(values) > 1 else 0.0
                flag = "" if s <= bound / 3 else (" > bound/3" if s <= bound else " > BOUND")
                if name != "setup_s" and s > bound:
                    worst = 1
                print(
                    f"{workload:<14} {name:<14} n={len(values):<3} "
                    f"median {statistics.median(values):<14.6g} "
                    f"spread {s:7.2%}  bound {bound:.0%}{flag}"
                )
        return worst
    found = regressions(load(args.base), load(args.cand), spec)
    for line in found:
        print(f"REGRESSION {line}")
    if not found:
        print("no metric worse than its bound")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
