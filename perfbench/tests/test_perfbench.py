"""Tests of the benchmark itself, on small sizes.

Run from the repository root::

    PYTHONPATH=src:. python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import time

import numpy as np
import pytest

from perfbench import compare, worker
from perfbench.spans import layer_of
from perfbench.workloads import (
    OfflineFresh,
    ServeFlash,
    ServeLadder,
    TwinWhatif,
    latency_split,
    make_corpus,
)
from repro.core.searssd import SearSSDModel

SMALL = {"corpus": 200, "dim": 8}


def small(name: str):
    """A small instance of each workload."""
    if name == "offline-fresh":
        return OfflineFresh(batch=16, fixed_units=2, **SMALL)
    if name == "serve-ladder":
        return ServeLadder(n_over=120, n_knee=120, n_low=20, fixed_units=2,
                           pool=32, **SMALL)
    if name == "serve-flash":
        return ServeFlash(n=300, fixed_units=2, pool=32, disturb_threshold=40,
                          **SMALL)
    return TwinWhatif(n=120, fixed_units=1, pool=32, **SMALL)


NAMES = ("offline-fresh", "serve-ladder", "serve-flash", "twin-whatif")


@pytest.fixture(scope="module")
def contract():
    return worker.spec()


@pytest.fixture(scope="module")
def traced():
    return {name: worker.run_traced(small(name), seed=3) for name in NAMES}


def test_metric_names_are_well_formed(contract):
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in contract[key]]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in contract["workloads"]]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def test_every_computed_metric_is_listed(contract, traced):
    listed = {m["name"] for m in contract["per_layer"]}
    for name, out in traced.items():
        assert set(out["values"]) <= listed, name
    plain = worker.run_plain(small("serve-ladder"), seed=3, seconds=0)
    assert set(plain["values"]) == {m["name"] for m in contract["end_to_end"]}
    assert set(plain["layer_sim"]) <= listed


def test_latency_split_adds_up_to_latency():
    """batch_wait + queue + service is the latency: each part is a float
    difference of the request's own timestamps, so the sum differs from
    completion - arrival by float rounding only (a few ulps)."""
    workload = small("serve-ladder")
    workload.setup(5)
    served = 0
    for step, split in workload.run_unit(0).sim["_split"].items():
        total = split["batch_wait"] + split["queue"] + split["service"]
        for part in ("batch_wait", "queue", "service"):
            assert (split[part] >= 0).all(), (step, part)
        ulps = np.abs(total - split["latency"]) / np.spacing(split["latency"])
        assert ulps.max() <= 4, step
        served += split["latency"].size
    assert served == sum(workload.n.values())


def test_latency_split_skips_unserved_requests():
    from repro.serving import Request

    shed = Request(request_id=0, query_id=0, arrival_s=1.0, outcome="shed")
    assert latency_split([shed])["latency"].size == 0


def test_self_times_fit_in_wall_time(traced):
    for name, out in traced.items():
        layer = out["values"]
        selves = sum(v for k, v in layer.items() if k.endswith(".self_s"))
        assert 0.0 < selves <= layer["trace.wall_s"] * (1 + 1e-9), name
        assert layer["trace.self_sum_s"] == pytest.approx(layer["trace.wall_s"])


def test_traced_run_only_observes(traced):
    for name, out in traced.items():
        assert out["problems"] == [], name
        assert all(not u.problems for u in out["units"]), name


def test_layers_reached_by_their_workloads(traced):
    assert traced["offline-fresh"]["values"]["ann.queries"] > 0
    assert traced["offline-fresh"]["values"]["core.repeat_batch_ratio"] == 0.0
    assert traced["serve-ladder"]["values"]["ann.memo_hit_ratio"] == 1.0
    assert traced["serve-flash"]["values"]["storage.refreshes"] > 0
    assert traced["serve-flash"]["values"]["rebalance.migrations"] > 0
    assert traced["twin-whatif"]["values"]["snapshot.captures"] > 0
    assert traced["twin-whatif"]["values"]["twin.cache_hit_ratio"] == 0.5


def test_chrome_trace_loads(traced):
    path = traced["serve-flash"]["trace_path"]
    events = json.loads(path.read_text())["traceEvents"]
    assert events and {e["ph"] for e in events} == {"X"}
    assert {"name", "cat", "ts", "dur", "pid", "tid", "args"} <= set(events[0])
    assert {layer_of(e["name"]) for e in events} >= {"core", "storage", "serving"}


def test_second_seed_changes_inputs_keeps_names():
    assert not np.array_equal(make_corpus(1, 50, 4), make_corpus(2, 50, 4))
    runs = [worker.run_plain(small("serve-flash"), seed, 0) for seed in (1, 2)]
    assert set(runs[0]["values"]) == set(runs[1]["values"])
    assert worker.digest(runs[0]["fixed"]) != worker.digest(runs[1]["fixed"])


def test_same_seed_repeats_simulated_results():
    runs = [worker.run_plain(small("offline-fresh"), 4, 0) for _ in range(2)]
    assert worker.digest(runs[0]["fixed"]) == worker.digest(runs[1]["fixed"])
    for name in ("sim_qps", "sim_p99_ms", "recall_at_10"):
        assert runs[0]["values"][name] == runs[1]["values"][name]


def test_spread_and_worsening_arithmetic():
    assert compare.spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert compare.worsening([10.0], [8.0], "higher") == pytest.approx(0.2)
    assert compare.worsening([10.0], [8.0], "lower") == pytest.approx(-0.2)
    spec = {"host_qps": {"better": "higher", "bound": 0.2}}
    same = {"w": {"host_qps": [10.0, 11.0, 9.0]}}
    assert compare.regressions(same, same, spec) == []


def _host_qps(seeds) -> list[float]:
    return [
        worker.run_plain(small("offline-fresh"), seed, 0)["values"]["host_qps"]
        for seed in seeds
    ]


def test_comparison_flags_an_injected_slowdown(contract, monkeypatch):
    """A perf gate counts only if it can fail: a sleep in one wrapped
    layer must be flagged by the benchmark's own bound."""
    spec = {m["name"]: m for m in contract["end_to_end"]}
    seeds = (1, 2, 3)
    base = _host_qps(seeds)
    original = SearSSDModel.run_batch

    def slow_run_batch(self, *args, **kwargs):
        time.sleep(0.05)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SearSSDModel, "run_batch", slow_run_batch)
    cand = _host_qps(seeds)
    found = compare.regressions(
        {"offline-fresh": {"host_qps": base}},
        {"offline-fresh": {"host_qps": cand}},
        spec,
    )
    assert len(found) == 1 and "host_qps" in found[0]
