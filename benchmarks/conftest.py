"""Benchmark harness support.

Every benchmark regenerates one of the paper's tables or figures: it
runs the matching :mod:`repro.experiments` driver under
pytest-benchmark (one round — these are end-to-end experiment drivers,
not microbenchmarks), prints the series the paper reports, writes the
table to ``benchmarks/results/`` and asserts the reproduction's
acceptance criteria (the relative shapes from DESIGN.md).

Run with ``pytest benchmarks/ --benchmark-only`` (add ``-s`` to see the
tables inline).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def pytest_addoption(parser):
    """Opt-in sweep sections for the serving benchmark.

    ``--slo`` adds the deadline sweep (slo policy vs max-wait across
    loosening deadlines), ``--autoscale`` the static-vs-autoscaled
    overload comparison, ``--rebalance`` the static-vs-rebalanced
    partitioned comparison under skewed Zipfian load and ``--flash``
    the ideal-vs-stateful-flash comparison (live FTL + ECC under every
    device) to ``bench_serving``; all extend
    ``results/serving_sweep.json``.  CI runs with every flag so the
    uploaded artifact carries the full sweep.
    """
    parser.addoption(
        "--slo", action="store_true", default=False,
        help="include the SLO deadline sweep in bench_serving",
    )
    parser.addoption(
        "--autoscale", action="store_true", default=False,
        help="include the static-vs-autoscaled sweep in bench_serving",
    )
    parser.addoption(
        "--rebalance", action="store_true", default=False,
        help="include the static-vs-rebalanced partitioned sweep "
             "in bench_serving",
    )
    parser.addoption(
        "--flash", action="store_true", default=False,
        help="include the ideal-vs-stateful-flash sweep in "
             "bench_serving",
    )


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def record_table(results_dir):
    """Print a driver's table and persist it under results/."""

    def _record(name: str, table: str) -> None:
        print("\n" + table)
        (results_dir / f"{name}.txt").write_text(table + "\n")

    return _record


@pytest.fixture()
def record_json(results_dir):
    """Persist machine-readable results under results/<name>.json.

    The human-readable ``.txt`` tables are for eyeballs; these JSON
    files are the ones to diff across commits.
    """

    def _record(name: str, payload) -> None:
        path = results_dir / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    return _record
