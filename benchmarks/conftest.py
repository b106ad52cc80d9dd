"""Shared fixtures for the figure/table regeneration harness.

Every bench module regenerates one of the paper's evaluation artifacts:
it prints the rows/series the paper reports (and saves them under
``benchmarks/results/``), and times a representative kernel with
pytest-benchmark so the harness doubles as a performance regression suite.

Run everything with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import pytest

from repro.crc import ETHERNET_CRC32
from repro.dream import DreamSystem
from repro.mapping import map_crc
from repro.telemetry import BenchReport

RESULTS_DIR = Path(__file__).parent / "results"

#: Override the trajectory snapshot index (defaults to the PR number
#: inferred from CHANGES.md).
BENCH_INDEX_ENV = "REPRO_BENCH_INDEX"


def _bench_index(repo_root: Path) -> int:
    """This PR's position in the stack, for naming ``BENCH_<n>.json``."""
    override = os.environ.get(BENCH_INDEX_ENV)
    if override:
        return int(override)
    changes = repo_root / "CHANGES.md"
    if changes.exists():
        entries = [
            line
            for line in changes.read_text().splitlines()
            if line.lstrip().startswith(("-", "*"))
        ]
        if entries:
            return len(entries)
    return 0


def write_trajectory_snapshot(results_dir: Path) -> Path:
    """Fold every ``results/*.json`` report into ``BENCH_<n>.json``.

    The snapshot lives at the repo top level, one file per PR, so the
    stack accumulates a diffable throughput trajectory: which kernels
    existed at PR *n* and what each one measured.  Re-running the
    benches for the same PR overwrites that PR's snapshot in place.
    Each kernel keeps its report's ``created_unix``, so a report whose
    module did not run since the last snapshot shows as carried forward
    (``tools/bench_diff.py``), not as re-measured.
    """
    repo_root = results_dir.parent.parent
    index = _bench_index(repo_root)
    kernels = {}
    for path in sorted(results_dir.glob("*.json")):
        try:
            report = BenchReport.load(path)
        except (ValueError, KeyError, json.JSONDecodeError):
            continue  # foreign or older-schema file: not part of the trajectory
        kernels[report.name] = {
            "title": report.title,
            "params": report.params,
            "metrics": report.metrics,
            "created_unix": json.loads(path.read_text()).get("created_unix"),
        }
    snapshot = {
        "schema": "repro-bench-trajectory/1",
        "pr": index,
        "kernels": kernels,
    }
    path = repo_root / f"BENCH_{index}.json"
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    return path


@pytest.fixture(scope="session")
def previous_snapshot() -> dict:
    """The latest ``BENCH_<n>.json`` before this PR's own, or ``{}``: the
    snapshot ``tools/bench_diff.py`` compares this PR's reports with."""
    repo_root = RESULTS_DIR.parent.parent
    index = _bench_index(repo_root)
    earlier = []
    for path in repo_root.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match and int(match.group(1)) < index:
            earlier.append((int(match.group(1)), path))
    return json.loads(max(earlier)[1].read_text()) if earlier else {}


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def save_result(results_dir):
    """Persist one artifact's text under benchmarks/results/<name>.txt."""

    def _save(name: str, text: str) -> None:
        (results_dir / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}")

    return _save


@pytest.fixture(scope="session")
def save_report(results_dir):
    """Persist one artifact's structured twin: benchmarks/results/<name>.json.

    Machine-readable (schema ``repro-bench/1``) so the perf trajectory is
    diffable run over run; the human-readable table still goes through
    ``save_result``.
    """

    def _save(report: BenchReport) -> Path:
        path = report.write(results_dir)
        snapshot = write_trajectory_snapshot(results_dir)
        print(f"\n[bench-report] {path.name} -> {snapshot.name}")
        return path

    return _save


@pytest.fixture(scope="session")
def system() -> DreamSystem:
    return DreamSystem()


@pytest.fixture(scope="session")
def crc_mappings():
    """The paper's DREAM design points, compiled once per session."""
    return {M: map_crc(ETHERNET_CRC32, M) for M in (8, 16, 32, 64, 128)}
