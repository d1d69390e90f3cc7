"""Shared configuration of the benchmark harness.

Every benchmark prints the rows / series the paper reports and asserts the
qualitative shape (who wins, by roughly what factor) rather than absolute
numbers: the substrate here is a vectorised NumPy simulation of the paper's
GPU kernels, so wall-clock values differ but the comparisons should not.

Environment knobs (all optional):

``REPRO_BENCH_CASES``
    Comma-separated case list for the cold-start table
    (default ``case9,pegase118_like``).
``REPRO_BENCH_TRACKING_CASE``
    Case used for the warm-start tracking figures (default ``case9``).
``REPRO_BENCH_PERIODS``
    Number of tracking periods (default 12; the paper uses 30).
``REPRO_BENCH_SMOKE``
    ``1`` switches the throughput benchmarks to reduced iteration budgets
    (the CI benchmark-smoke job); assertions that need full budgets relax.
"""

from __future__ import annotations

import json
import os
import subprocess
from pathlib import Path

import pytest

from repro.analysis.experiments import (
    bench_cases,
    bench_tracking_case,
    bench_tracking_periods,
    table2,
    tracking_experiment,
)
from repro.parallel.backends import default_backend_name


def smoke_mode() -> bool:
    """Whether the reduced-size benchmark mode is requested (CI smoke job)."""
    return os.environ.get("REPRO_BENCH_SMOKE", "").strip().lower() in ("1", "true", "yes")


def repo_git_sha() -> str:
    """The repo's HEAD commit, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent.parent,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def write_bench_json(path: Path, payload: dict, workers: int = 1) -> Path:
    """Atomically write one ``BENCH_*.json`` artifact, stamped for provenance.

    The payload is written to a same-directory temp file and ``os.replace``d
    into place, so concurrent pool runs / CI artifact uploads can never
    observe a partially written file; it is stamped with the git SHA, the
    worker count that produced it, the smoke-mode flag, and the active
    kernel-backend name so artifacts are attributable after the fact (and
    the regression gate never compares measurements across backends).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = dict(payload)
    payload.setdefault("git_sha", repo_git_sha())
    payload.setdefault("worker_count", int(workers))
    payload.setdefault("smoke_mode", smoke_mode())
    payload.setdefault("backend", default_backend_name())
    text = json.dumps(payload, indent=2) + "\n"
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def merge_bench_json(path: Path, payload: dict, workers: int = 1) -> Path:
    """Like :func:`write_bench_json`, but keep keys an earlier benchmark wrote.

    Several benchmarks contribute to one artifact (``BENCH_pool.json`` holds
    the throughput sweep *and* the fault-tolerance overhead), and pytest's
    collection order must not decide which contribution survives: the new
    payload is overlaid on whatever the file already holds, and only the
    provenance stamp is re-taken by the newest writer.
    """
    path = Path(path)
    existing: dict = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            existing = {}
    merged = {**existing, **payload}
    for stamp in ("git_sha", "worker_count", "smoke_mode", "backend"):
        merged.pop(stamp, None)
    return write_bench_json(path, merged, workers=workers)


@pytest.fixture(scope="session")
def bench_writer():
    """Fixture view of :func:`write_bench_json` for the benchmark tests."""
    return write_bench_json


@pytest.fixture(scope="session")
def bench_merger():
    """Fixture view of :func:`merge_bench_json` for shared artifacts."""
    return merge_bench_json


@pytest.fixture(scope="session")
def smoke() -> bool:
    """Fixture view of :func:`smoke_mode` for the benchmark tests."""
    return smoke_mode()


@pytest.fixture(scope="session")
def coldstart_rows():
    """Run the cold-start comparison once and share it across benchmarks."""
    return table2(bench_cases())


@pytest.fixture(scope="session")
def tracking_results():
    """Run the warm-start tracking experiment once (shared by Figures 1-3)."""
    return tracking_experiment(bench_tracking_case(),
                               n_periods=bench_tracking_periods())
