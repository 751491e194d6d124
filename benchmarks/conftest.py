"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper.  Besides being
timed by pytest-benchmark, each benchmark writes its result table to
``benchmarks/out/<name>.txt`` and its perf record to
``benchmarks/out/BENCH_<name>.json`` (a gitignored directory), so a run never
rewrites the committed baselines under ``benchmarks/results/``.  Those change
only through an explicit ``pytest benchmarks --update-baselines``, which
copies the files this run wrote over the committed ones when the session
ends.
"""

from __future__ import annotations

import shutil
import time

import pytest

from bench_utils import BASELINE_DIR, RESULTS_DIR

#: Wall-clock start of the session: files in ``RESULTS_DIR`` modified after
#: it were written by this run.
_STARTED = pytest.StashKey[float]()


def pytest_addoption(parser):
    parser.addoption("--update-baselines", action="store_true", default=False,
                     help="copy the records and tables this run writes to "
                          "benchmarks/out/ over the committed baselines in "
                          "benchmarks/results/")


def pytest_sessionstart(session):
    session.config.stash[_STARTED] = time.time()


def pytest_sessionfinish(session, exitstatus):
    if not session.config.getoption("--update-baselines") or not RESULTS_DIR.is_dir():
        return
    BASELINE_DIR.mkdir(parents=True, exist_ok=True)
    started = session.config.stash[_STARTED]
    for path in sorted(RESULTS_DIR.iterdir()):
        if path.is_file() and path.stat().st_mtime >= started:
            shutil.copy2(path, BASELINE_DIR / path.name)
            print(f"baseline updated: {BASELINE_DIR / path.name}")


@pytest.fixture
def save_result():
    """Persist a figure's text table under ``benchmarks/out/``."""

    def _save(name: str, table: str) -> None:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(table + "\n")
        print(f"\n{table}\n[saved to {path}]")

    return _save
