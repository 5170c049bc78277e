"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure from the paper's evaluation
section, prints the same rows/series the paper reports, and saves them under
``benchmarks/results/`` so the numbers survive pytest's output capture.
Assertions check the paper's *shape* (who wins, by roughly what factor),
never absolute numbers — the substrate is a simulator, not the authors'
testbed.

``BENCH_*.json`` convention
---------------------------
Host-performance benchmarks (wall-clock measurements of this repo's own hot
paths, as opposed to simulated-hardware figures) additionally persist a
machine-readable record via :func:`save_bench_json`: one
``benchmarks/results/BENCH_<name>.json`` file per benchmark, containing at
least ``{"benchmark": <name>, "configs": [...], "speedup": <headline>}``.
These files are the repo's performance trajectory — each perf-focused PR
re-runs them so regressions in the fused hot paths are visible as numbers,
not vibes.  CI smoke-runs them with tiny configs to catch breakage early
(see ``bench_fused_coverage.py --smoke``).
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, Iterable, Sequence

from repro.utils import format_table

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS_DIR = os.path.join(HERE, "results")
# Benchmarks that hold production to a test oracle import it as the tests
# do, ``oracles.<name>`` from ``tests/``.
sys.path.append(os.path.join(HERE, os.pardir, "tests"))


def report(name: str, headers: Sequence[str], rows: Iterable[Sequence[Any]],
           title: str = "", notes: str = "") -> str:
    """Print and persist one table of benchmark output."""
    table = format_table(headers, rows, title=title)
    text = table if not notes else table + "\n" + notes
    print("\n" + text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as fh:
        fh.write(text + "\n")
    return text


def save_series(name: str, header: str, lines: Iterable[str]) -> None:
    """Persist a free-form series dump (convergence curves, CDFs)."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


def save_bench_json(name: str, payload: Dict[str, Any]) -> str:
    """Persist a machine-readable ``BENCH_<name>.json`` perf record.

    See the module docstring for the convention.  Returns the path written.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"BENCH_{name}.json")
    with open(path, "w") as fh:
        json.dump({"benchmark": name, **payload}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
