"""``benchmarks/ledger_record.py``: the committed-trajectory tool's logic.

The measuring half shells out to ``benchmarks/e2e/run.py`` (minutes); what
is tested here is everything around it, against result files written by
hand: the CI call-count gate (bound, version matching, report-only wall
time), row aggregation, and the parent -> change table.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "benchmarks")
VERSIONS = {"python": "3.11.7", "numpy": "2.4.6"}
WORKLOADS = ("train_fused", "serve_steady", "serve_overload", "cosched_chaos")


@pytest.fixture()
def ledger(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "ledger_record_under_test", os.path.join(BENCH_DIR, "ledger_record.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # A scratch "checkout": the real BENCHMARK.json, our own result files.
    root = tmp_path / "checkout"
    (root / "benchmarks" / "results" / "e2e").mkdir(parents=True)
    with open(os.path.join(module.ROOT, "BENCHMARK.json")) as fh:
        (root / "BENCHMARK.json").write_text(fh.read())
    monkeypatch.setattr(module, "ROOT", str(root))
    monkeypatch.setattr(module, "HISTORY", str(root / "BENCH_HISTORY.jsonl"))
    monkeypatch.setattr(module, "LATEST", str(root / "BENCH_e2e.json"))
    return module


def _result(workload, seed, calls, wall=0.3, versions=VERSIONS, failed=0):
    units = {"wall_s": "s", "py_calls_per_unit": "calls/unit", "setup_s": "s",
             "peak_rss_mb": "MB"}
    values = {"wall_s": wall, "py_calls_per_unit": calls, "setup_s": 0.27,
              "peak_rss_mb": 45.0}
    return {
        "workload": workload, "seed": seed, "failed": failed, "errors": [],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "extras": {"rep_s": [wall] * 30, "report_sha256": f"sha-{workload}-{seed}",
                   "cal_ref_s": 0.2, "versions": versions},
    }


def _write_results(module, calls, seed=0, **kwargs):
    for workload in WORKLOADS:
        path = os.path.join(module.ROOT, "benchmarks", "results", "e2e",
                            f"result-{workload}-seed{seed}-trace0.json")
        with open(path, "w") as fh:
            json.dump(_result(workload, seed, calls[workload], **kwargs), fh)


def _commit_row(module, calls):
    rows = {w: module._row(module.ROOT, "committed", w, [0],
                           [_result(w, 0, calls[w])]) for w in WORKLOADS}
    with open(module.LATEST, "w") as fh:
        json.dump(rows, fh)


BASE = {"train_fused": 23.291, "serve_steady": 80.0, "serve_overload": 31.0,
        "cosched_chaos": 190.0}


class TestCheck:
    def test_equal_and_lower_counts_pass(self, ledger, capsys):
        _commit_row(ledger, BASE)
        _write_results(ledger, {**BASE, "cosched_chaos": 150.0})
        assert ledger.check(0) == 0
        out = capsys.readouterr().out
        assert out.count(" ok") == 4 and "OVER" not in out
        assert "wall_s" in out and "[report only]" in out

    def test_a_count_inside_the_bound_passes_and_outside_fails(self, ledger,
                                                               capsys):
        _commit_row(ledger, BASE)
        _write_results(ledger, {**BASE, "serve_steady": 80.0 * 1.0049})
        assert ledger.check(0) == 0
        _write_results(ledger, {**BASE, "serve_steady": 80.0 * 1.0051})
        capsys.readouterr()
        assert ledger.check(0) == 1
        assert "serve_steady" in [line.split(":")[0] for line in
                                  capsys.readouterr().out.splitlines()
                                  if "OVER" in line]

    def test_slower_wall_time_alone_never_fails(self, ledger):
        _commit_row(ledger, BASE)
        _write_results(ledger, BASE, wall=3.0)
        assert ledger.check(0) == 0

    def test_patch_releases_of_python_and_numpy_are_still_gated(self, ledger):
        # setup-python "3.11" installs the newest 3.11.x: the gate must fire.
        _commit_row(ledger, BASE)
        other_patch = {"python": "3.11.13", "numpy": "2.4.9"}
        _write_results(ledger, BASE, versions=other_patch)
        assert ledger.check(0) == 0
        _write_results(ledger, {**BASE, "serve_steady": 99.0},
                       versions=other_patch)
        assert ledger.check(0) == 1

    @pytest.mark.parametrize("versions", [
        {"python": "3.12.1", "numpy": "2.4.6"},
        {"python": "3.11.7", "numpy": "2.5.0"},
    ])
    def test_a_run_that_gated_nothing_is_not_a_pass(self, ledger, capsys,
                                                    versions):
        _commit_row(ledger, BASE)
        _write_results(ledger, {**BASE, "serve_steady": 99.0},
                       versions=versions)
        assert ledger.check(0) == 2
        out = capsys.readouterr().out
        assert "OVER [report only: versions differ" in out
        assert "no workload was gated" in out

    def test_no_result_files_is_an_error_not_a_pass(self, ledger):
        _commit_row(ledger, BASE)
        with pytest.raises(SystemExit, match="no result files"):
            ledger.check(0)


class TestRows:
    def test_row_aggregates_runs_into_median_and_quartiles(self, ledger):
        runs = [_result("serve_steady", s, 80.0, wall=w)
                for s, w in enumerate([0.30, 0.34, 0.31, 0.33, 0.32])]
        row = ledger._row(ledger.ROOT, "change", "serve_steady",
                          range(5), runs)
        wall = row["metrics"]["wall_s"]
        assert (wall["q1"], wall["median"], wall["q3"]) == (0.31, 0.32, 0.33)
        assert row["runs"] == 5 and row["repetitions"] == [30] * 5
        assert row["versions"] == VERSIONS and row["label"] == "change"
        assert row["report_sha256"] == [f"sha-serve_steady-{s}" for s in range(5)]
        json.dumps(row)  # a history line must be serializable as is

    def test_table_counts_wins_and_flags_differences_inside_the_spread(
            self, ledger):
        def rows(walls):
            runs = [_result("serve_steady", s, 80.0, wall=w)
                    for s, w in enumerate(walls)]
            return ledger._row(ledger.ROOT, "x", "serve_steady",
                               range(len(walls)), runs), runs

        base, base_runs = rows([0.30, 0.32, 0.34, 0.36])
        faster, faster_runs = rows([0.20, 0.21, 0.22, 0.23])
        same, same_runs = rows([0.31, 0.31, 0.35, 0.35])

        def pairs(a, b):
            return {m: [[x["metrics"][m]["value"], y["metrics"][m]["value"]]
                        for x, y in zip(a, b)] for m in ledger.METRICS}

        line = ledger._table(base, faster, pairs(base_runs, faster_runs))[0]
        assert "wins 4/4" in line and "(resolved)" in line
        assert "0.652x of base" in line
        line = ledger._table(base, same, pairs(base_runs, same_runs))[0]
        assert "wins 2/4" in line and "unresolved" in line
        ties = ledger._table(base, faster, pairs(base_runs, faster_runs))[1]
        assert "(4 ties)" in ties  # py_calls_per_unit: equal on every pair
