"""Self-test of the end-to-end ledger's harness (not of the numbers it reports).

Runs every workload at ``--scale 0.05``; asserts nothing about time.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import e2e_tracer as tracing  # noqa: E402
import e2e_workloads as workloads  # noqa: E402
import run as harness  # noqa: E402

SCALE = 0.05
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture()
def tmp(tmp_path) -> str:
    return str(tmp_path)


@pytest.fixture(autouse=True)
def short_calibration(monkeypatch):
    """In-process runs here assert nothing about time: a 10 ms kernel will do."""
    kernel = harness.measure.Calibrator
    for size in ("PY_ITERS", "GEMMS", "MEM_PASSES"):
        monkeypatch.setattr(kernel, size, getattr(kernel, size) // 20)


def _assert_result_schema(result: dict, names) -> None:
    assert set(result) >= {"workload", "seed", "trace", "ops", "failed", "errors", "metrics"}
    assert list(result["metrics"]) == list(names)
    for name, metric in result["metrics"].items():
        assert NAME.match(name), name
        assert UNIT.match(metric["unit"]), metric
        assert isinstance(metric["value"], (int, float)) and metric["value"] == metric["value"]
    assert isinstance(result["ops"], int) and result["ops"] >= 1
    assert 0 <= result["failed"] <= result["ops"]
    assert len(result["errors"]) == result["failed"]


def test_benchmark_json_matches_the_harness(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for entry in spec["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] == "lower" and 0 < metric["bound"] <= 0.25
    assert spec["per_layer"] == tracing.per_layer_spec()
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in spec[group]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert len(spec["per_layer"]) == 3 * len(tracing.LAYERS) + len(tracing.EXTRAS) == 80


def test_failed_check_is_a_failed_operation(tmp):
    ledger = harness.Ledger()
    ledger.checks([("a", True, ""), ("b", False, "why"), ("c", False, "")])
    assert (ledger.ops, ledger.failed, ledger.errors) == (3, 2, ["b: why", "c"])

    steady = workloads.WORKLOADS["serve_steady"]

    def forced_checks(ctx, report):
        return [("forced", False, "on purpose")] + steady.checks(ctx, report)

    forced = dataclasses.replace(steady, checks=forced_checks)
    result, _spans = harness.run(forced, seed=1, seconds=0.0, scale=SCALE, tmp=tmp, trace=0)
    _assert_result_schema(result, harness.END_TO_END_UNITS)
    # 1 forced + 3 serving checks + MIN_REPS report digests
    assert result["ops"] == 4 + harness.MIN_REPS
    assert result["failed"] == 1 and result["errors"] == ["forced: on purpose"]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_check_that_raises_is_a_failed_operation(tmp, capfd):
    def raising_checks(ctx, report):
        raise ValueError("pool audit")

    raising = dataclasses.replace(workloads.WORKLOADS["serve_steady"], checks=raising_checks)
    result, _spans = harness.run(raising, seed=1, seconds=0.0, scale=SCALE, tmp=tmp, trace=0)
    _assert_result_schema(result, [])  # the run ends there: no metrics, one failed operation
    assert (result["ops"], result["failed"]) == (1, 1)
    assert result["errors"] == ["run.raised: ValueError('pool audit')"]
    assert "Traceback" in capfd.readouterr().err


def test_a_run_replaces_only_its_own_result_files(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "RESULTS", str(tmp_path))
    for name in ("spans-serve_steady-seed10.json", "spans-serve_steady-seed1.json.part"):
        (tmp_path / name).write_text("{}")
    harness._write_result({"workload": "serve_steady", "seed": 1, "trace": 1}, {"rows": []})
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "result-serve_steady-seed1-trace1.json",
        "spans-serve_steady-seed1.json",
        "spans-serve_steady-seed10.json",  # another seed's: not stale
    ]


def test_self_time_arithmetic_on_a_synthetic_tree():
    rows = [
        # id, parent, name, start, end, count, busy, work
        [0, -1, "cli:main", 0.0, 10.0, 1, 10.0, 0],
        [1, 0, "runtime.core:Runtime.run", 1.0, 9.0, 1, 8.0, 7],
        [2, 1, "serving.router.admit:event.admit", 1.0, 8.0, 3, 3.0, 0],  # collapsed x3
        [3, 2, "serving.batcher:WFQDispatchQueue.extend", 1.0, 7.5, 3, 1.5, 6],
        [4, 3, "serving.batcher:WFQDispatchQueue.push", 1.0, 7.4, 6, 0.6, 6],  # nested, same layer
        [5, 2, "serving.generators:MultiTenantPoissonSource.take_wave", 1.1, 7.6, 3, 0.5, 12],
        [6, 1, "runtime.core:EventQueue.post", 2.0, 8.5, 3, 0.25, 0],  # nested, same layer
    ]
    metrics = tracing.layer_metrics(rows, {"waves": 3, "small_waves": 3})
    assert metrics["cli.self_s"] == pytest.approx(2.0)
    assert metrics["unattributed_share"] == pytest.approx(0.2)
    assert metrics["runtime.core.busy_s"] == pytest.approx(8.0)  # outermost span only
    assert metrics["runtime.core.calls"] == 1
    assert metrics["runtime.core.self_s"] == pytest.approx(8.0 - 3.0)  # post's self adds back
    assert metrics["serving.router.admit.self_s"] == pytest.approx(3.0 - 1.5 - 0.5)
    assert metrics["serving.batcher.busy_s"] == pytest.approx(1.5)
    assert metrics["serving.batcher.self_s"] == pytest.approx(1.5)  # 0.9 + 0.6
    assert metrics["serving.batcher.calls"] == 3
    assert metrics["serving.router.admit.admitted_ratio"] == pytest.approx(6 / 12)  # push once
    assert metrics["serving.generators.arrivals_per_wave"] == pytest.approx(4.0)
    assert metrics["serving.router.admit.small_wave_share"] == 1.0
    assert metrics["runtime.core.events"] == 7
    assert metrics["runtime.core.us_per_event"] == pytest.approx(5.0e6 / 7)
    total_self = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert total_self == pytest.approx(10.0)  # self times partition the root span


def test_consecutive_siblings_collapse_into_one_span():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("data:leaf", lambda x: x + 1, lambda _tr, args, _kw, _res: args[0])
    other = tracer.wrap("data:other", lambda: None)
    assert leaf(1) == 2 and tracer.spans == []  # inert outside a root span
    with tracer.root():
        for i in range(5):
            leaf(i)
        other()
        leaf(7)
    assert [(row[2], row[5], row[7]) for row in tracer.rows()] == [
        ("cli:main", 1, 0),
        ("data:leaf", 5, 10),
        ("data:other", 1, 0),
        ("data:leaf", 1, 7),
    ]


def test_py_calls_per_unit_repeats_across_interpreters():
    """The CLI contract end to end, twice: a JSON last line, exit 0, and the
    same count from two interpreters whatever ``--seed`` is."""
    children = [
        subprocess.Popen(
            [
                sys.executable, harness.SCRIPT, "--workload", "serve_overload", "--seed", seed,
                "--seconds", "0", "--trace", "0", "--scale", repr(SCALE),
            ],  # fmt: skip
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in ("3", "4")
    ]
    outputs = []
    for child in children:
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        outputs.append(json.loads(out.strip().splitlines()[-1]))
    for payload in outputs:
        assert set(payload) == {"correct", "attempted", "failed", "metrics"}
        assert payload["correct"] is True and payload["failed"] == 0
        assert list(payload["metrics"]) == list(harness.END_TO_END_UNITS)
    first, second = (p["metrics"]["py_calls_per_unit"]["value"] for p in outputs)
    assert first == second > 0


def _snapshot():
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in tracing.scan_targets()[0]]


def test_tracer_restores_every_patched_attribute():
    before = _snapshot()
    assert len(before) > 80
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with tracer.installed():
            patched = sum(owner.__dict__[attr] is not raw for owner, attr, raw in before)
            assert patched == len(before)
            raise RuntimeError("boom")
    after = _snapshot()
    assert [(o, a) for o, a, _ in after] == [(o, a) for o, a, _ in before]
    assert all(new is old for (_o, _a, new), (_o2, _a2, old) in zip(after, before))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_produces_every_per_layer_name(name, tmp, spec):
    before = _snapshot()
    result, spans = harness.run(
        workloads.WORKLOADS[name], seed=2, seconds=0.0, scale=SCALE, tmp=tmp, trace=1
    )
    _assert_result_schema(result, [m["name"] for m in spec["per_layer"]])
    assert result["failed"] == 0, result["errors"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for layer in tracing.LAYERS:
        if name in layer.expected_on:
            assert metrics[f"{layer.name}.calls"] > 0, layer.name
            # spans are stored rounded to 0.1 us, so allow their summed rounding
            busy, self_s = metrics[f"{layer.name}.busy_s"], metrics[f"{layer.name}.self_s"]
            assert busy + 1e-4 >= self_s >= -1e-4, layer.name
    assert 0 <= metrics["unattributed_share"] <= 0.5
    assert metrics["trace_overhead"] > 0
    assert spans["columns"] == tracing.SPAN_COLUMNS and len(spans["rows"][0]) == 8
    # no monkeypatch leaks: src objects are exactly what they were
    assert all(owner.__dict__[attr] is raw for owner, attr, raw in before)
