"""The benchmark gate driver: registry completeness and retry reporting."""

from __future__ import annotations

import importlib.util
import os
import sys

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "benchmarks")


@pytest.fixture()
def run_gates():
    """A fresh run_gates module instance (its HERE gets monkeypatched)."""
    name = "run_gates_under_test"
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(BENCH_DIR, "run_gates.py"))
    module = importlib.util.module_from_spec(spec)
    # Dataclass construction resolves the module through sys.modules, so
    # the entry must exist while the module body executes.
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(name, None)


class TestRegistry:
    def test_every_bench_json_emitter_is_registered(self, run_gates, capsys):
        # The real tree: any benchmark emitting a BENCH_*.json that is not
        # a registered gate fails CI (and this test) with its name.
        assert run_gates.check_registry() == 0
        assert "every BENCH_*.json emitter is registered" in \
            capsys.readouterr().out

    def test_unregistered_emitter_is_reported(self, run_gates, monkeypatch,
                                              tmp_path, capsys):
        (tmp_path / "bench_rogue.py").write_text(
            "from _common import save_bench_json\n"
            "save_bench_json('rogue', {})\n")
        (tmp_path / "bench_quiet.py").write_text("pass\n")  # emits nothing
        monkeypatch.setattr(run_gates, "HERE", str(tmp_path))
        assert run_gates.check_registry() == 1
        err = capsys.readouterr().err
        assert "bench_rogue.py" in err and "UNREGISTERED" in err
        assert "bench_quiet.py" not in err

    def test_tenant_fairness_is_a_deterministic_gate(self, run_gates):
        by_name = {g.name: g for g in run_gates.GATES}
        gate = by_name["tenant_fairness"]
        assert gate.script == "bench_tenant_fairness.py"
        assert gate.smoke and gate.gate
        assert not gate.wall_clock   # simulated time: no retry, no noise

    def test_fig15_16_is_a_deterministic_pytest_gate(self, run_gates):
        by_name = {g.name: g for g in run_gates.GATES}
        gate = by_name["fig15_16_gavel"]
        assert gate.script == "bench_fig15_16_gavel_hetero.py"
        assert gate.gate and not gate.smoke   # no --smoke mode: pytest only
        assert not gate.wall_clock            # simulated time: no retry

    def test_check_registry_cli_mode(self, run_gates, capsys):
        assert run_gates.main(["--check-registry"]) == 0
        capsys.readouterr()


class TestRetryReporting:
    def _failing_driver(self, run_gates, monkeypatch):
        calls = []

        def fake_run(argv):
            calls.append(list(argv))
            return 1

        monkeypatch.setattr(run_gates, "_run", fake_run)
        return calls

    def test_wall_clock_gate_retries_and_reports_real_failure(
            self, run_gates, monkeypatch, capsys):
        calls = self._failing_driver(run_gates, monkeypatch)
        assert run_gates.run_gates(["fused_coverage"]) == 1
        assert len(calls) == 2, "a wall-clock gate gets exactly one retry"
        captured = capsys.readouterr()
        assert "failed once; retrying" in captured.out
        # The second failure gets its own distinct line: past the noise
        # tolerance means a real regression, not runner jitter.
        assert "failed after retry" in captured.err
        assert "GATE FAILED: fused_coverage" in captured.err

    def test_deterministic_gate_never_retries(self, run_gates, monkeypatch,
                                              capsys):
        calls = self._failing_driver(run_gates, monkeypatch)
        assert run_gates.run_gates(["tenant_fairness"]) == 1
        assert len(calls) == 1, "deterministic gates fail fast"
        captured = capsys.readouterr()
        assert "retry" not in captured.out and "retry" not in captured.err
        assert "GATE FAILED: tenant_fairness" in captured.err

    def test_passing_gate_emits_no_failure_lines(self, run_gates,
                                                 monkeypatch, capsys):
        monkeypatch.setattr(run_gates, "_run", lambda argv: 0)
        assert run_gates.run_gates(["fused_coverage"]) == 0
        captured = capsys.readouterr()
        assert "FAILED" not in captured.err and "retry" not in captured.out
