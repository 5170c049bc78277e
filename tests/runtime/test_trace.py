"""EventTrace buffering, sampling, crash durability and paths."""

from __future__ import annotations

import json
from io import StringIO

import pytest

from repro.runtime import EventTrace, Runtime, read_trace
from repro.runtime.trace import open_trace


class TestBuffering:
    def test_lines_are_held_until_the_buffer_fills(self):
        fh = StringIO()
        trace = EventTrace(fh)  # 1,024 lines to a write
        for i in range(1023):
            trace.emit(float(i), i, "tick", "t")
        assert fh.getvalue() == ""  # nothing written yet
        trace.emit(1023.0, 1023, "tick", "t")
        assert len(fh.getvalue().splitlines()) == 1024

    def test_close_flushes_and_is_idempotent(self):
        fh = StringIO()
        trace = EventTrace(fh)
        trace.emit(0.5, 0, "tick", "t", {"k": 1})
        trace.close()
        trace.close()
        lines = fh.getvalue().splitlines()
        assert json.loads(lines[0]) == {
            "t": 0.5, "seq": 0, "kind": "tick", "actor": "t", "data": {"k": 1}}
        assert not fh.closed  # caller-owned handle stays open

    def test_runtime_run_flushes_without_close(self):
        fh = StringIO()
        trace = EventTrace(fh)
        runtime = Runtime(trace=trace)
        runtime.queue.post(1.0, lambda t: None, kind="ping", actor="p")
        runtime.run()
        assert len(fh.getvalue().splitlines()) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            EventTrace(StringIO(), sample=0)


class TestSampling:
    def test_every_nth_event_is_kept_after_a_meta_line(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with EventTrace(path, sample=3) as trace:
            for i in range(10):
                trace.emit(float(i), i, "tick", "t")
        raw = [json.loads(line) for line in open(path)]
        assert raw[0] == {"meta": {"sample": 3}}
        assert [e["seq"] for e in raw[1:]] == [0, 3, 6, 9]
        # read_trace hides the meta line from consumers.
        assert [e["seq"] for e in read_trace(path)] == [0, 3, 6, 9]


class TestCrashDurability:
    def test_events_before_a_crash_reach_the_file(self, tmp_path):
        """An exception mid-run must not strand buffered events: the journal
        keeps everything up to and including the failing action, and the
        failing event carries the error in its payload."""
        path = str(tmp_path / "crash.jsonl")

        def boom(t):
            raise RuntimeError("injected failure")

        trace = EventTrace(path)
        runtime = Runtime(trace=trace)
        runtime.queue.post(1.0, lambda t: None, kind="ok", actor="a")
        runtime.queue.post(2.0, boom, kind="bad", actor="a")
        runtime.queue.post(3.0, lambda t: None, kind="never", actor="a")
        with pytest.raises(RuntimeError, match="injected failure"):
            runtime.run()
        trace.close()

        events = read_trace(path)
        assert [e["kind"] for e in events] == ["ok", "bad"]
        assert events[1]["data"]["error"] == "RuntimeError: injected failure"

    def test_owned_trace_is_flushed_even_when_the_run_raises(self, tmp_path):
        # The open_trace contract used by every *_workload entry point:
        # the path-owned writer is closed (hence flushed) on the error path.
        path = str(tmp_path / "owned.jsonl")
        with pytest.raises(ValueError, match="sabotage"):
            with open_trace(path) as writer:
                runtime = Runtime(trace=writer)
                runtime.queue.post(0.5, lambda t: None, kind="ok", actor="a")

                def fail(t):
                    raise ValueError("sabotage")

                runtime.queue.post(1.0, fail, kind="bad", actor="a")
                runtime.run()
        events = read_trace(path)
        assert [e["kind"] for e in events] == ["ok", "bad"]
        assert "sabotage" in events[1]["data"]["error"]


class TestOpenTrace:
    def test_path_is_owned_and_instance_passes_through(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with open_trace(path) as writer:
            writer.emit(0.0, 0, "tick", "t")
        assert len(read_trace(path)) == 1  # closed (flushed) on exit

        keeper = EventTrace(StringIO(), sample=2)
        with open_trace(keeper) as writer:
            assert writer is keeper
        keeper.emit(0.0, 0, "tick", "t")  # still usable: caller owns it
        with open_trace(None) as writer:
            assert writer is None
