"""Generated payloads through :class:`EventTrace`'s one line formatter.

``emit`` assembles every line from two cached ``(actor, kind)`` fragments
around the payload and the sequence number — ``EventTrace.line_parts``,
which callers of ``emit_many_lines`` build their whole lines around as
well.  The contract is byte equality with dumping the whole five-key
record — ``json.dumps({...}, sort_keys=True) + "\\n"`` — for whatever a
caller can put in a line: nested payloads, floats whose repr is awkward
(``-0.0``, ``1e-7``, ``1e22``), actor/kind strings that need escaping,
numpy scalars for ``t`` and ``seq``, and decimated (``sample > 1``) runs.
Payloads are encoded by one C encoder built at import, so the properties
also run with payloads ``json`` spells outside strict JSON (``NaN``,
``Infinity``), control characters and non-ASCII text, and pin what an
unencodable payload raises.
"""

from __future__ import annotations

import json
import subprocess
import sys
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime import EventTrace

FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-7, 1e22, 1e16, 0.1, 123456789.125,
                     5e-324, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
NAMES = st.one_of(
    st.sampled_from(["router", "gateway", 'say "hi"', "back\\slash", "naïve",
                     "队列", "tab\there", "", "a/b"]),
    st.text(max_size=8),
)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2**53, 2**53),
                    FLOATS, NAMES)
PAYLOADS = st.dictionaries(
    NAMES,
    st.recursive(SCALARS,
                 lambda inner: st.one_of(st.lists(inner, max_size=3),
                                         st.dictionaries(NAMES, inner,
                                                         max_size=3)),
                 max_leaves=8),
    max_size=4)
TIMES = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)
SEQS = st.integers(0, 2**40)


def reference_line(t, seq, kind, actor, data) -> str:
    return json.dumps({"t": float(t), "seq": int(seq), "kind": kind,
                       "actor": actor, "data": data or {}},
                      sort_keys=True) + "\n"


def kept(n_before: int, n: int, sample: int):
    """Offsets of the events a ``sample``-decimated trace keeps."""
    return [i for i in range(n) if (n_before + i) % sample == 0]


@settings(max_examples=100, deadline=None)
@given(t=TIMES, seq=SEQS, kind=NAMES, actor=NAMES,
       data=st.one_of(st.none(), PAYLOADS), numpy_scalars=st.booleans())
def test_emit_is_byte_equal_to_dumping_the_record(t, seq, kind, actor, data,
                                                  numpy_scalars):
    fh = StringIO()
    trace = EventTrace(fh)
    if numpy_scalars:
        trace.emit(np.float64(t), np.int64(seq), kind, actor, data)
    else:
        trace.emit(t, seq, kind, actor, data)
    trace.emit(t, seq, kind, actor, data)  # second line: fragments cached
    trace.close()
    assert fh.getvalue() == reference_line(t, seq, kind, actor, data) * 2


@settings(max_examples=60, deadline=None)
@given(events=st.lists(st.tuples(TIMES, SEQS, PAYLOADS), max_size=10),
       kind=NAMES, actor=NAMES, sample=st.integers(1, 4),
       lead=st.integers(0, 3))
def test_emit_many_lines_is_byte_equal_and_samples_like_emit(
        events, kind, actor, sample, lead):
    """A run of lines assembled around ``line_parts`` journals exactly the
    lines per-event ``emit`` calls would, decimated the same way after
    ``lead`` scalar emits, with the same sampling counters."""
    fh = StringIO()
    trace = EventTrace(fh, sample=sample)
    for i in range(lead):
        trace.emit(0.0, i, "lead", "t")
    prefix, middle = trace.line_parts(actor, kind)
    trace.emit_many_lines([
        f'{prefix}{json.dumps(d, sort_keys=True)}{middle}{s}, "t": {t!r}}}\n'
        for t, s, d in events])
    trace.close()
    lines = fh.getvalue().splitlines(keepends=True)[sample > 1:]
    want = [reference_line(0.0, i, "lead", "t", None)
            for i in kept(0, lead, sample)]
    want += [reference_line(*events[i][:2], kind, actor, events[i][2])
             for i in kept(lead, len(events), sample)]
    assert lines == want
    assert trace.events_seen == lead + len(events)
    assert trace.events_written == len(want)


def test_fragments_fill_on_first_use_and_are_shared_by_all_emitters():
    trace = EventTrace(StringIO())
    assert trace._fragments == {}  # nothing is built at construction
    trace.emit(0.0, 0, "complete", "gateway", {"k": 1})
    parts = trace._fragments["gateway", "complete"]
    trace.emit(2.0, 2, "complete", "gateway", {"k": 2})
    assert list(trace._fragments) == [("gateway", "complete")]
    assert trace._fragments["gateway", "complete"] is parts
    assert trace.line_parts("gateway", "complete") is parts


@settings(max_examples=50, deadline=None)
@given(t=TIMES, seq=SEQS, kind=NAMES, actor=NAMES, data=PAYLOADS)
def test_a_line_assembled_around_line_parts_is_the_line_emit_writes(
        t, seq, kind, actor, data):
    """``line_parts`` is the envelope's one writer: a caller that builds
    whole lines for ``emit_many_lines`` around it gets ``emit``'s bytes."""
    out = StringIO()
    trace = EventTrace(out)
    prefix, middle = trace.line_parts(actor, kind)
    payload = json.dumps(data, sort_keys=True)
    trace.emit_many_lines([f'{prefix}{payload}{middle}{seq}, "t": {t!r}}}\n'])
    trace.emit(t, seq, kind, actor, data)
    trace.flush()
    first, second = out.getvalue().splitlines(keepends=True)
    assert first == second == reference_line(t, seq, kind, actor, data)


def test_emit_writes_t_as_a_float_and_rejects_non_finite_times():
    out = StringIO()
    trace = EventTrace(out)
    trace.emit(0, 1, "tick", "clock")  # an int time is journalled as 0.0
    for bad in (float("inf"), -float("inf"), float("nan"), np.float64("nan")):
        with pytest.raises(ValueError, match="event time must be finite"):
            trace.emit(bad, 2, "tick", "clock")
    trace.flush()
    assert out.getvalue() == reference_line(0.0, 1, "tick", "clock", None)
    assert (trace.events_seen, trace.events_written) == (1, 1)


# Everything ``json.dumps`` writes for a payload, strict JSON or not.
WILD_FLOATS = st.one_of(
    st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf"), 1e-7,
                     1e22]),
    st.floats(),
)
WILD_TEXT = st.one_of(
    st.sampled_from(["\x00", "\x1f\x7f", "line\nbreak", "é", "\u2028",
                     "\U0001f600", "\ud800"]),
    st.text(max_size=6),
)
WILD_PAYLOADS = st.dictionaries(
    WILD_TEXT,
    st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(), WILD_FLOATS,
                  WILD_TEXT),
        lambda inner: st.one_of(st.lists(inner, max_size=3),
                                st.dictionaries(WILD_TEXT, inner,
                                                max_size=3)),
        max_leaves=10),
    max_size=4)


@settings(max_examples=150, deadline=None)
@given(events=st.lists(st.tuples(TIMES, SEQS, st.one_of(st.none(),
                                                        WILD_PAYLOADS)),
                       max_size=8),
       kind=WILD_TEXT, actor=WILD_TEXT, sample=st.sampled_from([1, 3]))
def test_every_line_is_json_dumps_of_its_record(events, kind, actor, sample):
    fh = StringIO()
    trace = EventTrace(fh, sample=sample)
    for t, seq, data in events:
        trace.emit(t, seq, kind, actor, data)
    trace.close()
    lines = fh.getvalue().splitlines(keepends=True)
    if sample > 1:
        assert lines.pop(0) == json.dumps({"meta": {"sample": sample}},
                                          sort_keys=True) + "\n"
    assert lines == [
        json.dumps({"actor": actor, "data": events[i][2] or {},
                    "kind": kind, "seq": events[i][1],
                    "t": float(events[i][0])}, sort_keys=True) + "\n"
        for i in kept(0, len(events), sample)]


def _cyclic():
    payload = {"a": [1]}
    payload["a"].append(payload)
    return payload


@pytest.mark.parametrize("sample", [1, 3])
@pytest.mark.parametrize("bad, error", [
    ({"x": object()}, TypeError),
    ({"when": {1, 2}}, TypeError),
    ({1: "a", "b": 2}, TypeError),  # sort_keys cannot order int and str
    # No circular check (a shared marker table would outlive a failed
    # encode): the encoder recurses until Python stops it.
    (_cyclic(), RecursionError),
])
def test_an_unencodable_payload_raises_and_writes_no_line(sample, bad, error):
    """The bad payload is the event at offset ``sample`` — a kept one — and
    the events around it, and the encoder after it, are unaffected."""
    fh = StringIO()
    trace = EventTrace(fh, sample=sample)
    for seq in range(2 * sample + 1):
        if seq == sample:
            with pytest.raises(error):
                trace.emit(1.0, seq, "bad", "r", bad)
        else:
            trace.emit(2.0, seq, "ok", "r", {"k": [seq]})
    trace.close()
    lines = fh.getvalue().splitlines()[sample > 1:]
    assert [json.loads(line)["seq"] for line in lines] == [0, 2 * sample]
    assert all(json.loads(line)["kind"] == "ok" for line in lines)


_FALLBACK = """
import io, json, json.encoder, sys
json.encoder.c_make_encoder = None  # an interpreter without _json
from repro.runtime.trace import EventTrace, _encode
assert _encode.__name__ == "<lambda>"  # the pure-Python fallback
fh = io.StringIO()
trace = EventTrace(fh)
for i, data in enumerate(json.loads(sys.argv[1])):
    trace.emit(0.5 * i, i, "kind", "actor", data)
trace.close()
sys.stdout.write(fh.getvalue())
"""


def test_without_the_c_accelerator_lines_are_the_same_bytes():
    import os
    import pathlib

    import repro

    payloads = [None, {}, {"b": [1, 2.5, -0.0], "a": "\u00e9\x01"},
                {"z": {"y": None, "x": True}, "big": 1e308, "q": "\ud800"}]
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _FALLBACK, json.dumps(payloads)],
        capture_output=True, text=True, env=env, check=True)
    fh = StringIO()
    trace = EventTrace(fh)
    for i, data in enumerate(payloads):
        trace.emit(0.5 * i, i, "kind", "actor", data)
    trace.close()
    assert done.stdout == fh.getvalue()
