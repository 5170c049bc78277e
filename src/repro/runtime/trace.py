"""JSONL event-timeline export for the shared discrete-event runtime.

Every run on the runtime — ``repro simulate``, ``repro serve``, and
``repro cosched`` — can journal its event stream to a file with
``--trace-out``.  One schema covers train, serve, and co-scheduled events,
so a timeline is replayable/inspectable with nothing but ``jq``:

.. code-block:: json

    {"t": 0.1523, "seq": 42, "kind": "dispatch", "actor": "router",
     "data": {"batch_id": 3, "size": 8, "devices": 2}}

``t`` is the simulated time the event fired, ``seq`` the global scheduling
sequence number (the deterministic tie-break — two timelines of the same
seed are byte-identical), ``kind`` the event type, ``actor`` the process
that scheduled it, and ``data`` whatever fields the event's action chose to
journal (empty object when it returned None).

The line envelope — ``{"actor": …, "data": `` before the payload,
``, "kind": …, "seq": `` after it — has one writer,
:meth:`EventTrace.line_parts`.  :meth:`EventTrace.emit` formats through
it, and a hot caller that assembles whole lines for
:meth:`EventTrace.emit_many_lines` (the serving gateway's journal) builds
them around the same two fragments, so a line is byte-equal to
``json.dumps(record, sort_keys=True)`` whoever wrote it.

Payloads go through one C encoder built at import (:data:`_encode`):
``json.dumps(o, sort_keys=True)`` builds exactly this
``json.encoder.c_make_encoder`` on every call — same ``default``, ASCII
escaping, separators and ``NaN``/``Infinity`` spelling — so a payload's
bytes are the same, minus one encoder construction per line.  It skips the
circular-reference check (a marker table shared across calls would keep a
failed encode's entries), so a cyclic payload raises ``RecursionError``
where ``json.dumps`` raises ``ValueError``; either way no line is written.

Two things keep tracing cheap on million-event runs:

* **buffering** — lines are accumulated in memory and written in blocks
  of 1,024 (the runtime flushes on run exit, and ``close()`` always
  flushes), so tracing does not turn every event into a syscall;
* **sampling** — ``sample=N`` keeps every N-th fired event (the first,
  then every N-th after it, counted over the whole run).  A sampled
  timeline starts with a metadata line ``{"meta": {"sample": N}}`` so a
  reader knows the stream is decimated; ``read_trace`` skips meta lines
  and returns events only.  ``seq`` gaps in a sampled trace are expected.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import (
    Any,
    Dict,
    IO,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

__all__ = ["EventTrace", "load_trace", "open_trace", "read_trace"]

# Formatted lines held in memory before one physical write.
_BUFFER_LINES = 1024

# ``_encode(o, 0)[0]`` is ``json.dumps(o, sort_keys=True)``; its arguments
# are that call's encoder's, but for the circular check (module docstring).
if c_make_encoder is None:  # pragma: no cover - an interpreter without _json
    _encode = lambda o, _level: (  # noqa: E731
        json.dumps(o, sort_keys=True, check_circular=False),)
else:
    _encode = c_make_encoder(None, json.JSONEncoder().default,
                             encode_basestring_ascii, None, ": ", ", ",
                             True, False, True)


class EventTrace:
    """Append-only JSONL writer for runtime event timelines.

    Accepts a path (opened lazily, directories created) or any writable
    file object.  Usable as a context manager; ``close()`` is idempotent
    and never closes a file object the caller handed in.  ``sample=N``
    keeps every N-th event; at most ``_BUFFER_LINES`` formatted lines are
    held before a physical write.
    """

    def __init__(self, destination: Union[str, IO[str]], *,
                 sample: int = 1) -> None:
        if sample < 1:
            raise ValueError(f"sample must be >= 1, got {sample}")
        self._path: Optional[str] = None
        self._fh: Optional[IO[str]] = None
        self._owns = False
        self._buffer: List[str] = []
        self.sample = sample
        self.events_written = 0   # lines emitted (post-sampling)
        self.events_seen = 0      # events offered (pre-sampling)
        self._fragments: Dict[Tuple[str, str], Tuple[str, str]] = {}  # see line_parts
        if isinstance(destination, str):
            self._path = destination
        else:
            self._fh = destination
        if sample > 1:
            self._buffer.append(_encode({"meta": {"sample": sample}}, 0)[0] + "\n")

    def _handle(self) -> IO[str]:
        if self._fh is None:
            assert self._path is not None
            parent = os.path.dirname(os.path.abspath(self._path))
            os.makedirs(parent, exist_ok=True)
            self._fh = open(self._path, "w")
            self._owns = True
        return self._fh

    def line_parts(self, actor: str, kind: str) -> Tuple[str, str]:
        """The constant ``(prefix, middle)`` of an ``(actor, kind)`` line:
        ``prefix + payload + middle + seq + ', "t": ' + repr(t) + '}\\n'``
        is byte for byte ``json.dumps(record, sort_keys=True)`` (key order
        actor < data < kind < seq < t; a float's ``repr`` is json's).

        This is the one place the line envelope is spelled: :meth:`emit`
        formats through it, and a caller that assembles whole lines for
        :meth:`emit_many_lines` takes its envelope from here too."""
        parts = self._fragments.get((actor, kind))
        if parts is None:
            parts = self._fragments[actor, kind] = (
                f'{{"actor": {json.dumps(actor)}, "data": ',
                f', "kind": {json.dumps(kind)}, "seq": ')
        return parts

    def emit(self, t: float, seq: int, kind: str, actor: str,
             data: Optional[Dict[str, Any]] = None) -> None:
        """Journal one fired event as a JSONL line; ``t`` is written as a
        float (``emit(0, ...)`` gives ``"t": 0.0``) and must be finite."""
        t = float(t)  # float()/int(): numpy scalars repr as 'np.float64(1.0)'
        if t - t != 0.0:  # inf or nan (their repr is not JSON), without a call
            raise ValueError(f"event time must be finite, got {t!r}")
        seen = self.events_seen
        self.events_seen = seen + 1
        if seen % self.sample:
            return
        prefix, middle = self.line_parts(actor, kind)
        payload = _encode(data, 0)[0] if data else "{}"
        self._buffer.append(
            f'{prefix}{payload}{middle}{int(seq)}, "t": {t!r}}}\n')
        self.events_written += 1
        if len(self._buffer) >= _BUFFER_LINES:
            self.flush()

    def emit_many_lines(self, lines: Sequence[str]) -> None:
        """Journal a run of fully assembled JSONL lines.

        For hot callers that build each complete line themselves (one
        f-string per line, around the envelope :meth:`line_parts` returns
        and whatever of the payload is constant across the run).  The caller guarantees
        every line is byte-identical to what :meth:`emit` would have
        produced — newline included; sampling and buffering counters
        advance exactly as if each line's event had been offered
        individually.
        """
        n = len(lines)
        if n == 0:
            return
        seen = self.events_seen
        self.events_seen = seen + n
        sample = self.sample
        first = (-seen) % sample  # offset of the first kept event
        if first >= n:
            return
        if sample > 1:
            lines = lines[first::sample]
        buffer = self._buffer
        buffer.extend(lines)
        self.events_written += len(lines)
        if len(buffer) >= _BUFFER_LINES:
            self.flush()

    def flush(self) -> None:
        """Write out any buffered lines (the runtime calls this on exit)."""
        if self._buffer:
            self._handle().write("".join(self._buffer))
            self._buffer.clear()

    def close(self) -> None:
        self.flush()
        if self._fh is not None and self._owns:
            self._fh.close()
            self._fh = None
            self._owns = False

    def __enter__(self) -> "EventTrace":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@contextmanager
def open_trace(trace: Union[str, "EventTrace", None],
               ) -> Iterator[Optional["EventTrace"]]:
    """Normalize a ``--trace-out`` argument for a runtime run.

    A path becomes an :class:`EventTrace` this context owns (closed on
    exit); an existing :class:`EventTrace` or ``None`` passes through
    untouched — the caller keeps its lifecycle.  This is the one place the
    close-only-what-we-created rule lives.
    """
    if isinstance(trace, str):
        writer = EventTrace(trace)
        try:
            yield writer
        finally:
            writer.close()
    else:
        yield trace


def load_trace(path: str) -> Tuple[list, int]:
    """Load a JSONL timeline: ``(events, torn)``.

    Metadata lines (``{"meta": ...}``, written by sampled traces) are
    skipped.  ``torn`` is 1 when the final line does not parse — what a
    ``kill -9`` mid-write leaves — and the events are the intact prefix;
    an unparsable line *before* the last is damage and raises.
    """
    events, torn = [], None
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if torn is not None:
                raise torn
            try:
                record = json.loads(line)
            except ValueError as exc:
                torn = ValueError(f"{path}:{number}: unparsable line "
                                  f"before the end of the file ({exc})")
                continue
            if "meta" not in record:
                events.append(record)
    return events, int(torn is not None)


def read_trace(path: str) -> list:
    """The events of a JSONL timeline (see :func:`load_trace`)."""
    return load_trace(path)[0]
