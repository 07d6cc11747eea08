"""Spans and the tracer that collects them.

A :class:`Span` is one timed operation on the simulated clock; spans
form trees via parent span ids and forests via trace ids.  The
:class:`Tracer` is the single collection point per simulator: bounded,
deterministic, and aware of a *synchronous activation stack* so that
host-instantaneous work (a model run inside a job's ``compute``) can
parent its spans under the job that charged for it.

The activation stack is explicitly scoped (``with tracer.activate(span)``)
rather than ambient, because a discrete-event simulator interleaves many
logical tasks on one host thread — any context that outlives its event
callback would leak across unrelated processes.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Any, Deque, Dict, List, Optional

from repro.obs.context import SpanContext
from repro.sim.kernel import Simulator

#: How many spans one tracer retains.
MAX_SPANS = 100_000


class Span:
    """One timed operation within a trace."""

    __slots__ = ("name", "kind", "context", "parent_id", "start", "end",
                 "status", "error", "attributes", "annotations", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, context: SpanContext,
                 parent_id: Optional[str], kind: str, start: float,
                 attributes: Optional[Dict[str, Any]] = None):
        self._tracer = tracer
        self.name = name
        self.kind = kind
        self.context = context
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.status = "ok"
        self.error: Optional[str] = None
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.annotations: List[Dict[str, Any]] = []

    @property
    def trace_id(self) -> str:
        """Trace this span belongs to."""
        return self.context.trace_id

    @property
    def span_id(self) -> str:
        """This span's own id."""
        return self.context.span_id

    @property
    def finished(self) -> bool:
        """Whether :meth:`finish` has been called."""
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        """Simulated seconds from start to finish (None while open)."""
        if self.end is None:
            return None
        return self.end - self.start

    def set_attribute(self, key: str, value: Any) -> "Span":
        """Attach/overwrite one attribute; returns self for chaining."""
        self.attributes[key] = value
        return self

    def annotate(self, message: str, **fields: Any) -> "Span":
        """Add a timestamped annotation (boot, crash, retry, ...)."""
        entry = {"t": self._tracer.sim.now, "message": message}
        entry.update(fields)
        self.annotations.append(entry)
        return self

    def set_error(self, error: str) -> "Span":
        """Mark the span errored without finishing it."""
        self.status = "error"
        self.error = error
        return self

    def finish(self, error: Optional[str] = None) -> "Span":
        """Close the span at the current simulated time.

        Idempotent: once finished, later calls (including ones carrying
        an error) change nothing — the first closer wins.
        """
        if self.end is None:
            if error is not None:
                self.set_error(error)
            self.end = self._tracer.sim.now
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"{self.duration:.3f}s" if self.finished else "open"
        return f"<Span {self.name!r} {self.status} {state}>"


class Tracer:
    """Bounded collector of spans for one simulator.

    ``MAX_SPANS`` bounds memory: the store is a deque that drops the
    oldest finished-or-not spans first, so a long soak keeps its most
    recent traces intact.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._spans: Deque[Span] = deque(maxlen=MAX_SPANS)
        self._active: List[Span] = []
        self.dropped = 0

    def start_span(self, name: str,
                   parent: Optional[Any] = None,
                   kind: str = "internal",
                   attributes: Optional[Dict[str, Any]] = None) -> Span:
        """Open a span starting now.

        ``parent`` may be a :class:`Span`, a :class:`SpanContext`, or
        ``None`` — in which case the innermost *activated* span (if any)
        is the parent, and otherwise a fresh trace is started.
        """
        parent_ctx = self._resolve_parent(parent)
        next_id = self.sim.next_id
        if parent_ctx is None:
            # 32 and 16 hex digits, W3C-shaped; counted from 1
            context = SpanContext(f"{next_id('trace') + 1:032x}",
                                  f"{next_id('span') + 1:016x}")
            parent_id = None
        else:
            context = SpanContext(parent_ctx.trace_id,
                                  f"{next_id('span') + 1:016x}")
            parent_id = parent_ctx.span_id
        span = Span(self, name, context, parent_id, kind, self.sim.now,
                    attributes)
        if len(self._spans) == self._spans.maxlen:
            self.dropped += 1
        self._spans.append(span)
        return span

    def _resolve_parent(self, parent: Optional[Any]) -> Optional[SpanContext]:
        if parent is None:
            return self.current_context()
        if isinstance(parent, Span):
            return parent.context
        if isinstance(parent, SpanContext):
            return parent
        raise TypeError(f"cannot parent a span under {parent!r}")

    def current_context(self) -> Optional[SpanContext]:
        """Context of the innermost activated span (None outside any)."""
        if not self._active:
            return None
        return self._active[-1].context

    @contextmanager
    def activate(self, span: Span):
        """Scope ``span`` as the implicit parent for synchronous work."""
        self._active.append(span)
        try:
            yield span
        finally:
            self._active.pop()

    # -- queries ---------------------------------------------------------------

    def spans(self, trace_id: Optional[str] = None,
              name: Optional[str] = None) -> List[Span]:
        """Collected spans, optionally filtered by trace id and/or name."""
        out = list(self._spans)
        if trace_id is not None:
            out = [s for s in out if s.trace_id == trace_id]
        if name is not None:
            out = [s for s in out if s.name == name]
        return out

    def finish_open_spans(self, error: Optional[str] = None) -> int:
        """Close every still-open span (end-of-run flush); returns count."""
        closed = 0
        for span in self._spans:
            if not span.finished:
                span.finish(error=error)
                closed += 1
        return closed

