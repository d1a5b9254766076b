"""Sim-clock-sourced span recording.

A :class:`Tracer` opens live spans around code as it runs on the simulated
clock — as a context manager (``with tracer.span("Reboot", "downtime")``) or
a decorator (:func:`traced`) — and also accepts precomputed spans via
:meth:`Tracer.add` for timelines that are calculated rather than simulated
(pre-copy round plans, stage plans, post-run state-transition logs).

The clock is a zero-argument callable; components bind it to whatever
drives them (``lambda: engine.now``, ``lambda: clock.now``) via
:meth:`Tracer.bind_clock`, so one tracer follows a campaign across engines.

Tracing must cost nothing when off: :data:`NULL_TRACER` is a shared no-op
whose ``span()`` returns a reusable empty context manager and whose
``enabled`` flag lets call sites skip building ``Span`` objects entirely.
Instrumented code takes ``tracer=NULL_TRACER`` by default and never pays
for allocation, clock reads, or list appends unless a real tracer is
passed in.
"""

import functools
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ObservabilityError
from repro.obs.trace import Span, Trace


class Tracer:
    """Records live spans against a bindable simulated clock."""

    enabled = True

    def __init__(self, now: Optional[Callable[[], float]] = None,
                 trace: Optional[Trace] = None):
        self._now = now if now is not None else (lambda: 0.0)
        self.trace = trace if trace is not None else Trace()
        # (name, track, start) of every span opened and not yet closed.
        self._open: List[Tuple[str, str, float]] = []

    def bind_clock(self, now: Callable[[], float]) -> None:
        """Point the tracer at a new time source (e.g. a fresh engine)."""
        self._now = now

    @property
    def now(self) -> float:
        return self._now()

    @property
    def open_spans(self) -> List[Tuple[str, str, float]]:
        """Spans currently open (empty unless called mid-``with`` block)."""
        return list(self._open)

    @contextmanager
    def span(self, name: str, category: str = "", track: str = "host",
             args: Optional[Dict[str, object]] = None):
        """Open a span now; close it (and record it) when the block exits.

        Works across generator ``yield``s: the span ends when the ``with``
        block is finally left, at whatever simulated time the clock then
        reads — so wrapping a ``yield duration`` records exactly that
        phase's window.
        """
        start = self._now()
        self._open.append((name, track, start))
        try:
            yield self
        finally:
            self._open.pop()
            self.trace.add(Span(name, category, start, self._now(),
                                track=track, args=args))

    def add(self, span: Span) -> None:
        """Record a precomputed span (already closed by construction)."""
        self.trace.add(span)

    def extend(self, spans) -> None:
        for span in spans:
            self.trace.add(span)

    def to_chrome_trace(self) -> str:
        """Export the recorded trace; refuses while any span is open."""
        if self._open:
            dangling = ", ".join(
                f"{name!r} on {track!r}" for name, track, _ in self._open
            )
            raise ObservabilityError(
                f"cannot export with open spans: {dangling}"
            )
        return self.trace.to_chrome_trace()


class _NullContext:
    """Reusable empty context manager — the zero-cost ``span()`` result."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NULL_CONTEXT = _NullContext()


class NullTracer:
    """Drop-in no-op: every operation returns immediately.

    ``enabled`` is False so call sites can skip building precomputed spans
    (``if tracer.enabled: tracer.add(...)``).
    """

    enabled = False

    def bind_clock(self, now: Callable[[], float]) -> None:
        pass

    def span(self, name: str, category: str = "", track: str = "host",
             args: Optional[Dict[str, object]] = None):
        return _NULL_CONTEXT

    def add(self, span: Span) -> None:
        pass

    def extend(self, spans) -> None:
        pass

    @property
    def open_spans(self) -> List[Tuple[str, str, float]]:
        return []


#: the shared no-op tracer every instrumented component defaults to
NULL_TRACER = NullTracer()


def traced(name: Optional[str] = None, category: str = "",
           track: str = "host", tracer_attr: str = "tracer"):
    """Method decorator: wrap each call in a span on ``self.<tracer_attr>``.

    The span is named after the method unless ``name`` is given.  Objects
    without the attribute fall back to :data:`NULL_TRACER`, so decorating
    a method never forces its class to carry a tracer.
    """
    def decorate(fn):
        span_name = name if name is not None else fn.__name__

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            tracer = getattr(self, tracer_attr, NULL_TRACER)
            with tracer.span(span_name, category, track):
                return fn(self, *args, **kwargs)
        return wrapper
    return decorate
