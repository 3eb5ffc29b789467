"""In-memory span recorder for the traced benchmark run.

Spans are recorded only from the benchmark's own files: around the
calls it makes into each layer, and by temporarily replacing public
functions and methods with timing wrappers (:meth:`Tracer.wrap`).
Nothing in the program under test is edited; the untraced run installs
no wrapper at all.

Every span has a name ``<layer>.<phase>``, a parent span id (0 for a
root), and a flow id shared by the spans of one chunk or one flow.
A layer's self time is the sum over its spans of the span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any, Iterator, Optional

#: layers a span name may start with (see README.md, "Layers")
LAYERS = (
    "rules", "compiler", "tables", "engine", "session", "serve", "cluster", "hw",
)

#: marks a wrapper installed on an instance over a class attribute
_INHERITED = object()


@dataclass
class Span:
    id: int
    parent: int
    name: str
    flow: Optional[str]
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; wrappers it installs are removed by :meth:`uninstall`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        # the innermost open span; a context variable, so each thread
        # and each asyncio task nests its spans independently
        self._open: contextvars.ContextVar[Optional[Span]] = (
            contextvars.ContextVar("open_span", default=None)
        )
        self._patches: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str, flow: Optional[str] = None) -> Iterator[Span]:
        """Time the body as one span, nested under the innermost open
        span of this thread or task (whose flow id it inherits unless
        ``flow`` is given)."""
        parent = self._open.get()
        if flow is None and parent is not None:
            flow = parent.flow
        span = Span(
            next(self._ids), parent.id if parent else 0, name, flow,
            time.perf_counter(),
        )
        token = self._open.set(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.reset(token)
            self.spans.append(span)

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a function or method) by a wrapper
        that records each call as a span called ``name``."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        own = getattr(owner, "__dict__", {})
        self._patches.append((owner, attr, own.get(attr, _INHERITED)))
        setattr(owner, attr, traced)

    def wrap_many(self, targets: list[tuple[Any, str, str]]) -> None:
        for owner, attr, name in targets:
            self.wrap(owner, attr, name)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)  # an instance wrapper over a class method
            else:
                setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Span name -> summed self time (duration minus direct children)."""
        child_seconds: dict[int, float] = {}
        for span in self.spans:
            if span.parent:
                child_seconds[span.parent] = (
                    child_seconds.get(span.parent, 0.0) + span.seconds
                )
        out: dict[str, float] = {}
        for span in self.spans:
            self_s = span.seconds - child_seconds.get(span.id, 0.0)
            out[span.name] = out.get(span.name, 0.0) + self_s
        return out

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0) + 1
        return out

    def layer_check(self, tolerance: float) -> dict[str, float]:
        """Per-layer self time, the ``other`` remainder, and the sum check.

        Root spans are the benchmark's own regions (``bench.*``); their
        self time is the ``other`` remainder.  Over properly nested
        spans the layer self times plus ``other`` add up to the summed
        root wall time exactly; ``sum_err_frac`` measures how far they
        miss (overlap or a lost span shows here), and ``ok`` is 1 when
        both it and ``other_frac`` are within ``tolerance``.
        """
        wall = sum(span.seconds for span in self.spans if span.parent == 0)
        layers = {layer: 0.0 for layer in LAYERS}
        other = 0.0
        for name, seconds in self.self_times().items():
            layer = name.split(".", 1)[0]
            if layer in layers:
                layers[layer] += seconds
            else:
                other += seconds
        total = sum(layers.values()) + other
        err = abs(total - wall) / wall if wall > 0 else 0.0
        other_frac = other / wall if wall > 0 else 0.0
        return {
            "layers": layers,
            "wall_s": wall,
            "other_s": other,
            "other_frac": other_frac,
            "sum_err_frac": err,
            "ok": float(err <= tolerance and other_frac <= tolerance),
        }


def no_span(name: str, flow: Optional[str] = None):
    """The untraced stand-in for :meth:`Tracer.span`."""
    return nullcontext()
