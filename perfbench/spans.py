"""Wrapper spans: time a layer from outside by wrapping its public functions.

A :class:`Probe` names one attribute — a module global or a class
attribute — exactly where the caller resolves it at call time (for
example ``repro.flow.graph.instance_token``, not the defining module's
copy).  :func:`instrument` swaps every probed attribute for a wrapper that
records a :class:`Span` per call into a :class:`SpanRecorder`, and puts
the originals back when it exits, checking that each one really is back.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

#: Span name, or a function of the wrapped call's arguments returning one.
SpanName = Union[str, Callable[..., str]]
#: Called with (span, args, result, token) to attach counters to a span;
#: ``token`` is what the probe's ``before`` hook returned (or ``None``).
Observer = Callable[["Span", tuple, Any, Any], None]


@dataclass
class Span:
    """One timed call: name, interval, causing span and run identifier."""

    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    run_id: str = ""
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span sink for one single-threaded run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(name=name, start=time.perf_counter(), parent=parent, run_id=self.run_id)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (the end-of-run flush)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for index, record in enumerate(self.spans):
                handle.write(json.dumps({"id": index, **asdict(record)}) + "\n")


@dataclass(frozen=True)
class Probe:
    """One attribute to wrap, the span it records and optional hooks.

    ``before`` runs with the call's arguments just before it (to snapshot
    state such as cache counters); ``observe`` runs after it returns.
    """

    owner: object
    attribute: str
    name: SpanName
    observe: Optional[Observer] = None
    before: Optional[Callable[..., Any]] = None


def _wrap(original: Callable, probe: Probe, recorder: SpanRecorder) -> Callable:
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        name = probe.name if isinstance(probe.name, str) else probe.name(*args, **kwargs)
        token = None if probe.before is None else probe.before(*args, **kwargs)
        with recorder.span(name) as span:
            result = original(*args, **kwargs)
        if probe.observe is not None:
            probe.observe(span, args, result, token)
        return result

    return wrapper


class Instrumentation:
    """Outcome of an :func:`instrument` block: were all originals restored?"""

    def __init__(self) -> None:
        self.restored: Optional[bool] = None
        self.not_restored: List[str] = []


@contextlib.contextmanager
def instrument(probes: Sequence[Probe], recorder: SpanRecorder) -> Iterator[Instrumentation]:
    """Wrap every probed attribute for the duration of the block.

    The originals are taken from the owner's own ``__dict__`` (so a class
    attribute is restored as the exact object it was, not a bound view of
    it) and put back in reverse order, even when the block raises.
    """
    saved: List[Tuple[Probe, object]] = []
    outcome = Instrumentation()
    try:
        for probe in probes:
            original = vars(probe.owner)[probe.attribute]
            setattr(probe.owner, probe.attribute, _wrap(original, probe, recorder))
            saved.append((probe, original))
        yield outcome
    finally:
        for probe, original in reversed(saved):
            setattr(probe.owner, probe.attribute, original)
        outcome.not_restored = [
            f"{getattr(probe.owner, '__name__', probe.owner)}.{probe.attribute}"
            for probe, original in saved
            if vars(probe.owner).get(probe.attribute) is not original
        ]
        outcome.restored = not outcome.not_restored


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for record in spans:
        if record.parent is not None:
            children.setdefault(record.parent, []).append((record.start, record.end))
    result = []
    for index, record in enumerate(spans):
        covered = 0.0
        cursor = record.start
        for start, end in sorted(children.get(index, [])):
            start, end = max(start, cursor), min(end, record.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(record.seconds - covered)
    return result


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time per span name."""
    totals: Dict[str, float] = {}
    for record, seconds in zip(spans, self_times(spans)):
        totals[record.name] = totals.get(record.name, 0.0) + seconds
    return totals
