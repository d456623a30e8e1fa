"""Timing and tracing of the calls the benchmark makes into revadder.

`Timer` is used for untraced jobs: it only sums the time spent inside
top-level program calls. `Tracer` records one span per call, with name,
start, end, parent and job id, and keeps every span in memory until the
run writes them out. `instrument` installs tracing wrappers on the
library functions that the public calls use internally, so spans nest
(for example the kernel `simulate_batch` inside `verify_rca`). Nothing
in the library is edited; the wrappers are removed when the block ends.
"""
from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Callable, Optional


class Timer:
    """Sums the host seconds spent inside top-level program calls, by call name."""

    def __init__(self) -> None:
        self.calls: dict[str, float] = {}

    def call(self, name: str, fn: Callable, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.calls[name] = self.calls.get(name, 0.0) + perf_counter() - start


@dataclass
class Span:
    id: int
    name: str
    job: int
    parent: Optional[int]
    start: float
    end: float = 0.0
    error: Optional[str] = None
    #: work done by the call, when the layer has a count (gate-lanes for the kernel)
    work: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records a span around every call it makes or wraps."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job = -1
        self._open: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return self._run(name, None, fn, args, kwargs)

    def wrap(self, name: str, fn: Callable, weigh: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._run(name, weigh, fn, args, kwargs)

        return traced

    def _run(self, name, weigh, fn, args, kwargs):
        span = Span(
            id=len(self.spans),
            name=name,
            job=self.job,
            parent=self._open[-1] if self._open else None,
            start=perf_counter(),
        )
        self.spans.append(span)
        self._open.append(span.id)
        try:
            if weigh is not None:
                span.work = weigh(*args, **kwargs)
            return fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = perf_counter()
            self._open.pop()

    def job_calls(self, job: int) -> dict[str, float]:
        """Time inside the job's top-level calls, by name; nested spans are inside them."""
        calls: dict[str, float] = {}
        for span in self.spans:
            if span.job == job and span.parent is None:
                calls[span.name] = calls.get(span.name, 0.0) + span.seconds
        return calls

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        Calls run one at a time in one thread, so children never overlap
        and their covered time is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.seconds
        return [span.seconds - c for span, c in zip(self.spans, child)]

    def records(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def _kernel_work(circuit, batch) -> int:
    return len(circuit.gates) * batch.lanes


def library_targets() -> list[tuple[object, str, str, Optional[Callable]]]:
    """(owner, attribute, span name, work counter) of each call made inside revadder.

    A module that imported a function by name calls it through its own
    global, so each importing module is patched as well.
    """
    # the package re-exports a function named `simulate`, so import modules by path
    adders, core, metrics, simulate = (
        importlib.import_module(f"revadder.{name}")
        for name in ("adders", "core", "metrics", "simulate")
    )
    return [
        (core.Circuit, "extend", "core.extend", None),
        (metrics, "logical_depth", "metrics.logical_depth", None),
        (simulate, "simulate_batch", "simulate.simulate_batch", _kernel_work),
        (adders, "simulate_batch", "simulate.simulate_batch", _kernel_work),
        (simulate, "all_basis_states", "simulate.all_basis_states", None),
        (adders, "all_basis_states", "simulate.all_basis_states", None),
    ]


@contextmanager
def instrument(tracer: Tracer):
    """Route the library's internal calls through `tracer` for the block.

    A name a later version of the library no longer has is skipped, so
    its span, and the per-layer metric built from it, reads zero.
    """
    saved = []
    try:
        for owner, attr, name, weigh in library_targets():
            original = getattr(owner, attr, None)
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, weigh))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
