"""Spans and counters recorded from outside dlearn.

Each layer is measured by replacing a public function of a `dlearn` module
with a wrapper for the length of a run. dlearn's modules call one another
through module attributes (`subsumption.covers_positive(...)`) or module
globals, which are the same dictionary, so the wrapper sees every call
without any change to the program.

A span is (id, parent, name, start, end, thread, tag). The open-span stack is
kept per thread, because the learner runs coverage work on a thread pool. A
span opened on a pool thread has no parent on its own thread; `adopt_pool_spans`
gives it the span the main thread was blocked in when it started. Spans are
kept in memory and summarized or written out after the run.
"""

from __future__ import annotations

import bisect
import functools
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "thread", "tag")

    def __init__(self, id, parent, name, start, end=None, thread=0, tag=None):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.thread = thread
        self.tag = tag


class Tracer:
    def __init__(self):
        self.main_thread = threading.get_ident()
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        span = Span(sid, stack[-1].id if stack else None, name, time.perf_counter(),
                    thread=threading.get_ident())
        stack.append(span)
        return span

    def end(self, span: Span, tag=None) -> None:
        span.end = time.perf_counter()
        span.tag = tag
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()
        with self._lock:
            self.spans.append(span)


def adopt_pool_spans(spans, main_thread: int) -> None:
    """Parent each root span of another thread to the innermost span that
    was open on the main thread when it started: the main thread hands work
    to the pool and waits inside that span."""
    main = sorted((s for s in spans if s.thread == main_thread), key=lambda s: s.start)
    starts = [s.start for s in main]
    by_id = {s.id: s for s in main}
    for s in spans:
        if s.parent is not None or s.thread == main_thread:
            continue
        i = bisect.bisect_right(starts, s.start) - 1
        host = main[i] if i >= 0 else None
        while host is not None and host.end < s.start:
            host = by_id.get(host.parent)
        if host is not None:
            s.parent = host.id


def self_times(spans) -> dict[int, float]:
    """Self time per span id: its duration minus the part of its interval
    covered by its children (overlapping children are counted once)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = (s.end - s.start) - covered
    return out


def outermost(spans, names) -> list[Span]:
    """Spans named in `names` with no ancestor named in `names`."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = by_id.get(s.parent)
        while p is not None and p.name not in names:
            p = by_id.get(p.parent)
        if p is None:
            out.append(s)
    return out


class Patches:
    """Module attributes replaced for the length of a `with` block."""

    def __init__(self):
        self._saved = []

    def replace(self, module, attr: str, make_wrapper) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(make_wrapper(original)))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False


def spanned(tracer: Tracer, name: str, tag=None):
    """Wrapper factory: one span per call, tagged with tag(args, result)."""

    def make(fn):
        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.end(span, ("raised", type(exc).__name__))
                raise
            tracer.end(span, tag(args, result) if tag is not None else None)
            return result
        return wrapper
    return make


class CoverageCounter:
    """Outermost coverage verdicts: the calls to covers_positive and
    covers_negative that are not made from inside another coverage test on
    the same thread. Counted in timed and traced runs alike."""

    def __init__(self):
        self.attempted = 0
        self.exhausted = 0
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, fn):
        def wrapper(*args, **kwargs):
            depth = getattr(self._local, "depth", 0)
            self._local.depth = depth + 1
            try:
                verdict = fn(*args, **kwargs)
            finally:
                self._local.depth = depth
            if depth == 0:
                with self._lock:
                    self.attempted += 1
                    self.exhausted += bool(verdict.budget_exhausted)
            return verdict
        return wrapper
