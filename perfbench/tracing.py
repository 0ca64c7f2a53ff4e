"""In-memory spans and call counters wrapped around a program's callables.

The benchmark measures the program from outside: it never edits the
program, it replaces attributes.  :func:`wrap_method` and
:func:`wrap_function` swap a class attribute or a module-level function
(in every loaded module that holds it) for a wrapper that records into a
:class:`Recorder` while recording is on, and calls straight through
while it is off.

A *span* is one timed call: name, start, end, thread, parent span.  A
*counted* callable is too hot to span; it adds its call count and time
to its own tally and to the innermost open span's child time, so the
enclosing span's self time stays honest without a span per call.
"""

import functools
import inspect
import sys
import threading
import time


class Span:
    __slots__ = ("sid", "name", "parent", "thread", "start", "end",
                 "child", "counted_ns", "counted_calls", "attrs")

    def __init__(self, sid, name, parent, thread, start):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = start
        self.end = start
        self.child = 0          # ns covered by direct children
        self.counted_ns = 0     # ns of counted calls made directly inside
        self.counted_calls = 0
        self.attrs = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        """Duration minus the time its direct children (spans and
        counted calls) cover."""
        return self.duration - self.child

    def to_dict(self):
        return {"sid": self.sid, "name": self.name, "parent": self.parent,
                "thread": self.thread, "start": self.start, "end": self.end,
                "child": self.child, "counted_ns": self.counted_ns,
                "counted_calls": self.counted_calls, "attrs": self.attrs}


class Recorder:
    """Spans kept in memory, plus per-name tallies of counted calls.

    Thread-safe: each thread keeps its own stack of open spans; closed
    spans and tallies go into shared lists under one lock.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.enabled = False
        self.spans = []
        self.counts = {}        # name -> [calls, ns]
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_sid = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        with self._lock:
            self._next_sid += 1
            sid = self._next_sid
        parent = stack[-1].sid if stack else None
        span = Span(sid, name, parent, threading.get_ident(), self.clock())
        stack.append(span)
        return span

    def close(self, span):
        span.end = self.clock()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child += span.duration
        with self._lock:
            self.spans.append(span)

    def charge(self, ns, calls=0):
        """Charge ``ns`` of counted work to this thread's open span."""
        stack = self._stack()
        if stack:
            stack[-1].child += ns
            stack[-1].counted_ns += ns
            stack[-1].counted_calls += calls

    def tally(self, name, calls, ns):
        with self._lock:
            entry = self.counts.get(name)
            if entry is None:
                self.counts[name] = [calls, ns]
            else:
                entry[0] += calls
                entry[1] += ns

    def count(self, name, ns):
        """One counted call of ``name`` that took ``ns``."""
        self.charge(ns, calls=1)
        self.tally(name, 1, ns)

    def dump(self):
        with self._lock:
            return {"spans": [s.to_dict() for s in self.spans],
                    "counts": {k: list(v) for k, v in self.counts.items()}}


def make_wrapper(recorder, name, fn, *, counted=False, attrs=None):
    """A wrapper of ``fn`` recording a span (or a counted call) named
    ``name``; ``attrs(args, kwargs)`` may attach a dict to the span."""
    if counted:
        depth = threading.local()

        def timed(step):
            # nested counted calls (a join inside a join) count once
            if getattr(depth, "n", 0):
                return step(), 0
            depth.n = 1
            started = recorder.clock()
            try:
                return step(), recorder.clock() - started
            finally:
                depth.n = 0

        def timed_iteration(gen):
            # a generator does its work when iterated, not when called:
            # time every step, charged to the span open at that moment
            total = 0
            try:
                while True:
                    try:
                        item, ns = timed(lambda: next(gen))
                    except StopIteration:
                        return
                    recorder.charge(ns)
                    total += ns
                    yield item
            finally:
                recorder.tally(name, 0, total)

        @functools.wraps(fn)
        def counted_wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            nested = getattr(depth, "n", 0)
            result, ns = timed(lambda: fn(*args, **kwargs))
            if nested:
                return result
            recorder.count(name, ns)
            if inspect.isgenerator(result):
                return timed_iteration(result)
            return result

        return counted_wrapper

    @functools.wraps(fn)
    def span_wrapper(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        span = recorder.open(name)
        if attrs is not None:
            span.attrs = attrs(args, kwargs)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(span)

    return span_wrapper


def wrap_method(recorder, cls, attr, name=None, **kwargs):
    """Replace ``cls.attr`` with a recording wrapper."""
    original = cls.__dict__[attr]
    setattr(cls, attr, make_wrapper(
        recorder, name or "{}.{}".format(cls.__name__, attr), original,
        **kwargs))


def wrap_function(recorder, module, attr, name=None, **kwargs):
    """Replace ``module.attr`` with a recording wrapper, in ``module``
    and in every loaded module that imported it by name."""
    original = getattr(module, attr)
    wrapper = make_wrapper(recorder, name or attr, original, **kwargs)
    for loaded in list(sys.modules.values()):
        namespace = getattr(loaded, "__dict__", None)
        if namespace is not None and namespace.get(attr) is original:
            setattr(loaded, attr, wrapper)


# -- analysis -----------------------------------------------------------------


def totals(spans):
    """Per span name: ``{calls, total_ns, self_ns}`` over span dicts (as
    :meth:`Recorder.dump` gives)."""
    out = {}
    for span in spans:
        entry = out.setdefault(span["name"], {
            "calls": 0, "total_ns": 0, "self_ns": 0})
        duration = span["end"] - span["start"]
        entry["calls"] += 1
        entry["total_ns"] += duration
        entry["self_ns"] += duration - span["child"]
    return out


def counted_within(spans, name):
    """Counted calls and ns made anywhere inside spans named ``name``
    (directly or under nested spans)."""
    by_sid = {s["sid"]: s for s in spans}
    calls = ns = 0
    for span in spans:
        cursor = span
        while cursor is not None:
            if cursor["name"] == name:
                calls += span["counted_calls"]
                ns += span["counted_ns"]
                break
            cursor = by_sid.get(cursor["parent"])
    return calls, ns
