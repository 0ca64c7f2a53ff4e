"""Transaction-scoped tracing: hierarchical spans, profiles, and
cross-process trace context.

The paper's performance story — LFTJ cost measured in seeks/nexts per
iterator (Veldhuizen 2012), IVM work "proportional to the trace edit
distance" (§3.2), transaction repair proportional to the conflict
(§3.4) — is only verifiable if the engine can explain *where time and
work went*.  This module adds that explanation layer on top of the flat
counters of :mod:`repro.stats`:

* **Spans** — named, nested regions with wall time, key/value
  attributes, and the exact counter deltas bumped inside their window
  (via the scope stack of :mod:`repro.stats`).  The transaction
  lifecycle is instrumented end to end: ``txn.*`` → ``compile`` /
  ``plan`` / ``join`` (with per-execution seek/next/open counts) /
  ``ivm.apply`` / ``ivm.dred`` / ``meta.update`` /
  ``constraints.check`` / ``repair.*``.
* **Profiles** — :class:`Profile` collects the root spans produced on
  its thread; :meth:`~repro.runtime.workspace.Workspace.profile` is the
  user-facing entry point.
* **Trace context** — every root span is stamped with a process-unique
  *trace id*.  :func:`trace_context` captures ``{"trace", "span"}`` for
  shipping across a process boundary; :func:`remote_context` installs a
  received context so the next root span on this thread *continues* the
  remote trace instead of starting a fresh one; :func:`graft` splices a
  serialized remote subtree (a :meth:`Span.to_dict` payload) back under
  the local open span, which is how the network client stitches the
  server/committer side of a transaction into one tree.
* **Exporters** — a JSON-lines trace dump (one span per line, parent
  links included, trace id stamped on every line).

Overhead contract: with tracing disabled (the default), every
instrumentation site costs one function call and one flag test —
:func:`span` returns a shared no-op context manager and the hot
seek/next counting in the executors stays off (their ``stats`` dicts
are simply not requested).  ``REPRO_TRACE=1`` force-enables tracing
process-wide; finished root spans then land in a bounded per-thread
ring buffer (:func:`last_roots`) so long test runs cannot accumulate
unbounded trace state.
"""

import itertools
import json
import os
import threading
import time
import uuid

from repro import stats

_TRACE_ENV = "REPRO_TRACE"
_AMBIENT_LIMIT = 256

_forced = os.environ.get(_TRACE_ENV, "") not in ("", "0")
_local = threading.local()
_totals_lock = threading.Lock()
_span_totals = {}  # span name -> [count, total wall seconds]


_span_ids = itertools.count(1)

# Trace ids must be unique *across* processes (a client, a server, and
# a replica all mint them), so they carry a per-process random seed —
# the span sids stay small ints because they only need to be unique
# within one process's trace file.
_TRACE_SEED = uuid.uuid4().hex[:12]
_trace_ids = itertools.count(1)


def _new_trace_id():
    return "{}-{:x}".format(_TRACE_SEED, next(_trace_ids))


class Span:
    """One named region of a trace: wall time, attributes, counter
    deltas, children.  Attribute values should be JSON-safe.

    ``sid`` is a process-unique span id; transaction results carry the
    root span's sid so a :class:`~repro.runtime.result.TxnResult` can
    be joined back to its trace.  ``trace_id`` is set on root spans
    only (children share their root's trace) and survives process hops:
    a root opened under :func:`remote_context` adopts the remote trace
    id, which is what makes one distributed transaction one trace."""

    __slots__ = ("sid", "name", "attrs", "children", "counters", "wall_s",
                 "trace_id", "_started", "_sink")

    def __init__(self, name, attrs):
        self.sid = next(_span_ids)
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        self.children = []
        self.counters = {}
        self.wall_s = 0.0
        self.trace_id = None
        self._started = time.perf_counter()
        self._sink = stats.push_scope()

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name):
        """First span named ``name`` in this subtree, or ``None``."""
        for span_ in self.walk():
            if span_.name == name:
                return span_
        return None

    def find_all(self, name):
        """Every span named ``name`` in this subtree."""
        return [s for s in self.walk() if s.name == name]

    def to_dict(self):
        """JSON-safe nested representation (the wire/graft exchange
        shape — :func:`span_from_dict` is the inverse)."""
        out = {
            "sid": self.sid,
            "name": self.name,
            "wall_s": self.wall_s,
            "attrs": dict(self.attrs),
            "counters": dict(self.counters),
            "children": [child.to_dict() for child in self.children],
        }
        if self.trace_id is not None:
            out["trace"] = self.trace_id
        return out

    def format(self, indent=0):
        """Human-readable tree rendering."""
        extras = " ".join(
            "{}={}".format(key, value) for key, value in sorted(self.attrs.items())
        )
        line = "{}{:<28} {:>9.3f}ms{}".format(
            "  " * indent,
            self.name,
            self.wall_s * 1000.0,
            "  " + extras if extras else "",
        )
        lines = [line]
        for child in self.children:
            lines.append(child.format(indent + 1))
        return "\n".join(lines)


# -- enablement --------------------------------------------------------------


def enable():
    """Force-enable tracing process-wide (the ``REPRO_TRACE=1`` path)."""
    global _forced
    _forced = True


def disable():
    """Undo :func:`enable` (collectors installed by :func:`Profile`
    keep tracing their own thread regardless)."""
    global _forced
    _forced = False


def _set_forced(value):
    """Restore the force flag to a saved value (test isolation helper —
    assigning ``obs._forced`` directly would only rebind the package
    attribute, not this module's global)."""
    global _forced
    _forced = bool(value)


def tracing():
    """True when spans are currently being recorded on this thread."""
    return _forced or getattr(_local, "collector", None) is not None


# -- the span stack ----------------------------------------------------------


def _stack():
    stack = getattr(_local, "spans", None)
    if stack is None:
        stack = _local.spans = []
    return stack


def _finish_one(span_):
    span_.wall_s = time.perf_counter() - span_._started
    span_.counters = span_._sink
    stats.pop_scope(span_._sink)
    with _totals_lock:
        entry = _span_totals.get(span_.name)
        if entry is None:
            _span_totals[span_.name] = [1, span_.wall_s]
        else:
            entry[0] += 1
            entry[1] += span_.wall_s


def _emit_root(span_):
    _write_trace_file(span_)
    collector = getattr(_local, "collector", None)
    if collector is not None:
        collector.roots.append(span_)
        return
    ring = getattr(_local, "ambient", None)
    if ring is None:
        ring = _local.ambient = []
    ring.append(span_)
    if len(ring) > _AMBIENT_LIMIT:
        del ring[: len(ring) - _AMBIENT_LIMIT]


# -- cross-process trace context ---------------------------------------------


def trace_context():
    """The current trace coordinates as ``{"trace", "span"}``, or
    ``None`` when no span is open (callers ship this across the wire;
    the receiving side installs it with :func:`remote_context`)."""
    stack = getattr(_local, "spans", None)
    if stack:
        return {"trace": stack[0].trace_id, "span": stack[-1].sid}
    ctx = getattr(_local, "remote_ctx", None)
    if ctx:
        return dict(ctx)
    return None


class _RemoteContext:
    """Context manager installing a received trace context on this
    thread: the next *root* span opened inside adopts the remote trace
    id and records the remote parent span sid."""

    __slots__ = ("_ctx", "_prev")

    def __init__(self, ctx):
        self._ctx = ctx
        self._prev = None

    def __enter__(self):
        self._prev = getattr(_local, "remote_ctx", None)
        _local.remote_ctx = self._ctx
        return self._ctx

    def __exit__(self, *exc):
        _local.remote_ctx = self._prev
        self._prev = None
        return False


def remote_context(ctx):
    """Adopt a remote trace context for the duration of the ``with``
    block (no-op when ``ctx`` is missing or malformed, so servers can
    pass whatever arrived on the wire without validating first)."""
    if not isinstance(ctx, dict) or ctx.get("trace") is None:
        return _NOOP
    return _RemoteContext(ctx)


def span_from_dict(record):
    """Rebuild a :class:`Span` tree from a :meth:`Span.to_dict`
    payload.  The rebuilt spans get fresh local sids (the remote sid is
    preserved as the ``remote_sid`` attribute) so id/parent links in
    exported traces stay unique within this process."""
    span_ = Span.__new__(Span)
    span_.sid = next(_span_ids)
    span_.name = str(record.get("name", "?"))
    attrs = record.get("attrs")
    span_.attrs = dict(attrs) if isinstance(attrs, dict) else {}
    remote_sid = record.get("sid")
    if remote_sid is not None:
        span_.attrs.setdefault("remote_sid", remote_sid)
    counters = record.get("counters")
    span_.counters = dict(counters) if isinstance(counters, dict) else {}
    try:
        span_.wall_s = float(record.get("wall_s") or 0.0)
    except (TypeError, ValueError):
        span_.wall_s = 0.0
    span_.trace_id = record.get("trace")
    span_._started = 0.0
    span_._sink = None
    span_.children = [
        span_from_dict(child) for child in record.get("children") or ()
        if isinstance(child, dict)
    ]
    return span_


def graft(record, **extra_attrs):
    """Splice a serialized remote span tree under the innermost open
    span on this thread.  Returns the grafted :class:`Span`, or
    ``None`` when there is no open span or the record is unusable —
    the client-side stitch point for distributed traces."""
    parent = current()
    if parent is None or not isinstance(record, dict):
        return None
    try:
        span_ = span_from_dict(record)
    except Exception:
        return None
    if extra_attrs:
        span_.attrs.update(extra_attrs)
    parent.children.append(span_)
    return span_


# -- streaming trace file -----------------------------------------------------
#
# Per-thread rings and Profiles cover single-threaded flows, but a
# network server finishes root spans on many executor threads at once;
# a long-running process also wants its trace on disk, not in memory.
# trace_to() installs a process-wide JSONL sink: every finished root
# span (any thread) is appended as flat id/parent-linked lines, the
# same exchange format Profile.to_jsonl writes and CI uploads.

_trace_file_lock = threading.Lock()
_trace_file = None


def root_jsonl_lines(root):
    """Flatten one finished root span into JSONL strings (parent links
    via the process-unique span sids; every line carries the root's
    trace id so multi-process dumps can be grouped into traces)."""
    lines = []
    trace_id = root.trace_id

    def emit(span_, parent_sid):
        lines.append(json.dumps({
            "id": span_.sid,
            "parent": parent_sid,
            "trace": trace_id,
            "name": span_.name,
            "wall_s": span_.wall_s,
            "attrs": span_.attrs,
            "counters": span_.counters,
        }, sort_keys=True, default=repr))
        for child in span_.children:
            emit(child, span_.sid)

    emit(root, None)
    return lines


def trace_to(path):
    """Enable tracing and stream every finished root span (from any
    thread) to ``path`` as JSON lines.  Returns the path."""
    global _trace_file
    enable()
    with _trace_file_lock:
        if _trace_file is not None:
            _trace_file.close()
        _trace_file = open(path, "a")
    return path


def trace_file_off():
    """Stop streaming spans to the trace file (tracing stays enabled)."""
    global _trace_file
    with _trace_file_lock:
        if _trace_file is not None:
            _trace_file.close()
            _trace_file = None


def _write_trace_file(span_):
    if _trace_file is None:
        return
    with _trace_file_lock:
        fh = _trace_file
        if fh is None:  # lost the race with trace_file_off()
            return
        for line in root_jsonl_lines(span_):
            fh.write(line + "\n")
        fh.flush()


def _finish(span_):
    """Close ``span_`` (and, defensively, any abandoned descendants
    still open above it) and attach it to its parent or emit it."""
    stack = _stack()
    while stack:
        top = stack.pop()
        _finish_one(top)
        if top is span_:
            break
        # an inner span leaked (e.g. a generator that was never fully
        # consumed); fold it into its parent rather than losing it
        if stack:
            stack[-1].children.append(top)
        else:
            _emit_root(top)
    parent = stack[-1] if stack else None
    if parent is not None:
        parent.children.append(span_)
    else:
        _emit_root(span_)


class _SpanHandle:
    """Context manager for one live span."""

    __slots__ = ("_span", "_name", "_attrs")

    def __init__(self, name, attrs):
        self._name = name
        self._attrs = attrs
        self._span = None

    def __enter__(self):
        stack = _stack()
        span_ = Span(self._name, self._attrs)
        if not stack:
            ctx = getattr(_local, "remote_ctx", None)
            if ctx:
                span_.trace_id = ctx.get("trace")
                remote_parent = ctx.get("span")
                if remote_parent is not None:
                    span_.attrs.setdefault("remote_parent", remote_parent)
            else:
                span_.trace_id = _new_trace_id()
        stack.append(span_)
        self._span = span_
        return span_

    def __exit__(self, *exc):
        _finish(self._span)
        return False


class _NoopSpan:
    """Shared do-nothing context manager: the tracing-disabled path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NOOP = _NoopSpan()


def span(name, **attrs):
    """Open a span named ``name`` (a no-op when tracing is off).

    Yields the live :class:`Span` — or ``None`` when disabled, so call
    sites annotate with ``if sp is not None: sp.attrs[...] = ...``.
    """
    if not tracing():
        return _NOOP
    return _SpanHandle(name, attrs)


def current():
    """The innermost open span on this thread, or ``None``."""
    stack = getattr(_local, "spans", None)
    return stack[-1] if stack else None


def annotate(**attrs):
    """Attach attributes to the innermost open span (no-op when none)."""
    span_ = current()
    if span_ is not None:
        span_.attrs.update(attrs)


def last_roots():
    """Finished root spans captured outside any collector on this
    thread (the ``REPRO_TRACE=1`` ambient ring, newest last)."""
    return list(getattr(_local, "ambient", ()) or ())


def traced_bindings(name, attrs, run, exec_stats, bump_prefix=None):
    """Wrap a bindings iterator in a span covering its consumption.

    ``exec_stats`` is the executor's live counter dict (seeks, nexts,
    opens, steps); on close it is folded into the span's attributes
    and — when ``bump_prefix`` is given — into the global counters (the
    columnar executor bumps its own, so only the pure LFTJ path passes
    a prefix).
    """
    with span(name, **attrs) as span_:
        rows = 0
        try:
            for item in run:
                rows += 1
                yield item
        finally:
            if bump_prefix and exec_stats:
                for key, value in exec_stats.items():
                    stats.bump(bump_prefix + key, value)
            if span_ is not None:
                span_.attrs["rows"] = rows
                if exec_stats:
                    span_.attrs.update(exec_stats)


# -- collectors --------------------------------------------------------------


class Profile:
    """Collects the root spans finished on this thread while active.

    Usage::

        with workspace.profile() as prof:
            workspace.query(...)
        print(prof.format())
    """

    def __init__(self):
        self.roots = []
        self._previous = None

    def __enter__(self):
        self._previous = getattr(_local, "collector", None)
        _local.collector = self
        return self

    def __exit__(self, *exc):
        _local.collector = self._previous
        self._previous = None
        return False

    def walk(self):
        """Every recorded span, depth-first across all roots."""
        for root in self.roots:
            yield from root.walk()

    def find(self, name):
        """First recorded span named ``name``, or ``None``."""
        for span_ in self.walk():
            if span_.name == name:
                return span_
        return None

    def find_all(self, name):
        """Every recorded span named ``name``."""
        return [s for s in self.walk() if s.name == name]

    def counters(self):
        """Counter deltas summed over the root spans (children's bumps
        are already included in their ancestors' windows)."""
        totals = {}
        for root in self.roots:
            for key, value in root.counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def format(self):
        """Human-readable rendering of every root span tree."""
        if not self.roots:
            return "(no spans recorded)"
        return "\n".join(root.format() for root in self.roots)

    def to_dicts(self):
        """JSON-safe nested representation of all roots."""
        return [root.to_dict() for root in self.roots]

    def to_jsonl(self, path):
        """Write one JSON line per span (``id``/``parent`` links flatten
        the tree) — the trace-exchange format CI uploads."""
        with open(path, "w") as fh:
            for line in self.jsonl_lines():
                fh.write(line + "\n")

    def jsonl_lines(self):
        """The JSONL export as a list of strings."""
        lines = []
        next_id = [0]

        def emit(span_, parent_id, trace_id):
            span_id = next_id[0]
            next_id[0] += 1
            lines.append(json.dumps({
                "id": span_id,
                "parent": parent_id,
                "trace": trace_id,
                "name": span_.name,
                "wall_s": span_.wall_s,
                "attrs": span_.attrs,
                "counters": span_.counters,
            }, sort_keys=True, default=repr))
            for child in span_.children:
                emit(child, span_id, trace_id)

        for root in self.roots:
            emit(root, None, root.trace_id)
        return lines


def span_totals():
    """Process-wide per-name span aggregates (count, total seconds) —
    the cheap summary benchmarks embed next to wall times."""
    with _totals_lock:
        return {
            name: {"count": entry[0], "wall_s": entry[1]}
            for name, entry in _span_totals.items()
        }


def reset_span_totals():
    """Clear the per-name aggregates (test isolation only)."""
    with _totals_lock:
        _span_totals.clear()
