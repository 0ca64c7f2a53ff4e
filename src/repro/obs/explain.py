"""EXPLAIN ANALYZE and the slow-transaction log.

The sampling optimizer (PR 6) predicts per-rule LFTJ cost from sampled
prefix cardinalities, and the executors count what actually happened
(seeks/nexts/steps per join, vectorized probes on the columnar path).
This module closes the loop: :func:`explain_query` runs a query with
the optimizer engaged and a profile collecting every ``join`` span,
then pairs each rule's *estimated* steps against its *actual* movement
counts.  The per-rule error ratio ``(est+1)/(actual+1)`` is observed
into the ``optimizer.estimate_error`` histogram — the calibration
signal for the sampler (a well-calibrated optimizer keeps p50 near 1).

The slow-transaction log is the automatic entry point: when a latency
threshold is configured (``REPRO_SLOW_TXN_S`` or
``ServiceConfig.slow_txn_s``), every transaction verb over the
threshold is recorded — kind, name, latency, counter deltas, and trace
coordinates — into a bounded process-wide log served by the telemetry
verb.  With no threshold set the hook is one flag test per
transaction, preserving the PR 2 overhead contract.
"""

import os
import threading
import time

from repro import stats
from repro.obs import core as _core

# -- slow-transaction log ----------------------------------------------------

_SLOW_ENV = "REPRO_SLOW_TXN_S"
_SLOW_LIMIT = 64

_slow_lock = threading.Lock()
_slow_log = []


def _env_threshold():
    raw = os.environ.get(_SLOW_ENV, "")
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else None


_slow_threshold = _env_threshold()


def set_slow_txn_threshold(seconds):
    """Record transactions slower than ``seconds`` (None disables)."""
    global _slow_threshold
    _slow_threshold = float(seconds) if seconds else None
    return _slow_threshold


def slow_txn_threshold():
    """The active latency threshold in seconds, or ``None``."""
    return _slow_threshold


def slow_txn_log():
    """The recorded slow transactions, oldest first (bounded)."""
    with _slow_lock:
        return [dict(entry) for entry in _slow_log]


def clear_slow_txn_log():
    """Drop every recorded entry (test isolation only)."""
    with _slow_lock:
        del _slow_log[:]


def maybe_record_slow(kind, name, latency_s, *, counters=None, span=None):
    """Record one transaction if it crossed the threshold.

    The disabled path (no threshold configured) is a single flag test.
    Returns the recorded entry, or ``None``."""
    threshold = _slow_threshold
    if threshold is None or latency_s < threshold:
        return None
    entry = {
        "ts": time.time(),
        "kind": kind,
        "name": name,
        "latency_s": latency_s,
        "counters": dict(counters) if counters else {},
    }
    if span is not None:
        entry["trace"] = span.trace_id
        entry["span"] = span.sid
    with _slow_lock:
        _slow_log.append(entry)
        if len(_slow_log) > _SLOW_LIMIT:
            del _slow_log[: len(_slow_log) - _SLOW_LIMIT]
    stats.bump("obs.slow_txns")
    return entry


# -- EXPLAIN ANALYZE ---------------------------------------------------------


def _actual_steps(span_):
    """The executor movement count recorded on one ``join`` span,
    across backends (pure LFTJ folds exec stats into attrs and bumps
    ``join.*`` into the span's counter sink; columnar bumps ``join.*``
    itself, which the sink also captures)."""
    counters = span_.counters
    steps = counters.get("join.steps") or span_.attrs.get("steps")
    if steps:
        return steps
    moved = counters.get("join.seeks", 0) + counters.get("join.nexts", 0)
    if moved:
        return moved
    vector = counters.get("join.vector_seeks", 0)
    if vector:
        return vector
    return span_.attrs.get("seeks", 0) + span_.attrs.get("nexts", 0)


class ExplainReport:
    """Per-rule estimated-vs-actual join cost for one query.

    ``rules`` is a list of dicts with keys ``rule``, ``var_order``,
    ``estimated_steps``, ``actual_steps``, ``error_ratio``, ``rows``,
    ``indexes``, ``executions`` — JSON/codec-safe so reports travel the
    wire unchanged."""

    def __init__(self, source, answer, row_count, wall_s, backend, rules):
        self.source = source
        self.answer = answer
        self.row_count = row_count
        self.wall_s = wall_s
        self.backend = backend
        self.rules = rules

    def to_dict(self):
        return {
            "source": self.source,
            "answer": self.answer,
            "row_count": self.row_count,
            "wall_s": self.wall_s,
            "backend": self.backend,
            "rules": [dict(rule) for rule in self.rules],
        }

    @classmethod
    def from_dict(cls, payload):
        return cls(
            payload.get("source", ""),
            payload.get("answer"),
            payload.get("row_count", 0),
            payload.get("wall_s", 0.0),
            payload.get("backend"),
            [dict(rule) for rule in payload.get("rules") or ()],
        )

    def format(self):
        """Human-readable EXPLAIN ANALYZE table."""
        lines = [
            "EXPLAIN ANALYZE  answer={}  rows={}  wall={:.3f}ms  backend={}".format(
                self.answer, self.row_count, self.wall_s * 1000.0, self.backend
            )
        ]
        header = "  {:<20} {:<18} {:>12} {:>12} {:>10} {:>8}".format(
            "rule", "var order", "est. steps", "actual", "est/act", "rows"
        )
        lines.append(header)
        for rule in self.rules:
            order = rule.get("var_order")
            ratio = rule.get("error_ratio")
            lines.append("  {:<20} {:<18} {:>12} {:>12} {:>10} {:>8}".format(
                str(rule.get("rule"))[:20],
                ",".join(order)[:18] if order else "(default)",
                rule.get("estimated_steps", "-"),
                rule.get("actual_steps", "-"),
                "{:.2f}".format(ratio) if ratio is not None else "-",
                rule.get("rows", 0),
            ))
        if not self.rules:
            lines.append("  (no join rules)")
        return "\n".join(lines)


def explain_query(state, source, answer=None, *, backend=None, plan_cache=None,
                  sample_size=256, max_candidates=24):
    """Run ``source`` as a query with the sampling optimizer engaged
    and return an :class:`ExplainReport` pairing the optimizer's
    estimate with the executed join's movement counts per rule.

    Runs through :func:`repro.runtime.workspace.run_query`, the entry
    ``query`` uses, so the answer path and the backend setting are the
    ones ``query`` takes.  The chooser is consulted for every rule, and
    each join's executor follows the order it picks, so a join may run
    on another executor than under ``query``'s default order.  Plans and
    columnar setups land in ``plan_cache``.  The run is collected under
    a private :class:`~repro.obs.Profile` so it works with tracing
    globally off."""
    from repro.engine.ir import PredAtom
    from repro.engine.optimizer import SamplingOptimizer
    from repro.runtime.workspace import run_query

    started = time.perf_counter()
    optimizer = SamplingOptimizer(
        sample_size=sample_size, max_candidates=max_candidates
    )
    with _core.Profile() as prof:
        with _core.span("explain", chars=len(source)):
            run = run_query(
                state, source, answer, plan_cache=plan_cache, backend=backend,
                order_chooser=optimizer,
            )
    wall_s = time.perf_counter() - started

    joins_by_rule = {}
    for span_ in prof.find_all("join"):
        joins_by_rule.setdefault(span_.attrs.get("rule"), []).append(span_)

    report_rules = []
    for rule in run.block.rules:
        label = rule.name or rule.head_pred
        spans = joins_by_rule.get(label, ())
        if not spans and not any(
            isinstance(atom, PredAtom) for atom in rule.body
        ):
            continue
        actual = sum(_actual_steps(s) for s in spans)
        produced = sum(s.attrs.get("rows", 0) for s in spans)
        prediction = optimizer.explain_rule(rule, run.relations)
        entry = {
            "rule": label,
            "executions": len(spans),
            "actual_steps": actual,
            "rows": produced,
            "var_order": None,
            "estimated_steps": None,
            "indexes": None,
            "error_ratio": None,
        }
        if prediction is not None:
            order, estimated, indexes = prediction
            ratio = (estimated + 1.0) / (actual + 1.0)
            entry.update(
                var_order=list(order),
                estimated_steps=estimated,
                indexes=indexes,
                error_ratio=ratio,
            )
            stats.observe("optimizer.estimate_error", ratio)
        report_rules.append(entry)

    return ExplainReport(
        source, run.answer, len(run.rows), wall_s,
        run.evaluator.backend, report_rules,
    )
