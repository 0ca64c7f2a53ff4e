"""The concurrent transaction service (paper pillars 2 + 6, served).

:class:`TransactionService` turns the single-threaded ``Workspace``
into a concurrent transaction manager following the paper's optimistic
branch-merge discipline:

* **Writers** (``exec``) run on their own O(1) branch snapshot of the
  head version — execution never blocks other writers or readers.
  Executed transactions queue for commit; a single committer thread
  drains the queue in arrival order.  For each transaction the
  committer *diffs the snapshot against the moved head* (structural
  diffing via :mod:`repro.ds.diff`, cost proportional to what actually
  changed), restricts the diff to the transaction's recorded
  sensitivities, and — in ``repair`` mode — merge-commits by
  incrementally repairing the transaction under those corrections
  (:mod:`repro.txn.repair`).  Irreconcilable conflicts (``occ`` mode,
  repair failures, injected faults) surface as
  :class:`~repro.runtime.errors.ConflictError`; the submitting thread
  retries on a fresh snapshot with truncated exponential backoff and
  deterministic jitter, up to the configured budget.

* **Group commit**: every transaction queued when the committer wakes
  is composed into one commit group (each member repaired against the
  accumulated effects of the members before it — the Figure 7(b)
  circuit) and applied through one IVM pass + one constraint check.
  This is what makes throughput *scale with writer count* even on one
  interpreter: per-commit overhead is amortized over the batch.  If
  the composed group violates a constraint, the committer falls back to
  serial re-execution of the members so the violator alone aborts.

* **Readers** (``query``/``rows``) are lock-free: they pin the head
  version (one reference) and evaluate against that immutable snapshot
  while the head moves on.

* **DDL** (``addblock``/``removeblock``/``load``) rides the same queue
  as a *barrier*: the committer flushes the group in front of it, runs
  the verb on the head, and continues — full serialization with the
  write stream, no extra locking.

* **Admission control** bounds the in-flight window and sheds load
  with typed :class:`Overloaded` errors; per-transaction deadlines
  abort with :class:`TxnTimeout` at whichever stage they expire.

Instrumentation: ``service.*`` counters/histograms/gauges through
:mod:`repro.stats`, and ``service.exec`` / ``service.commit_batch`` /
``service.query`` spans through :mod:`repro.obs`.
"""

import itertools
import random
import threading
import time

from repro import obs as _obs
from repro import stats as _stats
from repro.ds.diff import diff_pmap
from repro.runtime.errors import (
    ConflictError,
    ReproError,
    TransactionAborted,
    TxnTimeout,
)
from repro.runtime.result import TxnResult
from repro.runtime.workspace import Workspace, evaluate_query
from repro.ds.hashing import stable_hash
from repro.service.admission import AdmissionController
from repro.service.config import ServiceConfig
from repro.storage.relation import Delta, Relation
from repro.txn.repair import PreparedTransaction, compose_corrections

_txn_counter = itertools.count(1)
_WAIT_SLICE_S = 0.05


class _Pending:
    """One executed write transaction queued for commit.

    ``traced`` snapshots whether the *submitting* thread was tracing
    when the transaction was queued — the committer uses it to decide
    whether to capture its commit span for this member even though the
    committer thread itself has no collector (client-driven tracing).
    ``commit_span`` receives the serialized ``service.commit_batch``
    span tree after commit, for grafting into the submitter's trace."""

    __slots__ = ("txn", "source", "snapshot", "ticket", "event", "error",
                 "committed", "attempt", "sink", "traced", "commit_span")

    def __init__(self, txn, source, snapshot, ticket, attempt, sink):
        self.txn = txn
        self.source = source
        self.snapshot = snapshot
        self.ticket = ticket
        self.event = threading.Event()
        self.error = None
        self.committed = False
        self.attempt = attempt
        self.sink = sink
        self.traced = _obs.tracing()
        self.commit_span = None


class _Barrier:
    """A verb the committer must run serialized with the write stream."""

    __slots__ = ("fn", "kind", "ticket", "event", "error", "result")

    def __init__(self, fn, kind, ticket):
        self.fn = fn
        self.kind = kind
        self.ticket = ticket
        self.event = threading.Event()
        self.error = None
        self.result = None


class _ShardHeld:
    """A prepared cross-shard transaction parked between ``shard_prepare``
    and the coordinator's ``shard_commit``/``shard_abort`` order."""

    __slots__ = ("txn", "source", "snapshot", "ticket")

    def __init__(self, txn, source, snapshot, ticket):
        self.txn = txn
        self.source = source
        self.snapshot = snapshot
        self.ticket = ticket


class _ShardTxn:
    """Commit-stage stand-in for a coordinator-composed transaction.

    The coordinator has already run the cross-shard repair circuit over
    every shard's branch diff; the deltas it orders committed are final.
    If the local head moved under the prepared snapshot in a way that
    touches the transaction's reads *or* its composed writes, the only
    safe outcome is a :class:`ConflictError` — a local repair here would
    diverge this shard from the siblings the coordinator already
    reconciled, so the coordinator re-runs the whole circuit instead.
    """

    __slots__ = ("name", "effects", "_inner")

    def __init__(self, inner, effects):
        self._inner = inner
        self.name = inner.name
        self.effects = effects

    @property
    def repair_count(self):
        return self._inner.repair_count

    def relevant_corrections(self, corrections):
        relevant = dict(self._inner.relevant_corrections(corrections))
        for pred, delta in corrections.items():
            if pred in self.effects and pred not in relevant:
                relevant[pred] = delta
        return relevant

    def correct(self, relevant):
        raise ConflictError(
            "cross-shard transaction {} invalidated by a local commit; "
            "the coordinator must re-run the circuit".format(self.name),
            preds=relevant,
        )

    def execute(self, state):
        """No-op for the serial-commit fallback: the composed deltas are
        coordinator-final and must be applied verbatim or not at all."""
        return self.effects


class TransactionService:
    """Concurrent transaction manager + session layer over a workspace.

    All constructor flags are keyword-only.  The service owns the
    workspace's branch head: while the service is open, drive all
    writes through it (direct ``Workspace`` verbs would race the
    committer).  Reads may go anywhere — states are immutable.
    """

    #: this endpoint's fleet role; replicas advertise ``"replica"``
    #: through their service facade, a real service is the leader
    role = "leader"

    def __init__(self, workspace=None, *, config=None, faults=None):
        self.config = config if config is not None else ServiceConfig()
        recovered = False
        if workspace is None:
            workspace = self._recover_workspace(self.config)
            recovered = True
        self.workspace = workspace
        self.faults = faults
        self._admission = AdmissionController(
            max_pending=self.config.max_pending,
            default_timeout_s=self.config.default_timeout_s,
            retry_after_s=self.config.backoff_cap_s,
        )
        self._queue = []
        self._queue_cond = threading.Condition()
        self._committer = None
        self._closed = False
        self._counters = {}
        self._counters_lock = threading.Lock()
        self._rng = random.Random(self.config.jitter_seed)
        self._rng_lock = threading.Lock()
        self._history = []
        # the commit watermark: highest committed transaction sequence
        # number.  Written only on the committer thread; read (as one
        # atomic int) from any thread.  A service recovered from a
        # checkpoint resumes the sequence from the manifest's recorded
        # watermark, so watermarks stay monotonic across restarts.
        self._watermark = 0
        self._checkpoint_seq = 0
        self._checkpoint_watermark = 0
        self._ckpt_cond = threading.Condition()
        if self.config.checkpoint_path:
            from repro.storage.pager import read_manifest

            manifest = read_manifest(self.config.checkpoint_path)
            if manifest is not None:
                self._checkpoint_seq = manifest["seq"]
                self._checkpoint_watermark = manifest.get("watermark", 0)
                if recovered:
                    self._watermark = self._checkpoint_watermark
        self._commit_seq = itertools.count(self._watermark + 1)
        self._sessions = itertools.count(1)
        # source text -> compiled RuleSet: repeated transaction shapes
        # (retries, parameterized client templates) skip the parser and
        # compiler entirely; plans are shared via the workspace's plan
        # cache, so a warm source costs only its joins
        self._ruleset_cache = {}
        self._ruleset_lock = threading.Lock()
        # commits since the last durable checkpoint; touched only by the
        # committer thread (auto-checkpoint) and close()
        self._commits_since_checkpoint = 0
        self._checkpoint_count = 0
        # prepared cross-shard transactions parked for the coordinator
        # (token -> _ShardHeld); see the shard_* verbs below
        self._shard_held = {}
        self._shard_lock = threading.Lock()
        self._shard_seq = itertools.count(1)
        if self.config.slow_txn_s is not None:
            _obs.set_slow_txn_threshold(self.config.slow_txn_s)

    @staticmethod
    def _recover_workspace(config):
        """Restart recovery: reopen the checkpoint named by the config
        (when one exists), else start from an empty workspace."""
        if config.checkpoint_path:
            from repro.storage.pager import has_checkpoint

            if has_checkpoint(config.checkpoint_path):
                _stats.bump("service.recoveries")
                return Workspace.open(config.checkpoint_path, engine=config.engine)
        return Workspace(engine=config.engine)

    # -- lifecycle -------------------------------------------------------------

    def close(self):
        """Drain the commit queue, stop the committer thread, and (when
        configured) write a final durable checkpoint."""
        with self._queue_cond:
            if self._closed:
                return
            self._closed = True
            self._queue_cond.notify_all()
        if self._committer is not None:
            self._committer.join()
        # drop any shard transactions still parked for a coordinator
        # (its circuit can't complete once this shard is gone)
        with self._shard_lock:
            held, self._shard_held = list(self._shard_held.values()), {}
        for item in held:
            self._admission.release(item.ticket)
        if (
            self.config.checkpoint_path
            and self.config.checkpoint_on_shutdown
        ):
            self._checkpoint_now()
        # release long-poll watchers so a draining leader never strands
        # a replica's heartbeat request for the full watch timeout
        with self._ckpt_cond:
            self._ckpt_cond.notify_all()

    def _checkpoint_now(self):
        """Write a checkpoint to the configured path.  Runs only on the
        committer thread or after it has drained, so it never races a
        commit."""
        fault_fire = None
        if self.faults is not None:
            fault_fire = lambda point: self.faults.fire(point, "checkpoint")
        watermark = self._watermark
        result = self.workspace.checkpoint(
            self.config.checkpoint_path, fault_fire=fault_fire,
            watermark=watermark,
        )
        self._commits_since_checkpoint = 0
        self._checkpoint_count += 1
        # wake every long-poll watcher (replica heartbeat/notify path):
        # a new checkpoint is durable and ready to delta-sync
        with self._ckpt_cond:
            self._checkpoint_seq = result["seq"]
            self._checkpoint_watermark = watermark
            self._ckpt_cond.notify_all()
        return result

    def checkpoint(self, *, timeout=None):
        """Write a durable checkpoint now, serialized with the write
        stream (a barrier, like DDL).  Returns the pager's counter dict."""
        if self.config.checkpoint_path is None:
            raise ReproError("service has no checkpoint_path configured")
        return self._barrier(
            lambda ws: self._checkpoint_now(), "checkpoint", timeout)

    def serve(self, host="127.0.0.1", port=0):
        """Expose this service over TCP: starts (and returns) a
        :class:`repro.net.ReproServer` bound to ``host:port`` (port 0
        picks a free port — read it back from ``server.port``).  The
        caller owns the server's lifecycle; ``server.stop()`` drains
        connections without closing this service."""
        from repro.net.server import ReproServer

        return ReproServer(self, host=host, port=port, faults=self.faults).start()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def _ensure_open(self):
        if self._closed:
            raise ReproError("service is closed")

    def _fire(self, point, txn_name):
        if self.faults is not None:
            self.faults.fire(point, txn_name)

    def _merge_stats(self, sink):
        if not sink:
            return
        with self._counters_lock:
            for key, value in sink.items():
                self._counters[key] = self._counters.get(key, 0) + value

    def _prepare(self, source, name):
        """Build a :class:`PreparedTransaction`, reusing the compiled
        ruleset for previously-seen source text and the workspace's
        cross-transaction plan cache."""
        if not isinstance(source, str):
            return PreparedTransaction(source, name=name)
        with self._ruleset_lock:
            ruleset = self._ruleset_cache.get(source)
        if ruleset is None:
            txn = PreparedTransaction(
                source, name=name, plan_cache=self.workspace._plan_cache)
            with self._ruleset_lock:
                if len(self._ruleset_cache) >= 512:
                    self._ruleset_cache.pop(next(iter(self._ruleset_cache)))
                self._ruleset_cache[source] = txn.ruleset
            return txn
        _stats.bump("service.prepare_cache.hits")
        return PreparedTransaction(
            source, name=name, ruleset=ruleset,
            plan_cache=self.workspace._plan_cache)

    # -- client surface: reads -------------------------------------------------

    def query(self, source, *, answer=None):
        """Evaluate a query lock-free against the current head snapshot;
        returns the answer rows (use :meth:`query_result` for the
        structured form)."""
        return self.query_result(source, answer=answer).rows

    def query_result(self, source, *, answer=None):
        """Lock-free read returning a full :class:`TxnResult`."""
        started = time.perf_counter()
        sink = {}
        with _obs.span("service.query") as span_:
            with _stats.scope(sink):
                _stats.bump("service.queries")
                state = self.workspace.version().state  # pinned snapshot
                rows = evaluate_query(
                    state,
                    source,
                    answer,
                    plan_cache=self.workspace._plan_cache,
                    backend=self.workspace._engine_backend,
                )
            if span_ is not None:
                span_.attrs["rows"] = len(rows)
        self._merge_stats(sink)
        return TxnResult(
            status="committed",
            kind="query",
            rows=rows,
            stats=sink,
            span_id=span_.sid if span_ is not None else None,
            latency_s=time.perf_counter() - started,
        )

    def rows(self, pred):
        """Current rows of a predicate at the head snapshot."""
        return list(self.workspace.version().state.relation(pred))

    # -- client surface: writes ------------------------------------------------

    def exec(self, source, *, timeout=None, name=None):
        """Run a reactive write transaction concurrently; returns its
        :class:`TxnResult` once committed.

        Raises :class:`Overloaded` (shed at admission),
        :class:`TxnTimeout` (deadline), :class:`ConflictError` (after
        the retry budget), or :class:`TransactionAborted` subclasses
        from constraint checking — the head is untouched in all cases.
        """
        self._ensure_open()
        if name is None:
            name = "txn-{}".format(next(_txn_counter))
        started = time.perf_counter()
        call_sink = {}
        try:
            with _stats.scope(call_sink):
                ticket = self._admission.admit(kind="exec", timeout_s=timeout)
                try:
                    with _obs.span("service.exec", txn=name) as span_:
                        result = self._run_write(source, name, ticket, started)
                        if span_ is not None:
                            span_.attrs["attempts"] = result.attempts
                            result.span_id = span_.sid
                        return result
                finally:
                    self._admission.release(ticket)
        finally:
            self._merge_stats(call_sink)

    def _run_write(self, source, name, ticket, started):
        attempt = 0
        while True:
            attempt += 1
            if attempt == 1:
                self._fire("admission", name)
            self._fire("execute", name)
            snapshot = self.workspace.version()  # O(1) branch of the head
            txn = self._prepare(source, name)
            # nested inside the call-level scope: these bumps reach the
            # service counters through it; the per-attempt sink is kept
            # only to become the TxnResult's stats field
            sink = {}
            with _stats.scope(sink):
                txn.execute(snapshot.state)
            if ticket.expired():
                _stats.bump("service.timeouts")
                raise TxnTimeout(
                    "transaction {} missed its deadline before commit".format(name),
                    deadline_s=ticket.deadline,
                )
            pending = _Pending(txn, source, snapshot, ticket, attempt, sink)
            self._enqueue(pending)
            self._await(pending)
            if pending.committed:
                if pending.commit_span is not None:
                    # stitch the committer-side span tree (closed, with
                    # final counters) under this writer's exec span
                    _obs.graft(pending.commit_span, origin="committer")
                _stats.observe("service.commit.seconds",
                               time.perf_counter() - started)
                return TxnResult(
                    status="committed",
                    kind="exec",
                    deltas=dict(txn.effects),
                    stats=sink,
                    attempts=attempt,
                    repairs=txn.repair_count,
                    latency_s=time.perf_counter() - started,
                )
            error = pending.error
            if isinstance(error, ConflictError) and attempt <= self.config.max_retries:
                _stats.bump("service.retries")
                self._backoff(attempt, ticket)
                if ticket.expired():
                    _stats.bump("service.timeouts")
                    raise TxnTimeout(
                        "transaction {} timed out while retrying".format(name),
                        deadline_s=ticket.deadline,
                    ) from error
                continue
            _stats.bump("service.aborts")
            raise error

    def _backoff(self, attempt, ticket):
        base = self.config.backoff_base_s * (2 ** (attempt - 1))
        with self._rng_lock:
            jitter = self._rng.random()
        delay = min(self.config.backoff_cap_s, base) * (0.5 + jitter)
        remaining = ticket.remaining()
        delay = max(0.0, min(delay, remaining))
        if delay:
            time.sleep(delay)

    # -- client surface: DDL barriers ------------------------------------------

    def addblock(self, source, *, name=None, timeout=None):
        """Install a block, serialized with the write stream."""
        return self._barrier(
            lambda ws: ws.addblock(source, name=name), "addblock", timeout)

    def removeblock(self, name, *, timeout=None):
        """Remove a block, serialized with the write stream."""
        return self._barrier(
            lambda ws: ws.removeblock(name), "removeblock", timeout)

    def load(self, pred, tuples, remove=(), *, timeout=None):
        """Bulk load, serialized with the write stream."""
        tuples = list(tuples)
        remove = list(remove)
        return self._barrier(
            lambda ws: ws.load(pred, tuples, remove), "load", timeout)

    def _barrier(self, fn, kind, timeout):
        self._ensure_open()
        call_sink = {}
        try:
            with _stats.scope(call_sink):
                ticket = self._admission.admit(kind=kind, timeout_s=timeout)
                try:
                    barrier = _Barrier(fn, kind, ticket)
                    self._enqueue(barrier)
                    self._await(barrier)
                    if barrier.error is not None:
                        _stats.bump("service.aborts")
                        raise barrier.error
                    return barrier.result
                finally:
                    self._admission.release(ticket)
        finally:
            self._merge_stats(call_sink)

    # -- client surface: cross-shard commit circuit ----------------------------
    #
    # A sharded commit is not 2PC: there is no blocking prepared state
    # holding locks.  The coordinator runs the transaction-repair
    # circuit of Figure 7(b) *across* shards: every shard executes the
    # transaction against its own snapshot (shard_prepare), the
    # coordinator composes the shards' effects into corrections and
    # repairs each shard against the others' writes (shard_repair),
    # then commits the final composed deltas shard by shard
    # (shard_commit).  A local commit racing the circuit invalidates
    # the token's snapshot; the shard refuses to repair locally (that
    # would diverge it from its siblings) and the coordinator re-runs
    # the whole circuit from fresh snapshots.

    def shard_identity(self):
        """This service's ``(index, count)`` in a sharded fleet, or
        ``None`` when unsharded."""
        if self.config.shard_count is None:
            return None
        return (self.config.shard_index, self.config.shard_count)

    def _resolve_shard_identity(self, shard_index, shard_count):
        configured = self.shard_identity()
        if shard_index is None and shard_count is None:
            if configured is None:
                raise ReproError(
                    "service has no shard identity configured and the "
                    "coordinator supplied none")
            return configured
        if shard_index is None or shard_count is None:
            raise ReproError(
                "shard_index and shard_count must be supplied together")
        supplied = (int(shard_index), int(shard_count))
        if configured is not None and supplied != configured:
            raise ReproError(
                "shard identity mismatch: coordinator says {}/{} but this "
                "service is configured as {}/{}".format(
                    supplied[0], supplied[1], configured[0], configured[1]))
        return supplied

    @staticmethod
    def _split_effects(effects, partition, index, count):
        """Split a delta map into rows this shard owns (replicated
        predicates, plus partitioned rows hashing here) and *foreign*
        rows the coordinator must redistribute to their owners."""
        partition = partition or {}
        own = {}
        foreign = {}
        for pred, delta in effects.items():
            col = partition.get(pred)
            if col is None:
                if delta.added or delta.removed:
                    own[pred] = delta
                continue
            mine_added, mine_removed = [], []
            theirs_added, theirs_removed = [], []
            for row in delta.added:
                if stable_hash(row[col]) % count == index:
                    mine_added.append(row)
                else:
                    theirs_added.append(row)
            for row in delta.removed:
                if stable_hash(row[col]) % count == index:
                    mine_removed.append(row)
                else:
                    theirs_removed.append(row)
            if mine_added or mine_removed:
                own[pred] = Delta.from_iters(mine_added, mine_removed)
            if theirs_added or theirs_removed:
                foreign[pred] = Delta.from_iters(theirs_added, theirs_removed)
        return own, foreign

    def _shard_pop(self, token):
        with self._shard_lock:
            return self._shard_held.pop(token, None)

    def _shard_get(self, token):
        with self._shard_lock:
            held = self._shard_held.get(token)
        if held is None:
            raise ReproError("unknown shard transaction token {!r}".format(token))
        return held

    def shard_prepare(self, source, *, name=None, partition=None,
                      shard_index=None, shard_count=None, preflight=True,
                      timeout=None):
        """Phase 1 of a cross-shard commit: execute ``source`` against
        this shard's head snapshot and park the prepared transaction
        under a token.

        Returns ``{"token", "effects", "foreign", "watermark"}`` where
        ``effects`` holds the deltas this shard owns and ``foreign``
        the partitioned rows owned by sibling shards (the coordinator
        redistributes those).  With ``preflight`` (default) the owned
        deltas are staged — maintenance plus constraint check — against
        the snapshot, so obvious violations surface before any shard
        commits; nothing is applied to the head either way.
        """
        self._ensure_open()
        index, count = self._resolve_shard_identity(shard_index, shard_count)
        if name is None:
            name = "shard-txn-{}".format(next(_txn_counter))
        call_sink = {}
        try:
            with _stats.scope(call_sink):
                _stats.bump("shard.prepares")
                ticket = self._admission.admit(
                    kind="shard_prepare", timeout_s=timeout)
                parked = False
                try:
                    with _obs.span("shard.prepare", txn=name):
                        snapshot = self.workspace.version()
                        txn = self._prepare(source, name)
                        txn.execute(snapshot.state)
                        own, foreign = self._split_effects(
                            txn.effects, partition, index, count)
                        if preflight and own:
                            # stage (validate + maintain + check) without
                            # touching the head: constraint violations
                            # abort the circuit before any shard commits
                            self.workspace._stage_deltas(snapshot.state, own)
                        token = "shard-{}-{}".format(
                            index, next(self._shard_seq))
                        with self._shard_lock:
                            self._shard_held[token] = _ShardHeld(
                                txn, source, snapshot, ticket)
                        parked = True
                        return {
                            "token": token,
                            "effects": own,
                            "foreign": foreign,
                            "watermark": self._watermark,
                        }
                finally:
                    if not parked:
                        self._admission.release(ticket)
        finally:
            self._merge_stats(call_sink)

    def shard_repair(self, token, corrections, *, partition=None,
                     shard_index=None, shard_count=None):
        """Phase 2: repair a parked shard transaction against sibling
        shards' corrections (their owned effects plus redistributed
        rows), re-split the repaired effects, and return them."""
        self._ensure_open()
        index, count = self._resolve_shard_identity(shard_index, shard_count)
        held = self._shard_get(token)
        call_sink = {}
        try:
            with _stats.scope(call_sink):
                with _obs.span("shard.repair", txn=held.txn.name):
                    relevant = (
                        held.txn.relevant_corrections(corrections)
                        if corrections else {}
                    )
                    if relevant:
                        _stats.bump("shard.repairs")
                        held.txn.correct(relevant)
                    own, foreign = self._split_effects(
                        held.txn.effects, partition, index, count)
                    return {
                        "effects": own,
                        "foreign": foreign,
                        "repairs": held.txn.repair_count,
                    }
        finally:
            self._merge_stats(call_sink)

    def shard_commit(self, token, deltas, *, timeout=None):
        """Phase 3: commit a parked shard transaction with the
        coordinator's final composed deltas.

        The commit rides the ordinary pipeline from the parked
        snapshot; if a local write slipped in since prepare, the
        conflict is *not* repaired locally (that would diverge this
        shard from its siblings, which already agreed on ``deltas``) —
        it raises :class:`ConflictError` and the coordinator re-runs
        the whole circuit."""
        self._ensure_open()
        held = self._shard_pop(token)
        if held is None:
            raise ReproError(
                "unknown shard transaction token {!r}".format(token))
        started = time.perf_counter()
        call_sink = {}
        try:
            with _stats.scope(call_sink):
                _stats.bump("shard.commits")
                try:
                    with _obs.span("shard.commit", txn=held.txn.name):
                        txn = _ShardTxn(held.txn, dict(deltas))
                        sink = {}
                        pending = _Pending(
                            txn, held.source, held.snapshot, held.ticket,
                            1, sink)
                        self._enqueue(pending)
                        self._await(pending)
                        if pending.committed:
                            if pending.commit_span is not None:
                                _obs.graft(
                                    pending.commit_span, origin="committer")
                            _stats.observe(
                                "service.commit.seconds",
                                time.perf_counter() - started)
                            return TxnResult(
                                status="committed",
                                kind="exec",
                                deltas=dict(txn.effects),
                                stats=sink,
                                attempts=1,
                                repairs=txn.repair_count,
                                latency_s=time.perf_counter() - started,
                            )
                        _stats.bump("service.aborts")
                        raise pending.error
                finally:
                    self._admission.release(held.ticket)
        finally:
            self._merge_stats(call_sink)

    def shard_abort(self, token):
        """Drop a parked shard transaction (idempotent)."""
        held = self._shard_pop(token)
        if held is None:
            return {"aborted": False}
        self._admission.release(held.ticket)
        call_sink = {}
        with _stats.scope(call_sink):
            _stats.bump("shard.aborts")
        self._merge_stats(call_sink)
        return {"aborted": True}

    def shard_apply(self, deltas, *, timeout=None):
        """Apply raw deltas through the barrier path (serialized with
        the write stream, IVM + constraint checked).  The coordinator
        uses this to redistribute misplaced rows to their owning shard
        and to compensate committed shards when a sibling's commit
        fails mid-circuit."""
        started = time.perf_counter()

        def run(ws):
            sink = {}
            with _stats.scope(sink):
                applied = ws._apply_deltas(ws.version().state, deltas)
            _stats.bump("shard.applies")
            return TxnResult(
                status="committed",
                kind="exec",
                deltas=dict(applied),
                stats=sink,
                attempts=1,
                repairs=0,
                latency_s=time.perf_counter() - started,
            )

        return self._barrier(run, "shard_apply", timeout)

    # -- the commit pipeline ---------------------------------------------------

    def _enqueue(self, item):
        with self._queue_cond:
            if self._closed:
                raise ReproError("service is closed")
            self._queue.append(item)
            depth = len(self._queue)
            if self._committer is None:
                self._committer = threading.Thread(
                    target=self._committer_loop,
                    name="repro-service-committer",
                    daemon=True,
                )
                self._committer.start()
            self._queue_cond.notify_all()
        _stats.gauge("service.queue_depth", depth)
        _stats.observe("service.queue.depth", depth)

    def _await(self, item):
        while not item.event.wait(_WAIT_SLICE_S):
            with self._queue_cond:
                committer_dead = (
                    self._closed
                    and (self._committer is None or not self._committer.is_alive())
                )
            if committer_dead and not item.event.is_set():
                raise ReproError("service closed before the transaction finished")

    def _committer_loop(self):
        while True:
            with self._queue_cond:
                while not self._queue and not self._closed:
                    self._queue_cond.wait()
                if not self._queue and self._closed:
                    return
                batch = self._queue
                self._queue = []
            _stats.gauge("service.queue_depth", 0)
            sink = {}
            try:
                with _stats.scope(sink):
                    self._process_batch(batch)
            except BaseException as exc:  # defensive: never strand writers
                for item in batch:
                    if not item.event.is_set():
                        item.error = item.error or exc
                        item.event.set()
            self._merge_stats(sink)
            self._maybe_auto_checkpoint()

    def _maybe_auto_checkpoint(self):
        """Committer-thread hook: checkpoint when enough commits have
        accumulated.  A failing checkpoint (disk trouble, injected
        fault) must not take down the commit pipeline — the previous
        checkpoint is still intact, so we count the error and carry on."""
        every = self.config.checkpoint_every_n_commits
        if not every or self._commits_since_checkpoint < every:
            return
        try:
            self._checkpoint_now()
        except Exception:
            _stats.bump("service.checkpoint_errors")

    def _process_batch(self, batch):
        """Commit a drained queue: groups of writes, barriers between."""
        group = []
        for item in batch:
            if isinstance(item, _Pending):
                group.append(item)
                if self.config.group_commit:
                    continue
                self._commit_group([item])
                group = []
                continue
            if group:
                self._commit_group(group)
                group = []
            self._run_barrier(item)
        if group:
            self._commit_group(group)

    def _run_barrier(self, barrier):
        try:
            if barrier.ticket.expired():
                _stats.bump("service.timeouts")
                raise TxnTimeout(
                    "{} barrier missed its deadline".format(barrier.kind))
            barrier.result = barrier.fn(self.workspace)
            if barrier.kind in ("addblock", "removeblock", "load", "shard_apply"):
                self._commits_since_checkpoint += 1
                # DDL moves state too: advance the watermark so
                # read-your-writes covers schema changes and bulk loads
                self._watermark = next(self._commit_seq)
        except Exception as exc:
            barrier.error = exc
        finally:
            barrier.event.set()

    def _commit_group(self, group):
        """Compose and commit one group of executed transactions.

        When any member's submitter was tracing, the committer records
        the ``service.commit_batch`` span even though this thread has
        no collector of its own, *closes* it (so wall time and counter
        deltas are final), and only then hands the serialized span tree
        to the committed members and fires their events — the waiting
        writers graft it into their own traces, which is how one
        distributed transaction becomes one span tree.
        """
        needs_collector = (
            not _obs.tracing() and any(p.traced for p in group)
        )
        if needs_collector:
            # a throwaway collector: it makes tracing() true on this
            # thread so real spans are recorded; the root is exported
            # via the captured span object, not the profile
            with _obs.Profile():
                committed, batch_span = self._commit_members(group)
        else:
            committed, batch_span = self._commit_members(group)
        span_dict = batch_span.to_dict() if batch_span is not None else None
        for pending in committed:
            pending.commit_span = span_dict
            pending.event.set()

    def _commit_members(self, group):
        """The batch commit itself.  Returns ``(committed_members,
        batch_span)`` — committed members have ``committed`` set but
        their events NOT fired; the caller fires them once the span is
        closed.  Members that abort or time out get their events set
        immediately (there is nothing to graft for them).

        Members are repaired (or conflicted, in ``occ`` mode) against
        the head diff plus the accumulated effects of earlier members,
        then the composite delta is applied through one IVM pass and
        one constraint check (the Figure 7(b) batch).  A constraint
        violation in the composite falls back to serial re-execution so
        only the violating member aborts.
        """
        committed = []
        batch_span = None
        with _obs.span("service.commit_batch", batch=len(group)) as span_:
            batch_span = span_
            _stats.bump("service.batches")
            _stats.observe("service.batch.size", len(group))
            head = self.workspace.version()
            accumulated = {}
            members = []
            diff_cache = {}
            repaired = 0
            for pending in group:
                if pending.ticket.expired():
                    _stats.bump("service.timeouts")
                    pending.error = TxnTimeout(
                        "transaction {} missed its deadline in the commit "
                        "queue".format(pending.txn.name))
                    pending.event.set()
                    continue
                try:
                    self._fire("commit", pending.txn.name)
                    corrections = self._corrections_since(
                        pending.snapshot, head, diff_cache)
                    if accumulated:
                        corrections = compose_corrections(corrections, accumulated)
                    relevant = (
                        pending.txn.relevant_corrections(corrections)
                        if corrections else {}
                    )
                    if relevant:
                        _stats.bump("service.conflicts")
                        if self.config.mode == "occ":
                            raise ConflictError(
                                "snapshot invalidated by a committed "
                                "transaction", preds=relevant)
                        self._fire("repair", pending.txn.name)
                        _stats.bump("service.repair_merges")
                        repaired += 1
                        try:
                            pending.txn.correct(relevant)
                        except TransactionAborted:
                            raise
                        except Exception as exc:
                            raise ConflictError(
                                "repair failed: {}".format(exc),
                                preds=relevant) from exc
                    accumulated = compose_corrections(
                        accumulated, pending.txn.effects)
                    members.append(pending)
                except Exception as exc:
                    pending.error = exc
                    pending.event.set()
            if span_ is not None:
                span_.attrs["repaired"] = repaired
            applied = bool(members)
            if members and accumulated:
                try:
                    self.workspace._apply_deltas(head.state, accumulated)
                except TransactionAborted:
                    _stats.bump("service.batch_fallbacks")
                    committed = self._commit_serially(members)
                    applied = False
                except Exception as exc:
                    for pending in members:
                        pending.error = exc
                        pending.event.set()
                    applied = False
            if applied:
                self._record_commits(members)
                committed = members
        return committed, batch_span

    def _commit_serially(self, members):
        """Fallback when the composed group aborts: re-execute each
        member alone on the evolving head so the violator is the one
        that aborts.  (Re-execution, not repair: a member may have been
        repaired against group effects that are no longer committing.)
        Returns the members that committed (events deferred, like
        :meth:`_commit_members`); aborted members get theirs set here."""
        committed = []
        for pending in members:
            try:
                head = self.workspace.version()
                pending.txn.execute(head.state)
                if pending.txn.effects:
                    self.workspace._apply_deltas(
                        head.state, pending.txn.effects)
            except Exception as exc:
                pending.error = exc
                pending.event.set()
            else:
                self._record_commits([pending])
                committed.append(pending)
        return committed

    def _record_commits(self, members):
        """Mark members committed and append them to the history —
        without firing their events; the committer does that after the
        batch span has closed so waiters never see a half-built span."""
        for pending in members:
            seq = next(self._commit_seq)
            self._watermark = seq
            self._history.append({
                "seq": seq,
                "txn": pending.txn.name,
                "source": pending.source,
                "attempt": pending.attempt,
                "repairs": pending.txn.repair_count,
                "preds": sorted(pending.txn.effects),
            })
            _stats.bump("service.commits")
            self._commits_since_checkpoint += 1
            pending.committed = True

    def _corrections_since(self, snapshot, head, cache):
        """Base + derived deltas turning ``snapshot`` into ``head``.

        The base map is diffed structurally (:func:`diff_pmap` prunes
        shared subtrees, so cost tracks the edit distance, not the
        database size); derived views are walked by identity, which the
        IVM engine preserves for untouched predicates.
        """
        if snapshot is head or snapshot.state is head.state:
            return {}
        key = id(snapshot.state)
        cached = cache.get(key)
        if cached is not None:
            return cached
        old_state, new_state = snapshot.state, head.state
        corrections = {}
        base_delta = diff_pmap(old_state.base_relations, new_state.base_relations)
        for pred, new_rel in base_delta.inserted.items():
            delta = Relation.empty(new_rel.arity).diff(new_rel)
            if delta:
                corrections[pred] = delta
        for pred, old_rel in base_delta.deleted.items():
            delta = old_rel.diff(Relation.empty(old_rel.arity))
            if delta:
                corrections[pred] = delta
        for pred, (old_rel, new_rel) in base_delta.updated.items():
            delta = old_rel.diff(new_rel)
            if delta:
                corrections[pred] = delta
        derived = (
            set(new_state.artifacts.ruleset.derived)
            | set(old_state.artifacts.ruleset.derived)
        )
        old_rels, new_rels = old_state.relations, new_state.relations
        for pred in derived:
            old_rel = old_rels.get(pred)
            new_rel = new_rels.get(pred)
            if old_rel is new_rel:
                continue
            if old_rel is None:
                old_rel = Relation.empty(new_rel.arity)
            if new_rel is None:
                new_rel = Relation.empty(old_rel.arity)
            delta = old_rel.diff(new_rel)
            if delta:
                corrections[pred] = delta
        cache[key] = corrections
        return corrections

    # -- fleet surface ---------------------------------------------------------

    @property
    def commit_watermark(self):
        """Highest committed transaction sequence number (0 before the
        first commit).  Stamped on every network response; the basis of
        session consistency (read-your-writes) across the fleet."""
        return self._watermark

    def watch(self, seq=0, timeout_s=10.0):
        """Long-poll for a checkpoint newer than ``seq``.

        Blocks until the durable checkpoint sequence exceeds ``seq`` or
        ``timeout_s`` elapses, then returns the current fleet status —
        so one round-trip is both the replica's change notification
        *and* the leader heartbeat (a reply within the timeout proves
        the leader alive even when nothing changed)."""
        deadline = time.monotonic() + max(0.0, float(timeout_s))
        with self._ckpt_cond:
            while (
                self._checkpoint_seq <= seq
                and not self._closed
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._ckpt_cond.wait(remaining)
        _stats.bump("service.watches")
        return self.status()

    def status(self):
        """This endpoint's fleet coordinates: role, commit watermark,
        and the sequence/watermark of its durable checkpoint."""
        out = {
            "role": self.role,
            "watermark": self._watermark,
            "checkpoint_seq": self._checkpoint_seq,
            "checkpoint_watermark": self._checkpoint_watermark,
        }
        if self.config.shard_count is not None:
            out["shard"] = {
                "index": self.config.shard_index,
                "count": self.config.shard_count,
            }
        return out

    # -- introspection ---------------------------------------------------------

    def commit_history(self):
        """The committed transactions in commit (= serialization) order."""
        return list(self._history)

    def service_stats(self):
        """Counters attributed to this service's transactions, plus the
        admission window and commit-queue levels."""
        with self._counters_lock:
            counters = dict(self._counters)
        with self._queue_cond:
            queued = len(self._queue)
        counters["in_flight"] = self._admission.depth
        counters["queued"] = queued
        counters["committed"] = len(self._history)
        counters["checkpoints"] = self._checkpoint_count
        counters["watermark"] = self._watermark
        counters["role"] = self.role
        return counters

    def telemetry(self, *, ring_tail=32):
        """The live telemetry payload: process counters, gauges,
        histogram quantiles, span totals, the slow-transaction log,
        the last ``ring_tail`` snapshot-ring entries, and this
        service's own counters — assembled without touching the
        committer, so it is safe to poll at any rate."""
        payload = _obs.telemetry_snapshot(ring_tail=ring_tail)
        payload["service"] = self.service_stats()
        return payload

    def explain(self, source, *, answer=None):
        """EXPLAIN ANALYZE: run ``source`` as a query against the
        current head snapshot (lock-free, like :meth:`query`) with the
        sampling optimizer engaged, and return an
        :class:`~repro.obs.ExplainReport` pairing estimated against
        actual per-rule join cost."""
        _stats.bump("service.explains")
        state = self.workspace.version().state  # pinned snapshot
        return _obs.explain_query(
            state,
            source,
            answer,
            backend=self.workspace._engine_backend,
            plan_cache=self.workspace._plan_cache,
        )

    # -- sessions --------------------------------------------------------------

    def session(self, *, name=None, timeout=None):
        """Open a :class:`~repro.service.session.Session` on this service."""
        from repro.service.session import Session

        if name is None:
            name = "session-{}".format(next(self._sessions))
        return Session(self, name=name, timeout=timeout)
