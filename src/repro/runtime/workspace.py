"""Workspaces and transactions (paper §2.2.2).

The transaction types of the paper:

* **query** — evaluate a program with a designated answer predicate
  against the current state, without committing anything;
* **exec** — reactive logic over delta predicates (``+R``, ``-R``,
  ``^R``) and versioned predicates (``R@start``); the resulting base
  deltas flow through incremental view maintenance and the constraint
  checker before the branch head advances (frame rules are applied
  natively when the deltas hit the base relations);
* **addblock / removeblock** — live programming: install or remove
  named blocks of logic; only derived predicates affected by the change
  are re-materialized, everything else is reused (§3.3);
* **branch / delete-branch** — O(1) branches over persistent state.

Aborting is simply not advancing the head: there is no undo log (T4).
"""

import collections
import contextlib
import itertools
import time

from repro import obs as _obs
from repro import stats as _stats
from repro.ds.versions import VersionGraph
from repro.meta.metaengine import MetaEngine
from repro.engine.evaluator import Evaluator, RuleSet
from repro.engine.ir import PredAtom
from repro.logiql.compiler import compile_program
from repro.runtime.errors import ConstraintViolation, TransactionAborted
from repro.runtime.result import TxnResult
from repro.runtime.state import ProgramArtifacts, WorkspaceState, _base_name
from repro.storage.relation import Delta, Relation

_block_counter = itertools.count(1)


#: One evaluated query: its compiled block, answer predicate, the
#: evaluator that ran it, the relations derived on the way, and the
#: sorted answer rows.
QueryRun = collections.namedtuple(
    "QueryRun", "block answer evaluator relations rows"
)


def run_query(state, source, answer=None, *, plan_cache=None, backend=None,
              order_chooser=None):
    """Compile and evaluate a query program against one pinned state.

    The single query entry: :func:`evaluate_query` and EXPLAIN ANALYZE
    (:func:`repro.obs.explain_query`) both run through it, so they
    share the compile, the reactive-rule rejection, the defaults for
    unknown predicates, the answer choice, the answer path
    (:meth:`~repro.engine.evaluator.Evaluator.answer`) and the backend
    setting.  Which executor a join runs on still depends on its
    variable order, so a run with an ``order_chooser`` may pick another
    one than the planner's default order would.  Returns a
    :class:`QueryRun`.
    """
    with _obs.span("compile", chars=len(source)):
        block = compile_program(source)
    if block.reactive_rules:
        raise TransactionAborted("queries cannot contain reactive rules")
    ruleset = RuleSet(block.rules)
    env = state.env_with_defaults()
    for rule in block.rules:
        for atom in rule.body:
            if isinstance(atom, PredAtom) and atom.pred not in env:
                if atom.pred not in ruleset.derived:
                    env[atom.pred] = Relation.empty(len(atom.args))
    if answer is None:
        answer = "_" if "_" in ruleset.derived else block.rules[-1].head_pred
    evaluator = Evaluator(
        ruleset,
        order_chooser=order_chooser,
        prefer_array=False,
        plan_cache=plan_cache,
        backend=backend,
    )
    relations, rows = evaluator.answer(env, answer)
    return QueryRun(block, answer, evaluator, relations, rows)


def evaluate_query(state, source, answer=None, *, plan_cache=None, backend=None):
    """Evaluate a query program against one pinned workspace state.

    Shared by :meth:`Workspace.query` (which evaluates at the branch
    head) and the service layer's lock-free readers (which pin a head
    snapshot and evaluate while the head moves on).  Returns the sorted
    rows of the designated answer predicate.
    """
    return run_query(
        state, source, answer, plan_cache=plan_cache, backend=backend
    ).rows


class _TypeViolation:
    """Pseudo-constraint describing a declared-type violation."""

    def __init__(self, text):
        self.text = text


def _type_violation(pred, arg_type):
    return _TypeViolation("{} value must be {}".format(pred, arg_type))


class _TxnWindow:
    """Book-keeping for one transaction verb: the root span (when
    tracing), the per-transaction counter sink, and the start time."""

    __slots__ = ("kind", "span", "sink", "started")

    def __init__(self, kind):
        self.kind = kind
        self.span = None
        self.sink = {}
        self.started = time.perf_counter()

    def result(self, *, deltas=None, rows=None, block=None):
        """The :class:`TxnResult` for a committed transaction."""
        return TxnResult(
            status="committed",
            kind=self.kind,
            deltas=deltas if deltas is not None else {},
            rows=rows,
            stats=self.sink,
            span_id=self.span.sid if self.span is not None else None,
            block=block,
            latency_s=time.perf_counter() - self.started,
        )


class Workspace:
    """A versioned LogiQL workspace with named branches.

    One :class:`~repro.engine.plancache.PlanCache` is owned per workspace
    and threaded through every evaluator, so compiled plans survive
    transactions, IVM passes, and program edits.

    ``engine`` picks the join backend for every evaluator this
    workspace creates: ``"columnar"`` (vectorized over
    dictionary-encoded numpy arrays wherever its setup is paid for,
    pure LFTJ elsewhere) or ``"pure"`` (the oracle, everywhere);
    ``None`` defers to the ``REPRO_ENGINE`` environment override,
    defaulting to columnar.
    """

    def __init__(self, *, engine=None):
        from repro.engine.columnar import resolve_backend
        from repro.engine.plancache import PlanCache

        self._plan_cache = PlanCache()
        self._engine_backend = resolve_backend(engine)
        self._graph = VersionGraph(
            WorkspaceState.empty(self._plan_cache, self._engine_backend)
        )
        self.branch = "main"
        self._meta_engine = MetaEngine()
        # per-workspace counter sink: every transaction runs under a
        # stats scope targeting this dict, so two workspaces working on
        # different threads never contaminate each other's deltas
        self._counters = {}
        self._stats_baseline = {}
        # checkpoint path -> CheckpointStore: keeps the id(node)->addr
        # memo warm so repeated checkpoints to the same path stay
        # incremental
        self._pagers = {}

    # -- state access ---------------------------------------------------------

    @property
    def state(self):
        """The current branch head's :class:`WorkspaceState`."""
        return self._graph.head(self.branch).state

    def version(self):
        """The current branch head version object."""
        return self._graph.head(self.branch)

    def relation(self, name):
        """Current extension of a predicate as a :class:`Relation`."""
        return self.state.relation(name)

    def rows(self, name):
        """Current extension as a sorted list of tuples."""
        return list(self.state.relation(name))

    def blocks(self):
        """Names of installed blocks."""
        return sorted(name for name, _ in self.state.artifacts.blocks.items())

    def _commit(self, new_state):
        self._graph.advance(self.branch, new_state)

    # -- durability -------------------------------------------------------------

    def _pager(self, path):
        from repro.storage.pager import CheckpointStore

        pager = self._pagers.get(path)
        if pager is None:
            pager = self._pagers[path] = CheckpointStore(path)
        return pager

    def checkpoint(self, path, *, fault_fire=None, watermark=None):
        """Write a durable checkpoint of every branch head to ``path``.

        Incremental: only treap nodes not already in the store are
        written (structural sharing means that is the diff since the
        last checkpoint).  Crash-safe: the manifest swap is atomic, so
        an interrupted checkpoint leaves the previous one intact.
        ``watermark`` (optional) records the commit watermark the
        checkpointed state reflects in the manifest — the service
        passes its committed-transaction sequence number here so
        replicas and restarts know how fresh the checkpoint is.
        Returns a dict of counters (``seq``, ``nodes_written``,
        ``bytes_written``, ``store_nodes``).
        """
        with _stats.scope(self._counters):
            return self._pager(path).checkpoint(
                self, fault_fire=fault_fire, watermark=watermark)

    @classmethod
    def open(cls, path, *, engine=None):
        """Reconstruct a workspace from the checkpoint at ``path``.

        Bit-identical restore: relation contents, support counts,
        aggregation state, and sensitivity indices are read back
        directly (no re-derivation); compiled program artifacts are
        rebuilt deterministically from the stored block sources.
        """
        from repro.storage.pager import CheckpointStore

        workspace = cls(engine=engine)
        pager = CheckpointStore(path)
        with _stats.scope(workspace._counters):
            pager.restore_into(workspace)
        workspace._pagers[path] = pager
        return workspace

    # -- branches ---------------------------------------------------------------

    def create_branch(self, name, from_branch=None):
        """O(1): a new branch sharing the source branch's state."""
        self._graph.branch(from_branch or self.branch, name)

    def switch(self, name):
        """Make ``name`` the active branch."""
        if name not in self._graph:
            raise KeyError(name)
        self.branch = name

    def delete_branch(self, name):
        """Drop a branch (its unshared state becomes garbage)."""
        self._graph.delete_branch(name)
        if self.branch == name:
            self.branch = self._graph.root_name

    def branches(self):
        """All branch names."""
        return self._graph.branches()

    # -- addblock / removeblock (live programming) -------------------------------

    def addblock(self, source, name=None):
        """Install a block of logic; returns a :class:`TxnResult` whose
        ``block`` field is the installed block's name.

        Re-materializes only derived predicates affected by the change
        (new/changed rules and their transitive dependents); everything
        else — relations, support counts, sensitivity indices — is
        carried over.
        """
        with self._txn("addblock") as window:
            state = self.state
            with _obs.span("compile", chars=len(source)):
                block = compile_program(source)
            if name is None:
                name = "block-{}".format(next(_block_counter))
            if window.span is not None:
                window.span.attrs["block"] = name
            new_blocks = state.artifacts.blocks.set(name, block)
            new_state = self._rebuild(state, new_blocks, name, block)
            self._check(new_state)
            self._commit(new_state)
            return window.result(block=name)

    def removeblock(self, name):
        """Remove a block, restoring the workspace program without it."""
        with self._txn("removeblock", block=name) as window:
            state = self.state
            old_block = state.artifacts.blocks.get(name)
            if old_block is None:
                raise KeyError("no such block: {}".format(name))
            new_blocks = state.artifacts.blocks.remove(name)
            new_state = self._rebuild(state, new_blocks, name, None)
            self._check(new_state)
            self._commit(new_state)
            return window.result(block=name)

    # -- observability ----------------------------------------------------------

    @contextlib.contextmanager
    def _txn(self, kind, **attrs):
        """One transaction window: a ``txn.<kind>`` span, a duration
        histogram observation, and two stats scopes — the workspace's
        private sink plus a fresh per-transaction sink that becomes the
        ``stats`` field of the verb's :class:`TxnResult`."""
        window = _TxnWindow(kind)
        try:
            with _stats.scope(self._counters):
                with _stats.scope(window.sink):
                    with _stats.timer("txn." + kind + ".seconds"):
                        with _obs.span("txn." + kind, **attrs) as span_:
                            window.span = span_
                            yield window
        finally:
            # one flag test when no slow-txn threshold is configured
            _obs.maybe_record_slow(
                kind,
                attrs.get("name") or attrs.get("txn"),
                time.perf_counter() - window.started,
                counters=window.sink,
                span=window.span,
            )

    def engine_stats(self):
        """Engine effectiveness counters accumulated *by this
        workspace's transactions* since creation (or the last
        :meth:`reset_engine_stats`): plan-cache hits/misses, warm vs.
        cold relation indexes and arrays, join seek/next movement,
        columnar activity, and IVM work.  Benchmarks export these next
        to wall times so speedups are attributable.  Integrity checks
        count ``constraints.bindings_checked`` (LHS bindings probed) and
        ``constraints.full_checks`` (constraints checked by walking
        every binding rather than the delta's), which answer "why was
        this commit slow" without tracing.

        Counters bumped by other workspaces — even concurrently on
        other threads — do not appear here; each workspace's
        transactions run under a scope targeting its own sink."""
        baseline = self._stats_baseline
        counters = {
            key: value - baseline.get(key, 0)
            for key, value in self._counters.items()
            if value - baseline.get(key, 0)
        }
        counters["plan_cache"] = self._plan_cache.stats_snapshot()
        counters["columnar"] = {
            "backend": self._engine_backend,
            "joins": counters.get("join.columnar_joins", 0),
            "fallbacks": counters.get("join.columnar_fallbacks", 0),
            "vector_seeks": counters.get("join.vector_seeks", 0),
            "setups": counters.get("join.columnar_setups", 0),
        }
        return counters

    def reset_engine_stats(self):
        """Start a fresh counting window for :meth:`engine_stats`."""
        self._stats_baseline = dict(self._counters)

    def stats_scope(self):
        """Context manager routing counter bumps on the calling thread
        into this workspace's sink — for engine work driven outside the
        transaction methods (e.g. a repair scheduler)."""
        return _stats.scope(self._counters)

    def profile(self):
        """A :class:`repro.obs.Profile` collector: every transaction
        executed on the calling thread while it is active records a
        full span tree (plan, join, IVM, constraint phases).

        Usage::

            with workspace.profile() as prof:
                workspace.query(...)
            print(prof.format())
        """
        return _obs.Profile()

    def explain(self, source, answer=None):
        """EXPLAIN ANALYZE for a query: run it with the sampling
        optimizer engaged and return an
        :class:`~repro.obs.ExplainReport` pairing the optimizer's
        estimated LFTJ steps against the executed join's actual
        seek/next movement per rule (the estimate-error ratio is
        recorded into the ``optimizer.estimate_error`` histogram)."""
        return _obs.explain_query(
            self.state,
            source,
            answer,
            backend=self._engine_backend,
            plan_cache=self._plan_cache,
        )

    def _rebuild(self, state, new_blocks, block_name, block):
        artifacts = ProgramArtifacts(
            new_blocks, self._plan_cache, self._engine_backend
        )
        old_artifacts = state.artifacts

        # base relations: carry over, then reconcile block facts
        bases = dict(state.base_relations.items())
        changed_bases = set()
        old_facts = old_artifacts.facts
        new_facts = artifacts.facts
        for pred in set(old_facts) | set(new_facts):
            before = old_facts.get(pred, set())
            after = new_facts.get(pred, set())
            if before == after:
                continue
            arity = artifacts.arity_of(pred) or old_artifacts.arity_of(pred)
            relation = bases.get(pred, Relation.empty(arity))
            bases[pred] = relation.apply(
                Delta.from_iters(after - before, before - after)
            )
            changed_bases.add(pred)
        base_env = {}
        for pred in artifacts.edb_preds:
            arity = artifacts.arity_of(pred)
            base_env[pred] = bases.get(pred, Relation.empty(arity))
        for pred, relation in bases.items():
            base_env.setdefault(pred, relation)

        # the meta-engine maintains the execution graph incrementally and
        # reports which derived predicates the engine proper must revise
        meta_state = state.meta_state
        if meta_state is None:
            meta_state = self._meta_engine.initial()
        meta_state, need_revision = self._meta_engine.update(
            meta_state, block_name, block, changed_bases
        )
        affected = need_revision & artifacts.ruleset.derived
        reuse_relations, reuse_states = {}, {}
        old_mat = state.materialization
        for pred in artifacts.ruleset.derived:
            if pred in affected:
                continue
            if pred in old_mat.states and pred in old_artifacts.ruleset.derived:
                reuse_relations[pred] = old_mat.relations[pred]
                reuse_states[pred] = old_mat.states[pred]

        reuse_recorders = {}
        old_index_of = {id(rule): i for i, rule in enumerate(old_artifacts.ruleset.rules)}
        for new_index, rule in enumerate(artifacts.ruleset.rules):
            old_index = old_index_of.get(id(rule))
            if old_index is not None:
                recorder = old_mat.rule_recorders.get(old_index)
                if recorder is not None:
                    reuse_recorders[new_index] = recorder

        with _obs.span(
            "materialize",
            affected=len(affected),
            reused=len(reuse_relations),
        ):
            mat = artifacts.engine.initialize(
                base_env,
                reuse=(reuse_relations, reuse_states),
                reuse_recorders=reuse_recorders,
            )
        from repro.ds.pmap import PMap

        return WorkspaceState(
            artifacts, PMap.from_dict(dict(base_env)), mat, meta_state
        )

    # -- exec ------------------------------------------------------------------

    def exec(self, source):
        """Run a reactive transaction; returns a :class:`TxnResult`
        whose ``deltas`` are the applied base-predicate deltas.

        Raises :class:`TransactionAborted` (leaving the head untouched)
        on writes to derived predicates or constraint violations.
        """
        with self._txn("exec") as window:
            state = self.state
            with _obs.span("compile", chars=len(source)):
                block = compile_program(source)
            if block.rules and any(r.body for r in block.rules):
                raise TransactionAborted(
                    "exec transactions may only contain reactive logic; "
                    "use addblock for derivation rules"
                )
            deltas = self._reactive_deltas(state, block.reactive_rules)
            return window.result(deltas=self._apply_deltas(state, deltas))

    def _reactive_deltas(self, state, reactive_rules):
        if not reactive_rules:
            return {}
        artifacts = state.artifacts
        ruleset = RuleSet(list(reactive_rules))
        env = state.start_env()
        # referenced delta predicates not derived here default to empty
        for rule in reactive_rules:
            for atom in rule.body:
                if isinstance(atom, PredAtom) and atom.pred not in env:
                    if atom.pred in ruleset.derived:
                        continue
                    arity = artifacts.arity_of(atom.pred)
                    if arity is None:
                        arity = len(atom.args)
                    env[atom.pred] = Relation.empty(arity)
        relations, _ = Evaluator(
            ruleset, prefer_array=False, plan_cache=self._plan_cache,
            backend=self._engine_backend,
        ).evaluate(env)
        deltas = {}
        preds = set()
        for head in ruleset.derived:
            if head[0] not in "+-":
                raise TransactionAborted(
                    "exec rules must derive delta predicates, got {}".format(head)
                )
            preds.add(head[1:])
        for pred in preds:
            if pred in artifacts.ruleset.derived:
                raise TransactionAborted(
                    "cannot write to derived predicate {}".format(pred)
                )
            plus = relations.get("+" + pred)
            minus = relations.get("-" + pred)
            added = set(plus) if plus is not None else set()
            removed = set(minus) if minus is not None else set()
            deltas[pred] = Delta.from_iters(added - removed, removed)
        return deltas

    def _stage_deltas(self, state, deltas):
        """Validate, maintain, and constraint-check one delta map
        against ``state`` — *without* advancing any branch head.

        The staging half of :meth:`_apply_deltas`, also used on its own
        by the shard-prepare preflight (:mod:`repro.shard`): a shard can
        prove a prepared cross-shard transaction admissible against its
        fragment before the coordinator orders the commit.  Returns
        ``(new_state, all_deltas)``.
        """
        with _obs.span("commit", preds=len(deltas)) as span_:
            artifacts = state.artifacts
            mat = state.materialization
            known = set(mat.relations)
            filtered = {}
            for pred, delta in deltas.items():
                if pred not in known:
                    arity = artifacts.arity_of(pred)
                    if arity is None:
                        raise TransactionAborted("unknown predicate {}".format(pred))
                    mat.relations[pred] = Relation.empty(arity)
                self._validate_types(artifacts, pred, delta.added)
                if delta:
                    filtered[pred] = delta
            new_mat, all_deltas = artifacts.engine.apply(mat, filtered)
            new_bases = state.base_relations
            for pred in filtered:
                new_bases = new_bases.set(pred, new_mat.relations[pred])
            new_state = WorkspaceState(
                artifacts, new_bases, new_mat, state.meta_state
            )
            self._check(new_state, all_deltas)
            if span_ is not None:
                span_.attrs["changed_preds"] = len(all_deltas)
            return new_state, all_deltas

    def _apply_deltas(self, state, deltas):
        new_state, all_deltas = self._stage_deltas(state, deltas)
        self._commit(new_state)
        return all_deltas

    @staticmethod
    def _validate_types(artifacts, pred, tuples):
        """Reject tuples whose values contradict the declared primitive
        types before they reach the sorted storage (mixed-type columns
        would not even be comparable)."""
        from repro.storage.datum import PrimitiveType, check_type

        decl = artifacts.schema.get(pred)
        if decl is None:
            return
        for tup in tuples:
            if len(tup) != decl.arity:
                raise TransactionAborted(
                    "arity mismatch for {}: {!r}".format(pred, tup)
                )
            for value, arg_type in zip(tup, decl.arg_types):
                if isinstance(arg_type, PrimitiveType) and not check_type(
                    value, arg_type
                ):
                    raise ConstraintViolation(
                        [(_type_violation(pred, arg_type), {"value": value})]
                    )

    def _check(self, state, deltas=None):
        # unsolved solve-variables are the system's responsibility:
        # constraints over them only bind once values are populated
        exempt = {
            pred
            for pred in state.artifacts.solve_variable_preds
            if not state.relations.get(pred)
        }
        # constraints over probabilistic heads are observations: they
        # condition PPDL inference, they do not gate transactions
        exempt |= state.artifacts.prob_head_preds
        with _obs.span(
            "constraints.check",
            scope="all" if deltas is None else len(deltas),
        ):
            _stats.bump("constraints.checks")
            violations = state.artifacts.checker.check(
                state.env_with_defaults(), exempt_preds=exempt, deltas=deltas
            )
        if violations:
            raise ConstraintViolation(violations)

    # -- bulk loading -------------------------------------------------------------

    def load(self, pred, tuples, remove=()):
        """Bulk-insert (and optionally remove) tuples of a base predicate.

        Convenience equivalent of an ``exec`` with one ``+pred`` fact
        per tuple; goes through the same maintenance and constraint
        checking.
        """
        with self._txn("load", pred=pred) as window:
            state = self.state
            if pred in state.artifacts.ruleset.derived:
                raise TransactionAborted(
                    "cannot write to derived predicate {}".format(pred)
                )
            tuples = [
                tuple(t) if isinstance(t, (tuple, list)) else (t,) for t in tuples
            ]
            removals = [
                tuple(t) if isinstance(t, (tuple, list)) else (t,) for t in remove
            ]
            if window.span is not None:
                window.span.attrs["added"] = len(tuples)
                window.span.attrs["removed"] = len(removals)
            applied = self._apply_deltas(
                state, {pred: Delta.from_iters(tuples, removals)}
            )
            return window.result(deltas=applied)

    # -- query ---------------------------------------------------------------------

    def query(self, source, answer=None):
        """Evaluate a query program; returns the answer relation's rows.

        The designated answer predicate is ``_`` (or ``answer``); all
        other rule heads act as auxiliary views local to the query.
        (``query`` keeps returning plain rows — use
        :meth:`query_result` for the structured :class:`TxnResult`.)
        """
        return self.query_result(source, answer).rows

    def query_result(self, source, answer=None):
        """Like :meth:`query` but returns the full :class:`TxnResult`
        (rows plus the per-transaction engine stats and span id)."""
        with self._txn("query") as window:
            state = self.state
            rows = evaluate_query(
                state,
                source,
                answer,
                plan_cache=self._plan_cache,
                backend=self._engine_backend,
            )
            if window.span is not None:
                window.span.attrs["rows"] = len(rows)
            return window.result(rows=rows)
