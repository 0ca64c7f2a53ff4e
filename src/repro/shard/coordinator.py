"""The shard coordinator: one workspace facade over N hash shards.

A :class:`ShardedWorkspace` presents the ordinary workspace verb
surface (``addblock`` / ``load`` / ``exec`` / ``query`` / ``rows``)
over a fleet of shard backends, each holding one hash fragment of the
partitioned EDB predicates (placement per :class:`ShardMap`) plus a
full copy of everything replicated.  The coordinator holds **no
data** — only the installed program and its co-partition
classification (:func:`repro.engine.planner.classify_rules`):

* **addblock** classifies the combined program first and *refuses*
  rules that are not shard-local-exact for the partition spec (the
  classification names the reason), then installs the block on every
  shard; a partial installation is rolled back.
* **load** fragments partitioned predicates by ``stable_hash`` key and
  broadcasts replicated ones.
* **query** is planned by placement: co-partitioned answers run
  shard-local and recombine coordinator-side (union for keyed and
  scattered answers, per-group fold for sum/count/min/max partials);
  literal-key programs route to the single owning shard; everything
  else falls back to *gather* — fetch the global EDB extensions and
  evaluate on a scratch workspace (always exact, never fast).
* **exec** routes literal-key co-partitioned writes to the owning
  shard as a plain transaction; anything else runs the **cross-shard
  commit circuit** — the transaction-repair composition of Figure 7(b)
  stretched across processes, not classic 2PC:

  1. every shard executes the transaction against its own head
     snapshot (``shard_prepare``) and splits its effects into owned
     and *foreign* rows;
  2. the coordinator redistributes foreign rows to their owners and
     composes sibling corrections left-to-right — each shard's
     corrections are the others' replicated writes (excluding deltas
     identical to its own: the same logical write derived from
     replicated inputs on two shards is *one* write) plus the foreign
     rows it now owns — repairing incrementally (``shard_repair``)
     until no shard learns anything new;
  3. the final composed per-shard deltas commit in shard order
     (``shard_commit``).  A shard that raced a local commit refuses to
     diverge and raises ``ConflictError`` — the coordinator aborts and
     re-runs the whole circuit from fresh snapshots.  A failure after
     a partial commit is compensated by applying inverse deltas to the
     already-committed shards (``shard_apply``).

For co-partitioned programs the result is bit-identical to a single
process executing the same verbs (the equivalence suite's gate); for
programs with interacting cross-shard writes it is the serializable
left-to-right composition of the per-shard derivations.

Backends are duck-typed: in-process
:class:`~repro.service.TransactionService` objects
(:meth:`ShardedWorkspace.local`) and
:class:`~repro.net.client.NetSession` connections
(``repro.connect("shards://h1:p1,h2:p2,...")``) drive the identical
code path.  Like sessions, one coordinator serves one thread at a
time.

Caveat: float sums fold in shard order, which may differ bitwise from
single-process accumulation order; integer workloads recombine
bit-identically.
"""

import itertools
import operator
import time

from repro import obs as _obs
from repro import stats as _stats
from repro.engine.ir import Const, PredAtom
from repro.engine.planner import (
    KEY_PARTIAL_AGG,
    KEY_REPLICATED,
    base_pred,
    classify_rules,
)
from repro.logiql.compiler import compile_program
from repro.runtime.errors import ConflictError, ReproError
from repro.runtime.result import TxnResult
from repro.shard.executors import ShardExecutorPool
from repro.shard.shardmap import ShardMap
from repro.storage.relation import Delta

_block_counter = itertools.count(1)

#: per-shard aggregate partials the coordinator can fold back into the
#: global value.  ``avg`` is deliberately absent: a mean is not
#: recoverable from per-shard means, so avg heads that lose the
#: partition variable are refused at addblock and gathered in queries.
RECOMBINABLE_AGGS = {
    "sum": operator.add,
    "count": operator.add,
    "min": min,
    "max": max,
}

#: repair passes before the coordinator declares the circuit divergent
_MAX_REPAIR_PASSES = 4


class ShardError(ReproError):
    """A program or write cannot be placed on this shard map."""


class ShardCommitError(ShardError):
    """A cross-shard commit failed *and* compensation of the already
    committed shards failed: the fleet needs operator attention."""


def _union_rows(row_lists):
    merged = set()
    for rows in row_lists:
        merged.update(tuple(row) for row in rows)
    return sorted(merged)


class ShardedWorkspace:
    """Coordinator over ``n`` hash shards (see module docstring)."""

    def __init__(self, backends, shard_map, *, owns_backends=False,
                 max_retries=3, verify=True):
        backends = list(backends)
        if not isinstance(shard_map, ShardMap):
            raise TypeError("shard_map must be a ShardMap")
        if len(backends) != shard_map.n_shards:
            raise ValueError(
                "{} backends for a {}-shard map".format(
                    len(backends), shard_map.n_shards))
        self.shard_map = shard_map
        self._pool = ShardExecutorPool(backends)
        self._owns_backends = owns_backends
        self._max_retries = max_retries
        self._closed = False
        # the compiled program (no data!): block name -> (source, rules)
        self._blocks = {}
        self._analysis = classify_rules([], shard_map.partition)
        # base predicates known to hold data (partition spec + loads +
        # reactive write targets) — what the gather path must fetch
        self._edb_preds = set(shard_map.partition)
        if verify:
            self._verify_members()

    # -- construction ----------------------------------------------------------

    @classmethod
    def local(cls, n_shards, partition=None, *, max_retries=3,
              **config_kwargs):
        """Spin up ``n_shards`` in-process
        :class:`~repro.service.TransactionService` shards (each with
        its shard identity configured) — single-machine scale-up and
        the test/benchmark harness."""
        from repro.service import ServiceConfig, TransactionService

        backends = [
            TransactionService(config=ServiceConfig(
                shard_index=index, shard_count=n_shards, **config_kwargs))
            for index in range(n_shards)
        ]
        return cls(backends, ShardMap(n_shards, partition),
                   owns_backends=True, max_retries=max_retries)

    @classmethod
    def connect(cls, endpoints, partition=None, *, max_retries=3,
                **client_kwargs):
        """Connect to shard server processes at ``endpoints`` (a list
        of ``host:port``, index == shard index).  Each server's HELLO
        shard advertisement is checked against its position."""
        from repro.net.client import NetSession

        endpoints = [str(e).strip() for e in endpoints if str(e).strip()]
        backends = []
        try:
            for endpoint in endpoints:
                host, _, port = endpoint.rpartition(":")
                backends.append(
                    NetSession(host, int(port), **client_kwargs))
        except BaseException:
            for backend in backends:
                backend.close()
            raise
        return cls(
            backends,
            ShardMap(len(endpoints), partition, endpoints=endpoints),
            owns_backends=True, max_retries=max_retries)

    def _verify_members(self):
        """Every backend that advertises a shard identity must agree
        with its slot in the map — catching a mis-ordered endpoint list
        before a single row is routed."""
        for index in range(self.shard_map.n_shards):
            advert = None
            backend = self._pool.backend(index)
            shard = getattr(backend, "server_shard", None)
            if shard is not None:
                advert = (shard.get("index"), shard.get("count"))
            else:
                identity = getattr(backend, "shard_identity", None)
                if callable(identity):
                    advert = identity()
            if advert is None:
                continue
            if advert != (index, self.shard_map.n_shards):
                raise ShardError(
                    "backend {} advertises shard {}/{} but the map "
                    "places it at {}/{}".format(
                        index, advert[0], advert[1], index,
                        self.shard_map.n_shards))

    # -- program management ----------------------------------------------------

    def _installed_rules(self):
        rules = []
        for _, block_rules in self._blocks.values():
            rules.extend(block_rules)
        return rules

    def _classify(self, rules):
        """Classification plus the coordinator-side placement checks
        the per-rule transfer function cannot do (it does not know N):
        literal partition keys must co-reside on one shard."""
        analysis = classify_rules(rules, self.shard_map.partition)
        broken = list(analysis.broken)
        for rule in rules:
            anchor = analysis.anchors.get(id(rule))
            if anchor is None or anchor.kind != "const":
                continue
            owners = {self.shard_map.shard_of_key(c) for c in anchor.consts}
            if len(owners) > 1:
                broken.append((
                    rule,
                    "literal partition keys {} land on different "
                    "shards".format(list(anchor.consts))))
        return analysis, broken

    def addblock(self, source, name=None, *, timeout=None):
        """Install a block on every shard — after proving the combined
        program shard-local-exact for the partition spec."""
        self._check_open()
        if name is None:
            name = "shard-block-{}".format(next(_block_counter))
        block = compile_program(source)
        rules = list(block.rules) + list(block.reactive_rules)
        candidate = self._installed_rules() + rules
        analysis, broken = self._classify(candidate)
        if broken:
            reasons = "; ".join(
                "{}: {}".format(base_pred(rule.head_pred), reason)
                for rule, reason in broken[:3])
            raise ShardError(
                "block is not shard-local-exact for this partition "
                "spec ({})".format(reasons))
        for pred, cls in analysis.classes.items():
            if (cls.kind == KEY_PARTIAL_AGG
                    and cls.fn not in RECOMBINABLE_AGGS):
                raise ShardError(
                    "aggregate {}({}) cannot be recombined from "
                    "per-shard partials; keep the partition variable in "
                    "its group keys".format(cls.fn, pred))
        with _obs.span("shard.addblock", block=name,
                       shards=self.shard_map.n_shards):
            futures = self._pool.broadcast(
                "addblock", source, name=name)
            results, failed = self._collect(futures)
            if failed:
                # roll the block back off the shards that took it
                for index, result in enumerate(results):
                    if result is not None:
                        self._swallow(index, "removeblock", name)
                raise failed[0][1]
        self._blocks[name] = (source, rules)
        self._analysis = analysis
        self._note_edb_preds(rules)
        _stats.bump("shard.addblocks")
        return results[0]

    def removeblock(self, name, *, timeout=None):
        """Remove a block from every shard."""
        self._check_open()
        if name not in self._blocks:
            raise KeyError("no such block: {}".format(name))
        with _obs.span("shard.removeblock", block=name):
            results, failed = self._collect(
                self._pool.broadcast("removeblock", name))
            if failed:
                raise failed[0][1]
        del self._blocks[name]
        self._analysis, _ = self._classify(self._installed_rules())
        return results[0]

    def blocks(self):
        """Installed block names (insertion order)."""
        return list(self._blocks)

    def _note_edb_preds(self, rules):
        derived = {base_pred(r.head_pred) for r in rules}
        derived.update(
            base_pred(r.head_pred) for _, rs in self._blocks.values()
            for r in rs)
        for rule in rules:
            for atom in rule.body:
                if isinstance(atom, PredAtom):
                    pred = base_pred(atom.pred)
                    if pred not in derived:
                        self._edb_preds.add(pred)

    # -- data ------------------------------------------------------------------

    def load(self, pred, tuples, remove=(), *, timeout=None):
        """Bulk load: partitioned predicates ship only each shard's
        fragment; replicated predicates broadcast in full."""
        self._check_open()
        tuples = [tuple(t) for t in tuples]
        remove = [tuple(t) for t in remove]
        self._edb_preds.add(pred)
        with _obs.span("shard.load", pred=pred, rows=len(tuples)):
            if self.shard_map.is_partitioned(pred):
                _stats.bump("shard.fragmented_loads")
                added = self.shard_map.fragment(pred, tuples)
                removed = self.shard_map.fragment(pred, remove)
                futures, targets = [], []
                for index in range(self.shard_map.n_shards):
                    if added[index] or removed[index]:
                        targets.append(index)
                        futures.append(self._pool.submit(
                            index, "load", pred, added[index],
                            removed[index]))
            else:
                _stats.bump("shard.replicated_loads")
                targets = list(range(self.shard_map.n_shards))
                futures = self._pool.broadcast("load", pred, tuples, remove)
            results, failed = self._collect(futures)
            if failed:
                # best-effort compensation: un-load the shards that
                # committed their fragment, then surface the failure
                for position, result in enumerate(results):
                    if result is None:
                        continue
                    index = targets[position]
                    for pname, delta in result.deltas.items():
                        self._swallow(
                            index, "load", pname,
                            sorted(delta.removed), sorted(delta.added))
                raise failed[0][1]
        return TxnResult(
            status="committed", kind="load",
            deltas={pred: Delta.from_iters(tuples, remove)})

    def rows(self, pred):
        """The predicate's *global* extension, recombined by placement:
        replicated from shard 0, partitioned/keyed/scattered as the
        deduplicated shard union, aggregate partials folded."""
        self._check_open()
        cls = self._class_of(pred)
        if cls.kind == KEY_REPLICATED and not self.shard_map.is_partitioned(pred):
            return [tuple(r) for r in self._pool.backend(0).rows(pred)]
        row_lists, failed = self._collect(self._pool.broadcast("rows", pred))
        if failed:
            raise failed[0][1]
        if cls.kind == KEY_PARTIAL_AGG:
            return self._recombine(cls.fn, row_lists)
        return _union_rows(row_lists)

    def _class_of(self, pred):
        pred = base_pred(pred)
        if self.shard_map.is_partitioned(pred):
            from repro.engine.planner import PredClass, KEY_KEYED

            return PredClass(KEY_KEYED, col=self.shard_map.key_col(pred))
        return self._analysis.class_of(pred)

    def _recombine(self, fn, row_lists):
        fold = RECOMBINABLE_AGGS[fn]
        groups = {}
        for rows in row_lists:
            for row in rows:
                row = tuple(row)
                key, value = row[:-1], row[-1]
                if key in groups:
                    groups[key] = fold(groups[key], value)
                else:
                    groups[key] = value
        _stats.bump("shard.recombined_groups", len(groups))
        return sorted(key + (value,) for key, value in groups.items())

    # -- queries ---------------------------------------------------------------

    def query(self, source, answer=None):
        """Evaluate a query program against the sharded fleet; returns
        the answer predicate's sorted global rows."""
        self._check_open()
        _stats.bump("shard.queries")
        block = compile_program(source)
        if block.reactive_rules:
            raise ShardError("queries cannot contain reactive rules")
        qrules = list(block.rules)
        if not qrules:
            return []
        analysis = classify_rules(
            qrules, self.shard_map.partition,
            seed_classes=self._analysis.classes)
        answer_pred = answer or (
            "_" if any(r.head_pred == "_" for r in qrules)
            else qrules[-1].head_pred)
        cls = analysis.class_of(answer_pred)
        _, broken = self._classify_query(qrules, analysis)
        gatherable = bool(broken) or (
            cls.kind == KEY_PARTIAL_AGG and cls.fn not in RECOMBINABLE_AGGS)
        with _obs.span("shard.query", answer=answer_pred,
                       placement=cls.kind) as span_:
            if gatherable:
                if span_ is not None:
                    span_.attrs["mode"] = "gather"
                return self._query_gather(source, answer, qrules)
            owner = self._const_owner(qrules, analysis)
            if owner is not None:
                _stats.bump("shard.single_shard_queries")
                if span_ is not None:
                    span_.attrs["mode"] = "route"
                return [tuple(r) for r in self._pool.backend(owner).query(
                    source, answer=answer)]
            if cls.kind == KEY_REPLICATED:
                if span_ is not None:
                    span_.attrs["mode"] = "route"
                return [tuple(r) for r in self._pool.backend(0).query(
                    source, answer=answer)]
            _stats.bump("shard.scatter_queries")
            if span_ is not None:
                span_.attrs["mode"] = "scatter"
            row_lists, failed = self._collect(
                self._pool.broadcast("query", source, answer=answer))
            if failed:
                raise failed[0][1]
            if cls.kind == KEY_PARTIAL_AGG:
                return self._recombine(cls.fn, row_lists)
            return _union_rows(row_lists)

    def _classify_query(self, qrules, analysis):
        broken = list(analysis.broken)
        for rule in qrules:
            anchor = analysis.anchors.get(id(rule))
            if anchor is not None and anchor.kind == "const":
                owners = {
                    self.shard_map.shard_of_key(c) for c in anchor.consts}
                if len(owners) > 1:
                    broken.append((rule, "literal keys cross shards"))
        return analysis, broken

    def _const_owner(self, rules, analysis):
        """The single shard owning every literal partition key of the
        program, or ``None`` when the program is not all-literal."""
        owners = set()
        for rule in rules:
            anchor = analysis.anchors.get(id(rule))
            if anchor is None or anchor.kind != "const":
                return None
            owners.update(
                self.shard_map.shard_of_key(c) for c in anchor.consts)
        if len(owners) == 1:
            return next(iter(owners))
        return None

    def _query_gather(self, source, answer, qrules):
        """The always-exact fallback: fetch global EDB extensions,
        rebuild on a scratch workspace, evaluate locally."""
        from repro.runtime.workspace import Workspace

        _stats.bump("shard.gather_queries")
        scratch = Workspace()
        for name, (block_source, _) in self._blocks.items():
            scratch.addblock(block_source, name=name)
        derived = {base_pred(r.head_pred) for r in qrules}
        derived.update(
            base_pred(r.head_pred) for _, rs in self._blocks.values()
            for r in rs)
        wanted = set(self._edb_preds)
        for rule in qrules:
            for atom in rule.body:
                if isinstance(atom, PredAtom):
                    pred = base_pred(atom.pred)
                    if pred not in derived:
                        wanted.add(pred)
        for pred in sorted(wanted):
            try:
                extension = self.rows(pred)
            except ReproError:
                continue  # declared nowhere / never written
            if extension:
                scratch.load(pred, extension)
        return scratch.query(source, answer)

    # -- writes ----------------------------------------------------------------

    def exec(self, source, *, timeout=None):
        """Run a reactive write transaction across the fleet."""
        self._check_open()
        block = compile_program(source)
        owner = self._single_shard_owner(block)
        if owner is not None:
            _stats.bump("shard.single_shard_execs")
            with _obs.span("shard.exec", mode="single", shard=owner):
                result = self._pool.backend(owner).exec(
                    source, timeout=timeout)
            self._note_edb_preds(block.reactive_rules)
            return result
        result = self._exec_circuit(source, timeout)
        self._note_edb_preds(
            list(block.reactive_rules) + list(block.rules))
        return result

    def _single_shard_owner(self, block):
        """The one shard a literal-key co-partitioned write program can
        run on as a plain transaction — every write lands on rows the
        shard owns and every read is owned or replicated.  ``None``
        when the program needs the circuit."""
        if block.rules or not block.reactive_rules:
            return None
        partition = self.shard_map.partition
        owners = set()
        for rule in block.reactive_rules:
            col = partition.get(base_pred(rule.head_pred))
            if col is None or col >= len(rule.head_args):
                return None  # replicated (or malformed) write target
            head_key = rule.head_args[col]
            if not isinstance(head_key, Const):
                return None
            owners.add(self.shard_map.shard_of_key(head_key.value))
            for atom in rule.body:
                if not isinstance(atom, PredAtom):
                    continue
                bcol = partition.get(base_pred(atom.pred))
                if bcol is None:
                    if self._class_of(atom.pred).kind != KEY_REPLICATED:
                        return None
                    continue
                if bcol >= len(atom.args):
                    return None
                term = atom.args[bcol]
                if not isinstance(term, Const):
                    return None
                owners.add(self.shard_map.shard_of_key(term.value))
        if len(owners) == 1:
            return next(iter(owners))
        return None

    def _exec_circuit(self, source, timeout):
        started = time.perf_counter()
        attempts = 0
        while True:
            attempts += 1
            try:
                result = self._run_circuit(source, timeout)
            except ConflictError:
                # a shard raced a local commit mid-circuit; everything
                # was aborted/compensated — re-run from fresh snapshots
                if attempts > self._max_retries:
                    raise
                _stats.bump("shard.circuit_retries")
                continue
            result.attempts = attempts
            result.latency_s = time.perf_counter() - started
            return result

    def _run_circuit(self, source, timeout):
        n = self.shard_map.n_shards
        partition = dict(self.shard_map.partition)
        with _obs.span("shard.exec", mode="circuit", shards=n) as span_:
            prepared = self._prepare_all(source, partition, timeout)
            _stats.bump("shard.circuits")
            try:
                own = {i: dict(p["effects"]) for i, p in prepared.items()}
                incoming = self._redistribute(
                    {i: p["foreign"] for i, p in prepared.items()})
                repairs = self._repair_circuit(
                    prepared, own, incoming, partition)
                final = self._compose_final(own, incoming)
            except BaseException:
                self._abort_tokens(prepared)
                raise
            if span_ is not None:
                span_.attrs["repairs"] = repairs
            deltas = self._commit_all(prepared, final, timeout)
            _stats.bump("shard.circuit_commits")
            return TxnResult(
                status="committed", kind="exec", deltas=deltas,
                repairs=repairs)

    def _prepare_all(self, source, partition, timeout):
        n = self.shard_map.n_shards
        futures = [
            self._pool.submit(
                index, "shard_prepare", source, partition=partition,
                shard_index=index, shard_count=n, timeout=timeout)
            for index in range(n)
        ]
        results, failed = self._collect(futures)
        if failed:
            prepared = {
                i: r for i, r in enumerate(results) if r is not None}
            self._abort_tokens(prepared)
            raise failed[0][1]
        return dict(enumerate(results))

    def _redistribute(self, foreign):
        """Foreign rows (written by one shard, owned by another) routed
        to their owners; returns per-shard ``{pred: (added, removed)}``
        row sets."""
        incoming = {i: {} for i in range(self.shard_map.n_shards)}
        moved = 0
        for index, effects in foreign.items():
            for pred, delta in effects.items():
                for owner, part in self.shard_map.split_delta(
                        pred, delta).items():
                    added, removed = incoming[owner].setdefault(
                        pred, (set(), set()))
                    added.update(part.added)
                    removed.update(part.removed)
                    moved += len(part)
        if moved:
            _stats.bump("shard.redistributed_rows", moved)
        return incoming

    def _corrections_for(self, index, own, incoming):
        """Everything shard ``index`` must learn from its siblings:
        their replicated-predicate writes (minus deltas identical to
        its own — one logical write) plus the redistributed rows it now
        owns.  Returned as ``{pred: (added_set, removed_set)}``."""
        partition = self.shard_map.partition
        totals = {}
        mine = own[index]
        for other, effects in own.items():
            if other == index:
                continue
            for pred, delta in effects.items():
                if pred in partition:
                    continue  # partitioned rows travel via redistribute
                added, removed = totals.setdefault(pred, (set(), set()))
                added.update(delta.added)
                removed.update(delta.removed)
        for pred, (added, removed) in totals.items():
            conflict = added & removed
            if conflict:
                raise ShardError(
                    "shards disagree on replicated {}: {} both added "
                    "and removed".format(pred, sorted(conflict)[:3]))
            own_delta = mine.get(pred)
            if own_delta is not None:
                added.difference_update(own_delta.added)
                removed.difference_update(own_delta.removed)
        for pred, (added, removed) in incoming[index].items():
            tadded, tremoved = totals.setdefault(pred, (set(), set()))
            tadded.update(added)
            tremoved.update(removed)
        return {
            pred: pair for pred, pair in totals.items()
            if pair[0] or pair[1]
        }

    def _repair_circuit(self, prepared, own, incoming, partition):
        """Left-to-right repair until no shard learns anything new
        (Figure 7(b) composed across processes).  Mutates ``own`` and
        ``incoming`` in place; returns the repair count."""
        n = self.shard_map.n_shards
        delivered = {i: {} for i in range(n)}
        repairs = 0
        for _ in range(_MAX_REPAIR_PASSES):
            changed = False
            for index in range(n):
                totals = self._corrections_for(index, own, incoming)
                fresh = {}
                for pred, (added, removed) in totals.items():
                    seen_added, seen_removed = delivered[index].setdefault(
                        pred, (set(), set()))
                    new_added = added - seen_added
                    new_removed = removed - seen_removed
                    if new_added or new_removed:
                        fresh[pred] = Delta.from_iters(
                            sorted(new_added), sorted(new_removed))
                        seen_added.update(new_added)
                        seen_removed.update(new_removed)
                if not fresh:
                    continue
                changed = True
                repairs += 1
                _stats.bump("shard.repaired_members")
                reply = self._pool.backend(index).shard_repair(
                    prepared[index]["token"], fresh,
                    partition=partition, shard_index=index, shard_count=n)
                own[index] = dict(reply["effects"])
                for pred, delta in reply["foreign"].items():
                    for owner, part in self.shard_map.split_delta(
                            pred, delta).items():
                        added, removed = incoming[owner].setdefault(
                            pred, (set(), set()))
                        added.update(part.added)
                        removed.update(part.removed)
            if not changed:
                return repairs
        raise ShardError(
            "cross-shard repair did not converge after {} passes "
            "(mutually amplifying writes?)".format(_MAX_REPAIR_PASSES))

    def _compose_final(self, own, incoming):
        """The per-shard commit deltas: replicated writes are the
        deduplicated union across shards (identical on every shard);
        partitioned writes are each shard's owned rows plus what was
        redistributed to it."""
        partition = self.shard_map.partition
        replicated = {}
        for effects in own.values():
            for pred, delta in effects.items():
                if pred in partition:
                    continue
                added, removed = replicated.setdefault(pred, (set(), set()))
                added.update(delta.added)
                removed.update(delta.removed)
        for pred, (added, removed) in replicated.items():
            conflict = added & removed
            if conflict:
                raise ShardError(
                    "shards disagree on replicated {}: {} both added "
                    "and removed".format(pred, sorted(conflict)[:3]))
        final = {}
        for index in range(self.shard_map.n_shards):
            deltas = {}
            for pred, (added, removed) in replicated.items():
                if added or removed:
                    deltas[pred] = Delta.from_iters(
                        sorted(added), sorted(removed))
            owned = {}
            for pred, delta in own[index].items():
                if pred in partition:
                    owned[pred] = (set(delta.added), set(delta.removed))
            for pred, (added, removed) in incoming[index].items():
                oadded, oremoved = owned.setdefault(pred, (set(), set()))
                oadded.update(added)
                oremoved.update(removed)
            for pred, (added, removed) in owned.items():
                conflict = added & removed
                if conflict:
                    raise ShardError(
                        "conflicting add/remove of {} rows {}".format(
                            pred, sorted(conflict)[:3]))
                if added or removed:
                    deltas[pred] = Delta.from_iters(
                        sorted(added), sorted(removed))
            final[index] = deltas
        return final

    def _commit_all(self, prepared, final, timeout):
        """Commit shard by shard in ascending order; compensate the
        committed prefix if a later shard fails."""
        committed = []
        combined = {}
        try:
            for index in sorted(prepared):
                token = prepared.pop(index)["token"]
                deltas = final[index]
                self._pool.backend(index).shard_commit(
                    token, deltas, timeout=timeout)
                committed.append((index, deltas))
        except BaseException as exc:
            self._abort_tokens(prepared)
            self._compensate(committed, exc)
            raise
        partition = self.shard_map.partition
        for index, deltas in committed:
            for pred, delta in deltas.items():
                if pred in partition:
                    if pred in combined:
                        combined[pred] = Delta(
                            combined[pred].added | delta.added,
                            combined[pred].removed | delta.removed)
                    else:
                        combined[pred] = delta
                else:
                    combined.setdefault(pred, delta)  # identical everywhere
        return combined

    def _compensate(self, committed, cause):
        if not committed:
            return
        _stats.bump("shard.compensations")
        failures = []
        for index, deltas in committed:
            inverse = {
                pred: delta.inverse() for pred, delta in deltas.items()}
            try:
                self._pool.backend(index).shard_apply(inverse)
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append((index, exc))
        if failures:
            raise ShardCommitError(
                "cross-shard commit failed on {} and compensation of "
                "already-committed shards {} also failed — the fleet "
                "is inconsistent".format(
                    cause.__class__.__name__,
                    sorted(index for index, _ in failures))) from cause

    def _abort_tokens(self, prepared):
        for index, entry in list(prepared.items()):
            self._swallow(index, "shard_abort", entry["token"])
        prepared.clear()

    # -- introspection / lifecycle ---------------------------------------------

    def manifest(self):
        """The shard map manifest (wire/JSON form)."""
        return self.shard_map.manifest()

    def status(self):
        """Coordinator + per-member status."""
        members, failed = self._collect(self._pool.broadcast("status"))
        return {
            "role": "coordinator",
            "shards": self.shard_map.n_shards,
            "map": self.manifest(),
            "blocks": list(self._blocks),
            "members": [
                member if member is not None else {"error": str(error)}
                for member, (_, error) in itertools.zip_longest(
                    members, failed, fillvalue=(None, None))
            ] if failed else members,
        }

    def _collect(self, futures):
        """Wait for every future; returns ``(results, failed)`` where
        ``results[i]`` is ``None`` for a failed slot and ``failed`` is
        ``[(slot, exception), ...]``."""
        results = [None] * len(futures)
        failed = []
        for index, future in enumerate(futures):
            try:
                results[index] = future.result()
            except BaseException as exc:  # noqa: BLE001 - reported upward
                failed.append((index, exc))
        return results, failed

    def _swallow(self, index, verb, *args):
        try:
            self._pool.submit(index, verb, *args).result()
        except BaseException:  # noqa: BLE001 - best-effort cleanup
            pass

    def close(self):
        if self._closed:
            return
        self._closed = True
        if self._owns_backends:
            for index in range(self.shard_map.n_shards):
                try:
                    self._pool.backend(index).close()
                except BaseException:  # noqa: BLE001 - shutdown path
                    pass
        self._pool.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def _check_open(self):
        if self._closed:
            raise ReproError("sharded workspace is closed")

    def __repr__(self):
        return "ShardedWorkspace(n={}, partition={}, blocks={})".format(
            self.shard_map.n_shards, dict(self.shard_map.partition),
            len(self._blocks))
