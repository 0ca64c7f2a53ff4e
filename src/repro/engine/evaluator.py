"""Bottom-up, set-at-a-time evaluation of rule programs (paper T1, §3.2).

The evaluator materializes derived predicates stratum by stratum:

* non-recursive strata evaluate each rule once with LFTJ and build
  *support counts* (number of derivations per head tuple) — the state
  rule-head maintenance needs (§3.2);
* aggregate (P2P) rules build per-group aggregation state;
* recursive strata run a semi-naive fixpoint (delta-driven rounds) and
  are maintained by delete-rederive on updates.

All materialization state is persistent, so workspace versions carry
their evaluation state with them at O(1) branch cost.  One-shot query
evaluation (:meth:`Evaluator.answer`) keeps no maintenance state, and
returns an answer predicate no rule reads as sorted tuples without
materializing it at all.
"""

from repro import obs
from repro.ds.pmap import PMap
from repro.ds.hashing import canonical_key
from repro.engine.aggregates import AGGREGATES, agg_add
from repro.engine.columnar import ColumnarTrieJoin, make_join, resolve_backend
from repro.engine.ir import Const, PredAtom, Var
from repro.engine.lftj import LeapfrogTrieJoin
from repro.engine.rules import stratify
from repro.storage.relation import Relation


class FunctionalDependencyViolation(ValueError):
    """Two derivations assign different values to one functional key."""


class EvaluationError(ValueError):
    """Malformed rule set (mixed aggregate/plain rules, arity clash...)."""


class PredicateState:
    """Materialization state of one derived predicate.

    ``kind`` is ``"count"`` (support counts per tuple), ``"agg"``
    (per-group aggregation state), or ``"recursive"`` (set only,
    maintained by delete/rederive).
    """

    __slots__ = ("kind", "counts", "groups", "agg_fn")

    def __init__(self, kind, counts=None, groups=None, agg_fn=None):
        self.kind = kind
        self.counts = counts if counts is not None else PMap.EMPTY
        self.groups = groups if groups is not None else PMap.EMPTY
        self.agg_fn = agg_fn

    def replace(self, counts=None, groups=None):
        """A copy with updated persistent state."""
        return PredicateState(
            self.kind,
            counts if counts is not None else self.counts,
            groups if groups is not None else self.groups,
            self.agg_fn,
        )


def project_head(rule, var_order, binding):
    """Head tuple for one satisfying assignment."""
    index = {name: position for position, name in enumerate(var_order)}
    return tuple(
        arg.value if isinstance(arg, Const) else binding[index[arg.name]]
        for arg in rule.head_args
    )


class _HeadProjector:
    """Precomputed head projection for a fixed variable order."""

    __slots__ = ("_spec",)

    def __init__(self, rule, var_order, drop_last=False):
        index = {name: position for position, name in enumerate(var_order)}
        args = rule.head_args[:-1] if drop_last else rule.head_args
        self._spec = tuple(
            ("c", arg.value) if isinstance(arg, Const) else ("v", index[arg.name])
            for arg in args
        )

    def __call__(self, binding):
        return tuple(
            value if tag == "c" else binding[value] for tag, value in self._spec
        )


class RuleSet:
    """A compiled set of derivation rules: strata, arities, rule groups."""

    def __init__(self, rules):
        self.rules = list(rules)
        self.rules_by_head = {}
        for rule in self.rules:
            self.rules_by_head.setdefault(rule.head_pred, []).append(rule)
        for pred, group in self.rules_by_head.items():
            has_agg = any(r.agg is not None for r in group)
            if has_agg and len(group) > 1:
                raise EvaluationError(
                    "predicate {} mixes aggregate and other rules".format(pred)
                )
            arities = {len(r.head_args) for r in group}
            if len(arities) > 1:
                raise EvaluationError("predicate {} has inconsistent arity".format(pred))
        self.strata, self.recursive_flags = stratify(self.rules)
        self.derived = set(self.rules_by_head)

    def head_arity(self, pred):
        """Arity of a derived predicate's head."""
        return len(self.rules_by_head[pred][0].head_args)

    def is_aggregate(self, pred):
        """True when ``pred`` is defined by a P2P aggregation rule."""
        group = self.rules_by_head.get(pred)
        return bool(group) and group[0].agg is not None


class Evaluator:
    """Evaluates a :class:`RuleSet` over base relations.

    ``order_chooser(rule, relations)`` may supply LFTJ variable orders
    (the sampling optimizer plugs in here); by default the planner's
    first-appearance order is used.

    ``plan_cache`` (a :class:`~repro.engine.plancache.PlanCache`) makes
    compiled plans survive this evaluator — the workspace threads one
    cache through every evaluator it creates.

    ``backend`` selects the join executor: ``"pure"`` (the per-tuple
    iterator oracle) or ``"columnar"`` (vectorized over
    dictionary-encoded arrays, falling back to pure per join when a
    relation does not encode, sensitivity recording is on, or the
    columnar setup is not paid for).  ``None`` resolves through the
    ``REPRO_ENGINE`` environment override, defaulting to columnar.
    The plan cache also holds the columnar join setups.
    """

    def __init__(
        self,
        ruleset,
        *,
        order_chooser=None,
        prefer_array=True,
        plan_cache=None,
        backend=None,
    ):
        self.ruleset = ruleset
        self.order_chooser = order_chooser
        self.prefer_array = prefer_array
        self.plan_cache = plan_cache
        self.backend = resolve_backend(backend)

    def _order_for(self, rule, relations):
        if self.order_chooser is None:
            return None
        return self.order_chooser(rule, relations)

    def _plan_for(self, rule, var_order):
        if self.plan_cache is not None:
            return self.plan_cache.plan_for(rule, var_order)
        return rule.plan(var_order)

    def rule_bindings(self, rule, relations, recorder=None, prefer_array=None):
        """Iterate satisfying assignments of ``rule``'s body.

        Returns ``(var_order, iterator)``.  When tracing is active the
        iterator is wrapped in a ``join`` span carrying the execution's
        seek/next/open counts; with tracing off the executor runs with
        ``stats=None`` and counts nothing.
        """
        var_order = self._order_for(rule, relations)
        plan = self._plan_for(rule, var_order)
        prefer = self.prefer_array if prefer_array is None else prefer_array
        traced = obs.tracing()
        exec_stats = {} if traced else None
        executor = make_join(plan, relations, recorder, prefer,
                             stats=exec_stats, backend=self.backend,
                             setups=self.plan_cache)
        if isinstance(executor, ColumnarTrieJoin):
            bump_prefix = None  # the columnar executor bumps join.* itself
        else:
            bump_prefix = "join."
        run = executor.run()
        if traced:
            run = obs.traced_bindings(
                "join",
                {
                    "rule": rule.name or rule.head_pred,
                    "vars": len(plan.var_order),
                    "backend": type(executor).__name__,
                },
                run,
                exec_stats,
                bump_prefix,
            )
        return plan.var_order, run

    # -- full evaluation ---------------------------------------------------

    def evaluate(self, base_relations, recorder=None, recorder_for=None, reuse=None):
        """Materialize every derived predicate.

        ``base_relations`` maps predicate name to :class:`Relation`.
        Returns ``(relations, states)`` where ``relations`` includes
        base and derived predicates and ``states`` holds per-predicate
        materialization state.

        ``reuse`` may supply ``(relations, states)`` for derived
        predicates known to be unaffected by a program change (live
        programming, §3.3): those are copied instead of recomputed.  A
        recursive stratum is reused only when every member is reusable.
        """
        chooser = recorder_for if recorder_for is not None else (lambda rule: recorder)
        return self._evaluate(base_relations, {}, chooser, reuse)

    def answer(self, base_relations, pred):
        """Evaluate for one query: ``(relations, rows)``, ``rows`` being
        the sorted tuples of ``pred``.

        No maintenance state is built.  When no rule reads ``pred``, it
        is derived last and its head tuples (support-count keys, or
        aggregate tuples) are returned directly, without building a
        :class:`Relation` for it; ``relations`` then lacks ``pred``.
        """
        reads = {
            atom.pred
            for rule in self.ruleset.rules
            for atom in rule.body
            if isinstance(atom, PredAtom)
        }
        if pred not in self.ruleset.derived or pred in reads:
            relations, _ = self._evaluate(base_relations, None, _no_recorder)
            return relations, sorted(relations[pred])
        relations, _ = self._evaluate(base_relations, None, _no_recorder, skip=pred)
        group = self.ruleset.rules_by_head[pred]
        if group[0].agg is not None:
            groups = self._aggregate_groups(group[0], relations, _no_recorder)
            rows = sorted(_aggregate_tuples(group[0], groups))
        else:
            rows = sorted(self._support_counts(group, relations, _no_recorder))
            _check_functional(pred, group[0], rows)
        _reject_nan(rows)
        return relations, rows

    def _evaluate(self, base_relations, states, chooser, reuse=None, skip=None):
        """Evaluate every stratum but ``skip``'s; ``states=None`` builds
        no :class:`PredicateState` (one-shot evaluation)."""
        relations = dict(base_relations)
        reuse_relations, reuse_states = reuse if reuse is not None else ({}, {})
        for stratum, recursive in zip(self.ruleset.strata, self.ruleset.recursive_flags):
            if recursive:
                if all(pred in reuse_relations for pred in stratum):
                    for pred in stratum:
                        relations[pred] = reuse_relations[pred]
                        states[pred] = reuse_states[pred]
                else:
                    self._evaluate_recursive(stratum, relations, states, chooser)
            else:
                for pred in stratum:
                    if pred == skip:
                        continue
                    if pred in reuse_relations:
                        relations[pred] = reuse_relations[pred]
                        states[pred] = reuse_states[pred]
                    else:
                        self._evaluate_nonrecursive(pred, relations, states, chooser)
        return relations, states

    def _evaluate_nonrecursive(self, pred, relations, states, chooser):
        group = self.ruleset.rules_by_head[pred]
        arity = self.ruleset.head_arity(pred)
        if group[0].agg is not None:
            groups = self._aggregate_groups(group[0], relations, chooser)
            relations[pred] = Relation.from_iter(
                arity, _aggregate_tuples(group[0], groups)
            )
            if states is not None:
                states[pred] = PredicateState(
                    "agg",
                    groups=PMap.from_sorted_items(sorted(groups.items())),
                    agg_fn=group[0].agg.fn,
                )
            return
        counts = self._support_counts(group, relations, chooser)
        relation = Relation.from_iter(arity, counts)
        _check_functional(pred, group[0], relation)
        relations[pred] = relation
        if states is not None:
            states[pred] = PredicateState(
                "count", counts=PMap.from_sorted_items(sorted(counts.items()))
            )

    def _support_counts(self, group, relations, chooser):
        """Head tuple -> number of derivations, over every rule of ``group``."""
        counts = {}
        for rule in group:
            var_order, bindings = self.rule_bindings(rule, relations, chooser(rule))
            project = _HeadProjector(rule, var_order)
            for binding in bindings:
                head = project(binding)
                counts[head] = counts.get(head, 0) + 1
        return counts

    def _aggregate_groups(self, rule, relations, chooser):
        """Group key -> aggregation state for one P2P aggregate rule."""
        aggregate = AGGREGATES[rule.agg.fn]
        var_order, bindings = self.rule_bindings(rule, relations, chooser(rule))
        project = _HeadProjector(rule, var_order, drop_last=True)
        value_position = list(var_order).index(rule.agg.value_var)
        groups = {}
        for binding in bindings:
            group_key = project(binding)
            state = groups.get(group_key)
            if state is None:
                state = aggregate.empty()
            groups[group_key] = agg_add(rule.agg.fn, state, binding[value_position])
        return groups

    def _evaluate_recursive(self, stratum, relations, states, chooser):
        stratum_preds = set(stratum)
        for pred in stratum:
            relations[pred] = Relation.empty(self.ruleset.head_arity(pred))
        # round 0: all rules against the (empty) stratum relations
        delta = {}
        for pred in stratum:
            derived = self._fire_rules_once(pred, relations, chooser)
            new = derived.subtract(relations[pred])
            relations[pred] = relations[pred].union(new)
            delta[pred] = new
        # semi-naive rounds
        while any(bool(d) for d in delta.values()):
            next_delta = {pred: set() for pred in stratum}
            for pred in stratum:
                for rule in self.ruleset.rules_by_head[pred]:
                    for position, atom in enumerate(rule.body):
                        if (
                            not isinstance(atom, PredAtom)
                            or atom.negated
                            or atom.pred not in stratum_preds
                        ):
                            continue
                        if not delta[atom.pred]:
                            continue
                        env = dict(relations)
                        body = list(rule.body)
                        delta_name = "@delta:{}".format(atom.pred)
                        body[position] = PredAtom(delta_name, atom.args)
                        env[delta_name] = delta[atom.pred]
                        delta_rule = _clone_rule(rule, body)
                        var_order, bindings = self.rule_bindings(
                            delta_rule, env, chooser(rule), prefer_array=False
                        )
                        project = _HeadProjector(delta_rule, var_order)
                        for binding in bindings:
                            next_delta[pred].add(project(binding))
            delta = {}
            for pred in stratum:
                fresh = [t for t in next_delta[pred] if t not in relations[pred]]
                new = Relation.from_iter(self.ruleset.head_arity(pred), fresh)
                relations[pred] = relations[pred].union(new)
                delta[pred] = new
        for pred in stratum:
            _check_functional(pred, self.ruleset.rules_by_head[pred][0], relations[pred])
            if states is not None:
                states[pred] = PredicateState("recursive")

    def _fire_rules_once(self, pred, relations, chooser):
        tuples = set()
        for rule in self.ruleset.rules_by_head[pred]:
            var_order, bindings = self.rule_bindings(rule, relations, chooser(rule))
            project = _HeadProjector(rule, var_order)
            for binding in bindings:
                tuples.add(project(binding))
        return Relation.from_iter(self.ruleset.head_arity(pred), tuples)


def _no_recorder(rule):
    return None


def _clone_rule(rule, body):
    from repro.engine.rules import Rule

    return Rule(rule.head_pred, rule.head_args, body, rule.agg, rule.n_keys, rule.name)


def _aggregate_tuples(rule, groups):
    """Head tuples of an aggregate rule: group key plus result."""
    result = AGGREGATES[rule.agg.fn].result
    return [group_key + (result(state),) for group_key, state in groups.items()]


def _reject_nan(rows):
    """Refuse NaN in answer tuples, as storing them in a relation would
    (:func:`repro.ds.hashing.canonical_key`)."""
    for row in rows:
        for value in row:
            if value != value:
                canonical_key(value)


def _check_functional(pred, rule, relation, added=None):
    """Enforce the functional dependency of ``R[keys] = value`` heads.

    ``relation`` is a :class:`Relation` or a sorted list of distinct
    tuples.  ``added`` (the tuples just inserted into a relation that
    satisfied the dependency before them) restricts the check to their
    keys; the smallest offending key is reported either way.
    """
    n_keys = rule.n_keys
    if n_keys >= len(rule.head_args):
        return
    if added is not None:
        for tup in sorted(added):
            matches = relation.iter_prefix(tup[:n_keys])
            next(matches, None)
            if next(matches, None) is not None:
                raise FunctionalDependencyViolation(
                    "{}[{}] derived with conflicting values".format(pred, tup[:n_keys])
                )
        return
    previous_key = None
    for tup in relation:
        key = tup[:n_keys]
        if key == previous_key:
            raise FunctionalDependencyViolation(
                "{}[{}] derived with conflicting values".format(pred, key)
            )
        previous_key = key
