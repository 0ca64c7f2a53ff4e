"""Incremental view maintenance (paper §3.2, T3).

The maintenance problem is split exactly as the paper describes:

* **Rule-body maintenance**: the set of satisfying assignments is
  maintained by *delta passes* — for a body ``A1, ..., Ak`` and a
  changed atom position ``i``, join ``new_1 .. new_{i-1}, Δ_i,
  old_{i+1} .. old_k`` (the telescoping identity makes the signed union
  over ``i`` exactly the change in the satisfying-assignment multiset).
  Negated atoms flip the sign of their deltas.  Rules whose recorded
  *sensitivity intervals* are untouched by a delta are skipped outright,
  at cost O(|Δ| log |index|) — the short-circuit that keeps OLTP-style
  writes cheap under thousands of analytical views.
* **Rule-head maintenance**: support counts per derived tuple for plain
  rules; per-group aggregation state for P2P rules; recursive strata
  fall back to delete/rederive (:mod:`repro.engine.dred`).

Sensitivity indices are *accumulated*: each delta pass records the new
regions it explores and merges them into the rule's index.  The index
therefore over-approximates the ideal trace sensitivities (a stale
interval only costs a wasted pass, never a missed update).
"""

from repro import obs
from repro import stats as global_stats
from repro.ds.pmap import PMap
from repro.engine.aggregates import AGGREGATES, agg_add, agg_remove
from repro.engine.evaluator import (
    Evaluator,
    PredicateState,
    _check_functional,
    _HeadProjector,
)
from repro.engine.ir import AssignAtom, PredAtom, Var
from repro.engine.rules import Rule
from repro.engine.iterators import trie_iterator
from repro.engine.sensitivity import SensitivityRecorder
from repro.storage.relation import Delta, Relation


class Materialization:
    """Relations + per-predicate state + per-rule sensitivities.

    Immutable snapshot: maintenance produces a new one, so
    materializations version and branch with workspaces.
    """

    __slots__ = ("relations", "states", "rule_recorders", "_indexes")

    def __init__(self, relations, states, rule_recorders):
        self.relations = relations  # name -> Relation (base + derived)
        self.states = states  # name -> PredicateState
        self.rule_recorders = rule_recorders  # rule index -> SensitivityRecorder
        self._indexes = {}  # rule index -> frozen SensitivityIndex (lazy)

    def sensitivity_index(self, rule_index):
        """Frozen sensitivity index for one rule (cached)."""
        index = self._indexes.get(rule_index)
        if index is None:
            recorder = self.rule_recorders.get(rule_index)
            index = recorder.freeze() if recorder is not None else None
            self._indexes[rule_index] = index
        return index


class IncrementalEngine:
    """Materializes a rule set and maintains it under base-data deltas."""

    def __init__(self, ruleset, *, track_sensitivity=True, plan_cache=None,
                 backend=None):
        self.ruleset = ruleset
        self.track_sensitivity = track_sensitivity
        self.evaluator = Evaluator(
            ruleset, prefer_array=True, plan_cache=plan_cache, backend=backend,
        )
        # delta passes stay columnar-capable too: recorder-carrying rule
        # joins fall back to the pure executor per join inside make_join
        self.delta_evaluator = Evaluator(
            ruleset, prefer_array=False, plan_cache=plan_cache, backend=backend
        )
        self._delta_rules = {}  # (rule index, position, kind) -> delta Rule
        self._local_vars_cache = {}  # rule index -> {atom idx: local positions}
        self._rule_index = {id(rule): i for i, rule in enumerate(ruleset.rules)}

    # -- initial materialization --------------------------------------------

    def initialize(self, base_relations, reuse=None, reuse_recorders=None):
        """Full evaluation with per-rule sensitivity recording.

        ``reuse`` / ``reuse_recorders`` carry over materializations and
        sensitivity recorders for predicates/rules unaffected by a
        program change (the live-programming path, §3.3).
        """
        recorders = dict(reuse_recorders or {})

        def recorder_for(rule):
            if not self.track_sensitivity:
                return None
            index = self._rule_index[id(rule)]
            recorder = recorders.get(index)
            if recorder is None:
                recorder = recorders[index] = SensitivityRecorder()
            return recorder

        relations, states = self.evaluator.evaluate(
            base_relations, recorder_for=recorder_for, reuse=reuse
        )
        return Materialization(relations, states, recorders)

    # -- maintenance ---------------------------------------------------------

    def apply(self, mat, base_deltas):
        """Maintain the materialization under base-predicate deltas.

        ``base_deltas`` maps base predicate names to :class:`Delta`.
        Returns ``(new_materialization, all_deltas)`` where
        ``all_deltas`` includes the propagated deltas of every changed
        derived predicate (the paper's ``T^Δ`` "propagated forward to
        other rules").
        """
        with obs.span("ivm.apply", base_preds=len(base_deltas)) as span_:
            global_stats.bump("ivm.applies")
            old_relations = mat.relations
            new_relations = dict(old_relations)
            new_states = dict(mat.states)
            recorders = dict(mat.rule_recorders)
            deltas = {}
            base_tuples = 0
            for pred, delta in base_deltas.items():
                base = old_relations.get(pred)
                if base is None:
                    raise KeyError("unknown base predicate {}".format(pred))
                normalized = delta.normalized(base)
                if normalized:
                    deltas[pred] = normalized
                    new_relations[pred] = base.apply(normalized)
                    base_tuples += len(normalized.added) + len(normalized.removed)
            global_stats.bump("ivm.delta_tuples", base_tuples)

            for stratum, recursive in zip(
                self.ruleset.strata, self.ruleset.recursive_flags
            ):
                if recursive:
                    self._maintain_recursive(
                        stratum, old_relations, new_relations, new_states, deltas
                    )
                else:
                    for pred in stratum:
                        self._maintain_nonrecursive(
                            pred,
                            old_relations,
                            new_relations,
                            new_states,
                            deltas,
                            recorders,
                            mat,
                        )
            new_mat = Materialization(new_relations, new_states, recorders)
            if span_ is not None:
                span_.attrs["base_tuples"] = base_tuples
                span_.attrs["changed_preds"] = len(deltas)
            return new_mat, deltas

    def _rule_affected(self, mat, rule_index, rule, deltas):
        """Sensitivity short-circuit: may these deltas change this rule?"""
        body_preds = rule.body_preds()
        relevant = {p: d for p, d in deltas.items() if p in body_preds}
        if not relevant:
            return False, relevant
        if not self.track_sensitivity:
            return True, relevant
        index = mat.sensitivity_index(rule_index)
        if index is None:
            return True, relevant
        for pred, delta in relevant.items():
            if index.delta_affects(pred, delta):
                return True, relevant
        return False, relevant

    def _delta_rule(self, rule_index, position, rule, kind="tuple", bound_args=None):
        """The rewritten rule for a delta pass at ``position`` (cached).

        ``kind="tuple"``: atom ``position`` becomes a positive atom over
        ``@delta`` (exact tuple-level counting).  ``kind="cand"``: the
        atom becomes ``@cand`` over its bound argument positions
        (existence-diff passes for atoms with local existential
        variables).  ``kind="drop"``: the atom is removed entirely
        (no bound positions at all).  Earlier predicate atoms read
        ``@new:<pred>``, later ones ``@old:<pred>``.
        """
        key = (rule_index, position, kind)
        cached = self._delta_rules.get(key)
        if cached is not None:
            return cached
        body = []
        for index, atom in enumerate(rule.body):
            if not isinstance(atom, PredAtom):
                body.append(atom)
                continue
            if index == position:
                if kind == "tuple":
                    body.append(PredAtom("@delta", atom.args, negated=False))
                elif kind == "cand":
                    body.append(PredAtom("@cand", bound_args, negated=False))
                # kind == "drop": omit the atom
            elif index < position:
                body.append(PredAtom("@new:" + atom.pred, atom.args, atom.negated))
            else:
                body.append(PredAtom("@old:" + atom.pred, atom.args, atom.negated))
        delta_rule = Rule(
            rule.head_pred, rule.head_args, body, rule.agg, rule.n_keys, rule.name
        )
        self._delta_rules[key] = delta_rule
        return delta_rule

    def _local_positions(self, rule_index, rule):
        """Per body atom: argument positions holding *local* existential
        variables (used once in the whole body and not needed by the
        head) — the variables the planner treats as trailing wildcards.
        """
        cached = self._local_vars_cache.get(rule_index)
        if cached is not None:
            return cached
        counts = {}
        protected = set(rule.head_vars())
        for atom in rule.body:
            if isinstance(atom, PredAtom):
                for arg in atom.args:
                    if isinstance(arg, Var):
                        counts[arg.name] = counts.get(arg.name, 0) + 1
            elif isinstance(atom, AssignAtom):
                protected |= atom.input_vars() | {atom.var}
            else:
                protected |= atom.var_names()
        locals_ = {
            name for name, count in counts.items() if count == 1
        } - protected
        result = {}
        for index, atom in enumerate(rule.body):
            if not isinstance(atom, PredAtom):
                continue
            positions = tuple(
                p
                for p, arg in enumerate(atom.args)
                if isinstance(arg, Var) and arg.name in locals_
            )
            if positions:
                result[index] = positions
        self._local_vars_cache[rule_index] = result
        return result

    def _signed_bindings(self, rule_index, rule, old_relations, new_relations, deltas, recorder):
        """Yield ``(sign, var_order, binding)`` for every change to the
        rule body's satisfying-assignment set.

        Atoms without local variables use exact tuple-level telescoping
        (``new_1..new_{i-1}, Δ_i, old_{i+1}..old_k``; negation flips the
        delta's sign).  Atoms with local existential variables use
        existence-diff candidates: the atom's truth for a bound-prefix
        can only change where the delta touches it.
        """
        local_map = self._local_positions(rule_index, rule)
        for position, atom in enumerate(rule.body):
            if not isinstance(atom, PredAtom):
                continue
            delta = deltas.get(atom.pred)
            if delta is None or not delta:
                continue
            env = {}
            for other in rule.body:
                if isinstance(other, PredAtom):
                    env["@new:" + other.pred] = new_relations[other.pred]
                    env["@old:" + other.pred] = old_relations[other.pred]
            local_positions = local_map.get(position)
            if not local_positions:
                delta_rule = self._delta_rule(rule_index, position, rule)
                arity = new_relations[atom.pred].arity
                passes = [
                    (1, delta.added if not atom.negated else delta.removed),
                    (-1, delta.removed if not atom.negated else delta.added),
                ]
                for sign, tuple_set in passes:
                    if not tuple_set:
                        continue
                    env["@delta"] = Relation(arity, tuple_set)
                    var_order, bindings = self.delta_evaluator.rule_bindings(
                        delta_rule, dict(env), recorder
                    )
                    for binding in bindings:
                        yield sign, var_order, binding
                continue
            # existence-diff path
            bound_positions = tuple(
                p for p in range(len(atom.args)) if p not in local_positions
            )
            perm = bound_positions + local_positions
            old_rel = old_relations[atom.pred]
            new_rel = new_relations[atom.pred]
            candidates = {}
            for tup in list(delta.added) + list(delta.removed):
                partial = tuple(tup[p] for p in bound_positions)
                if partial in candidates:
                    continue
                exists_old = trie_iterator(old_rel, perm, partial).check_fixed_prefix()
                exists_new = trie_iterator(new_rel, perm, partial).check_fixed_prefix()
                diff = int(exists_new) - int(exists_old)
                if atom.negated:
                    diff = -diff
                candidates[partial] = diff
                if recorder is not None:
                    recorder.record_prefix(atom.pred, perm, partial)
            if not bound_positions:
                diff = candidates.get((), 0)
                if diff == 0:
                    continue
                delta_rule = self._delta_rule(rule_index, position, rule, kind="drop")
                var_order, bindings = self.delta_evaluator.rule_bindings(
                    delta_rule, dict(env), recorder
                )
                for binding in bindings:
                    yield diff, var_order, binding
                continue
            bound_args = tuple(atom.args[p] for p in bound_positions)
            delta_rule = self._delta_rule(
                rule_index, position, rule, kind="cand", bound_args=bound_args
            )
            for sign in (1, -1):
                matching = [k for k, d in candidates.items() if d == sign]
                if not matching:
                    continue
                env["@cand"] = Relation.from_iter(len(bound_positions), matching)
                var_order, bindings = self.delta_evaluator.rule_bindings(
                    delta_rule, dict(env), recorder
                )
                for binding in bindings:
                    yield sign, var_order, binding

    def _maintain_nonrecursive(
        self, pred, old_relations, new_relations, new_states, deltas, recorders, mat
    ):
        group = self.ruleset.rules_by_head[pred]
        if group[0].agg is not None:
            self._maintain_aggregate(
                pred,
                group[0],
                old_relations,
                new_relations,
                new_states,
                deltas,
                recorders,
                mat,
            )
            return
        # a predicate none of whose rule bodies read a changed predicate
        # cannot change; skipping before opening a span keeps traces to
        # the predicates actually visited (matches the old ``touched``
        # early return exactly — ``relevant`` is this same intersection)
        if not any(p in deltas for rule in group for p in rule.body_preds()):
            return
        with obs.span("ivm.maintain", pred=pred, rules=len(group)) as span_:
            count_changes = {}
            for rule in group:
                rule_index = self._rule_index[id(rule)]
                affected, relevant = self._rule_affected(mat, rule_index, rule, deltas)
                if not relevant:
                    continue
                if not affected:
                    global_stats.bump("ivm.sensitivity_skips")
                    continue
                recorder = recorders.get(rule_index)
                if recorder is None and self.track_sensitivity:
                    recorder = recorders[rule_index] = SensitivityRecorder()
                projectors = {}
                for sign, var_order, binding in self._signed_bindings(
                    rule_index, rule, old_relations, new_relations, deltas, recorder
                ):
                    projector = projectors.get(var_order)
                    if projector is None:
                        projector = projectors[var_order] = _HeadProjector(rule, var_order)
                    head = projector(binding)
                    count_changes[head] = count_changes.get(head, 0) + sign
            state = new_states[pred]
            counts = state.counts
            added, removed = [], []
            support_updates = 0
            for head, change in count_changes.items():
                if change == 0:
                    continue
                support_updates += 1
                old_count = counts.get(head, 0)
                new_count = old_count + change
                if new_count < 0:
                    raise AssertionError(
                        "negative support count for {} {}".format(pred, head)
                    )
                if new_count == 0:
                    counts = counts.remove(head)
                    removed.append(head)
                else:
                    counts = counts.set(head, new_count)
                    if old_count == 0:
                        added.append(head)
            if support_updates:
                global_stats.bump("ivm.support_updates", support_updates)
            if span_ is not None:
                span_.attrs["support_updates"] = support_updates
                span_.attrs["added"] = len(added)
                span_.attrs["removed"] = len(removed)
            if not added and not removed:
                if count_changes:
                    new_states[pred] = state.replace(counts=counts)
                return
            delta = Delta.from_iters(added, removed)
            global_stats.bump("ivm.delta_tuples", len(added) + len(removed))
            new_relations[pred] = new_relations[pred].apply(delta)
            _check_functional(pred, group[0], new_relations[pred])
            new_states[pred] = state.replace(counts=counts)
            deltas[pred] = delta

    def _maintain_aggregate(
        self, pred, rule, old_relations, new_relations, new_states, deltas, recorders, mat
    ):
        rule_index = self._rule_index[id(rule)]
        affected, relevant = self._rule_affected(mat, rule_index, rule, deltas)
        if not relevant:
            return
        if not affected:
            global_stats.bump("ivm.sensitivity_skips")
            return
        with obs.span("ivm.maintain", pred=pred, agg=rule.agg.fn) as span_:
            recorder = recorders.get(rule_index)
            if recorder is None and self.track_sensitivity:
                recorder = recorders[rule_index] = SensitivityRecorder()
            aggregate = AGGREGATES[rule.agg.fn]
            state = new_states[pred]
            groups = state.groups
            touched_groups = {}
            projectors = {}
            for sign, var_order, binding in self._signed_bindings(
                rule_index, rule, old_relations, new_relations, deltas, recorder
            ):
                spec = projectors.get(var_order)
                if spec is None:
                    spec = projectors[var_order] = (
                        _HeadProjector(rule, var_order, drop_last=True),
                        list(var_order).index(rule.agg.value_var),
                    )
                projector, value_position = spec
                group_key = projector(binding)
                value = binding[value_position]
                if group_key not in touched_groups:
                    touched_groups[group_key] = groups.get(group_key)
                current = groups.get(group_key)
                if current is None:
                    current = aggregate.empty()
                if sign > 0:
                    groups = groups.set(group_key, agg_add(rule.agg.fn, current, value))
                else:
                    updated = agg_remove(rule.agg.fn, current, value)
                    if updated.is_empty():
                        groups = groups.remove(group_key)
                    else:
                        groups = groups.set(group_key, updated)
            if span_ is not None:
                span_.attrs["groups_touched"] = len(touched_groups)
            if not touched_groups:
                return
            global_stats.bump("ivm.support_updates", len(touched_groups))
            added, removed = [], []
            for group_key, old_state in touched_groups.items():
                old_tuple = (
                    group_key + (aggregate.result(old_state),)
                    if old_state is not None and not old_state.is_empty()
                    else None
                )
                new_state = groups.get(group_key)
                new_tuple = (
                    group_key + (aggregate.result(new_state),)
                    if new_state is not None and not new_state.is_empty()
                    else None
                )
                if old_tuple == new_tuple:
                    continue
                if old_tuple is not None:
                    removed.append(old_tuple)
                if new_tuple is not None:
                    added.append(new_tuple)
            new_states[pred] = state.replace(groups=groups)
            if not added and not removed:
                return
            delta = Delta.from_iters(added, removed)
            global_stats.bump("ivm.delta_tuples", len(added) + len(removed))
            new_relations[pred] = new_relations[pred].apply(delta)
            deltas[pred] = delta

    def _maintain_recursive(
        self, stratum, old_relations, new_relations, new_states, deltas
    ):
        from repro.engine.dred import maintain_recursive_stratum

        body_preds = set()
        for pred in stratum:
            for rule in self.ruleset.rules_by_head[pred]:
                body_preds |= rule.body_preds()
        if not any(p in deltas for p in body_preds):
            return
        stratum_deltas = maintain_recursive_stratum(
            self.ruleset, stratum, old_relations, new_relations, deltas
        )
        for pred, delta in stratum_deltas.items():
            if delta:
                new_relations[pred] = new_relations[pred].apply(delta)
                deltas[pred] = delta
