"""Leapfrog triejoin for arbitrary arity (paper §3.2).

Executes a :class:`~repro.engine.planner.Plan`: a backtracking search
through the trie of potential variable bindings, performing a unary
leapfrog join per variable, exactly as the paper describes.  LFTJ is
worst-case optimal for equi-joins [31, 42]: its running time is bounded
by the worst-case cardinality of the query result up to log factors.

When given a :class:`SensitivityRecorder`, every iterator movement,
negation check, and constant-path probe records the sensitivity
intervals that power incremental maintenance (§3.2) and transaction
repair (§3.4).
"""

from repro.engine.ir import CompareAtom, Const, PredAtom, Var
from repro.engine.iterators import SingletonIterator, trie_iterator
from repro.engine.leapfrog import LeapfrogJoin


class LeapfrogTrieJoin:
    """Executor for one planned rule body over a set of relations.

    ``relations`` maps predicate name to :class:`Relation`.  ``run()``
    yields one tuple of values per satisfying assignment, aligned with
    ``plan.var_order`` (set semantics is the caller's concern: LFTJ
    enumerates satisfying assignments, which are already distinct).
    """

    def __init__(
        self,
        plan,
        relations,
        recorder=None,
        prefer_array=False,
        stats=None,
    ):
        self.plan = plan
        self.relations = relations
        self.recorder = recorder
        self.prefer_array = prefer_array
        # optional dict: counts search steps for the optimizer plus
        # seek/next/open movements for the tracing layer (None = free)
        self.stats = stats

    # -- filters -----------------------------------------------------------

    def _negation_holds(self, atom, bindings):
        """Evaluate a negated atom; unbound local variables are
        existential (prefix-absence check via a permuted index)."""
        relation = self.relations[atom.pred]
        bound = []
        free = []
        for position, arg in enumerate(atom.args):
            if isinstance(arg, Const):
                bound.append((position, arg.value))
            elif arg.name in bindings:
                bound.append((position, bindings[arg.name]))
            else:
                free.append(position)
        perm = tuple(position for position, _ in bound) + tuple(free)
        prefix = tuple(value for _, value in bound)
        if self.recorder is not None and prefix:
            self.recorder.tracker(
                atom.pred, perm, len(prefix) - 1, prefix[:-1]
            ).record(prefix[-1], prefix[-1])
        elif self.recorder is not None:
            self.recorder.record_everything(atom.pred)
        if not free and perm == tuple(range(len(atom.args))):
            return prefix not in relation
        probe = trie_iterator(relation, perm, prefix, self.prefer_array)
        return not probe.check_fixed_prefix()

    def _positive_ground_holds(self, atom, bindings):
        relation = self.relations[atom.pred]
        bound = []
        free = []
        for position, arg in enumerate(atom.args):
            if isinstance(arg, Const):
                bound.append((position, arg.value))
            elif arg.name in bindings:
                bound.append((position, bindings[arg.name]))
            else:
                free.append(position)
        perm = tuple(position for position, _ in bound) + tuple(free)
        prefix = tuple(value for _, value in bound)
        if self.recorder is not None and prefix:
            self.recorder.tracker(
                atom.pred, perm, len(prefix) - 1, prefix[:-1]
            ).record(prefix[-1], prefix[-1])
        probe = trie_iterator(relation, perm, prefix, self.prefer_array)
        return probe.check_fixed_prefix()

    def _filter_holds(self, entry, bindings):
        if isinstance(entry, CompareAtom):
            return entry.holds(bindings)
        if isinstance(entry, PredAtom):
            if entry.negated:
                return self._negation_holds(entry, bindings)
            return self._positive_ground_holds(entry, bindings)
        raise TypeError("unknown filter: {!r}".format(entry))

    # -- the search ----------------------------------------------------------

    def run(self):
        """Yield all satisfying assignments as ``var_order``-aligned tuples."""
        plan = self.plan
        for comparison in plan.ground_filters:
            if not comparison.holds({}):
                return
        for atom in plan.ground_atoms:
            if not self._filter_holds(atom, {}):
                return
        iters = []
        for atom_plan in plan.atom_plans:
            relation = self.relations[atom_plan.pred]
            it = trie_iterator(
                relation, atom_plan.perm, atom_plan.const_prefix, self.prefer_array
            )
            if atom_plan.const_prefix:
                if self.recorder is not None:
                    prefix = atom_plan.const_prefix
                    for depth in range(len(prefix)):
                        self.recorder.tracker(
                            atom_plan.pred, atom_plan.perm, depth, prefix[:depth]
                        ).record(prefix[depth], prefix[depth])
                if not it.check_fixed_prefix():
                    return
            iters.append(it)
        if not plan.var_order:
            yield ()
            return
        yield from self._descend(0, iters, {})

    def _descend(self, level, iters, bindings):
        plan = self.plan
        var = plan.var_order[level]
        participants = plan.participants[level]
        stats = self.stats
        if stats is not None and participants:
            stats["opens"] = stats.get("opens", 0) + len(participants)
        level_iters = []
        trackers = []
        for atom_index, own_level in participants:
            it = iters[atom_index]
            it.open()
            level_iters.append(it)
            if self.recorder is not None:
                atom_plan = plan.atom_plans[atom_index]
                depth = len(atom_plan.const_prefix) + own_level
                trackers.append(
                    self.recorder.tracker(
                        atom_plan.pred, atom_plan.perm, depth, it.context()
                    )
                )
            else:
                trackers.append(None)
        assign = plan.assigns.get(level)
        if assign is not None:
            level_iters.append(SingletonIterator(assign.compute(bindings)))
            trackers.append(None)

        join = LeapfrogJoin(level_iters, trackers, stats)
        filters = plan.filters[level]
        last = level == len(plan.var_order) - 1
        while not join.at_end():
            if stats is not None:
                stats["steps"] = stats.get("steps", 0) + 1
            bindings[var] = join.key
            if all(self._filter_holds(f, bindings) for f in filters):
                if last:
                    yield tuple(bindings[name] for name in plan.var_order)
                else:
                    yield from self._descend(level + 1, iters, bindings)
            join.next()
        for atom_index, _ in participants:
            iters[atom_index].up()
        bindings.pop(var, None)


def join_count(plan, relations, prefer_array=False):
    """Number of satisfying assignments (used by tests and benches)."""
    executor = LeapfrogTrieJoin(plan, relations, prefer_array=prefer_array)
    return sum(1 for _ in executor.run())
