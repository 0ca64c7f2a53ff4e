"""Integrity constraint checking (paper §2.2.1).

A hard constraint ``F -> G`` holds when every satisfying assignment of
``F`` extends to one of ``G``.  The checker takes LHS bindings from LFTJ
and, per binding, runs an existence query over the RHS with the shared
variables pinned through virtual ``@bound:`` singletons (plan built once
per constraint).  Type atoms check the Python-level primitive type of
the bound value.

A transaction's check takes only the LHS bindings its deltas touch, as
the paper checks constraints with the incremental machinery of views
(§2.2.1, §3.2): its cost follows the size of the change, not of the
database.  Program changes, bulk loads and a few structural cases walk
every binding instead.

Soft (weighted) constraints are never enforced here — they define the
MAP-inference objective in :mod:`repro.prob.mln`.
"""

from repro import obs as _obs
from repro import stats as _stats
from repro.engine import ir
from repro.engine.lftj import LeapfrogTrieJoin
from repro.engine.planner import PlanError, build_plan
from repro.storage.datum import check_type
from repro.storage.relation import Relation

#: numeric slack for RHS comparisons: solver write-backs land exactly on
#: constraint boundaries, and float round-trips must not flag them
NUMERIC_TOLERANCE = 1e-6


class _TolerantCompare(ir.CompareAtom):
    """A comparison with numeric slack on its must-hold side."""

    __slots__ = ()

    def holds(self, bindings):
        left = ir.eval_expr(self.left, bindings)
        right = ir.eval_expr(self.right, bindings)
        if isinstance(left, (int, float)) and isinstance(right, (int, float)) \
                and not isinstance(left, bool) and not isinstance(right, bool):
            scale = max(1.0, abs(left), abs(right))
            eps = NUMERIC_TOLERANCE * scale
            if self.op in ("<", "<="):
                return left <= right + eps if self.op == "<=" else left < right + eps
            if self.op in (">", ">="):
                return left >= right - eps if self.op == ">=" else left > right - eps
            if self.op == "=":
                return abs(left - right) <= eps
            if self.op == "!=":
                return abs(left - right) > eps
        return super().holds(bindings)


def _tolerant_rhs(atoms):
    out = []
    for atom in atoms:
        if isinstance(atom, ir.CompareAtom):
            out.append(_TolerantCompare(atom.op, atom.left, atom.right))
        else:
            out.append(atom)
    return out


class _EnvView(dict):
    """Relation environment that supplies empty relations on demand."""

    def __init__(self, relations, arities):
        super().__init__(relations)
        self._arities = arities

    def __missing__(self, name):
        arity = self._arities.get(name)
        if arity is None:
            raise KeyError(name)
        relation = Relation.empty(arity)
        self[name] = relation
        return relation


def _atom_arities(atoms):
    arities = {}
    for atom in atoms:
        if isinstance(atom, ir.PredAtom):
            arities[atom.pred] = len(atom.args)
    return arities


class _CandidateSource:
    """One way a delta on one constraint atom can create violations.

    A delta tuple on ``pred`` (``side`` is ``"added"`` or
    ``"removed"``) is projected onto ``names`` — the atom's variables
    that also occur in the LHS — and the LHS is re-run with an extra
    ``@cand`` atom over them, yielding exactly the LHS bindings that
    tuple touches (IVM's ``@cand`` rewriting, :mod:`repro.engine.ivm`).
    ``plan`` is ``None`` when no such projection exists (an atom with no
    variable shared with the LHS); ``reason`` then says why the full
    walk runs.
    """

    __slots__ = ("side", "positions", "consts", "plan", "order_map", "reason")

    def __init__(self, atom, side, names, lhs_atoms, lhs_order):
        self.side = side
        first = {}
        self.consts = []
        for position, arg in enumerate(atom.args):
            if isinstance(arg, ir.Var):
                first.setdefault(arg.name, position)
            else:
                self.consts.append((position, arg.value))
        names = [name for name in lhs_order if name in names and name in first]
        self.positions = [first[name] for name in names]
        self.plan = self.order_map = None
        self.reason = "unshared" if not names else None
        if not names:
            return
        atoms = list(lhs_atoms) + [
            ir.PredAtom("@cand", [ir.Var(name) for name in names])
        ]
        # the candidate variables lead, so the join starts from the delta
        rest = [name for name in lhs_order if name not in names]
        for order in (names + rest, list(lhs_order)):
            try:
                self.plan = build_plan(atoms, var_order=order, output_vars=lhs_order)
                break
            except PlanError:
                continue
        else:
            self.reason = "unplannable"
            return
        if self.plan.var_order != tuple(lhs_order):
            self.order_map = [self.plan.var_order.index(name) for name in lhs_order]

    def keys(self, delta):
        """The candidate projections of ``delta``'s relevant side."""
        keys = set()
        for tup in getattr(delta, self.side):
            if all(tup[position] == value for position, value in self.consts):
                keys.add(tuple(tup[position] for position in self.positions))
        return keys


class CompiledConstraint:
    """Prepared plans for one constraint (cached per constraint).

    One checking loop (type checks, then an RHS existence probe) runs
    over one of two binding sources: every LHS binding (the full walk),
    or the LHS bindings a delta may have turned into violations, given
    a state that satisfied the constraint before the delta:

    * a positive LHS atom's added tuples, or a negated one's removed
      tuples, make new LHS bindings;
    * a positive RHS atom's removed tuples, or a negated one's added
      tuples, may take away an existing binding's RHS support.

    Both sources yield bindings in ``lhs_plan.var_order`` order, so the
    delta path reports the same violations, in the same order and up to
    the same limit, as the full walk.
    """

    def __init__(self, constraint):
        self.constraint = constraint
        lhs_vars = set()
        for atom in constraint.lhs:
            if isinstance(atom, ir.PredAtom):
                lhs_vars |= {a.name for a in atom.args if isinstance(a, ir.Var)}
            elif isinstance(atom, ir.AssignAtom):
                lhs_vars.add(atom.var)
        rhs_vars = set()
        for atom in constraint.rhs:
            if isinstance(atom, ir.PredAtom):
                rhs_vars |= {a.name for a in atom.args if isinstance(a, ir.Var)}
            elif isinstance(atom, ir.CompareAtom):
                rhs_vars |= atom.var_names()
            elif isinstance(atom, ir.AssignAtom):
                rhs_vars |= atom.input_vars() | {atom.var}
        self.lhs_plan = build_plan(constraint.lhs, output_vars=sorted(lhs_vars))
        self.rhs_bound_vars = sorted(lhs_vars & rhs_vars)
        bound_atoms = [
            ir.PredAtom("@bound:" + name, [ir.Var(name)])
            for name in self.rhs_bound_vars
        ]
        self.rhs_plan = None
        if constraint.rhs:
            self.rhs_plan = build_plan(
                bound_atoms + _tolerant_rhs(constraint.rhs), output_vars=()
            )
        self.preds = _atom_arities(constraint.lhs + constraint.rhs)
        lhs_order = list(self.lhs_plan.var_order)
        self.sources = {}  # pred -> [_CandidateSource]
        for atoms, flip, names in (
            (constraint.lhs, False, set(lhs_order)),
            (constraint.rhs, True, set(self.rhs_bound_vars)),
        ):
            for atom in atoms:
                if not isinstance(atom, ir.PredAtom):
                    continue
                side = "removed" if atom.negated != flip else "added"
                self.sources.setdefault(atom.pred, []).append(
                    _CandidateSource(atom, side, names, constraint.lhs, lhs_order)
                )

    def full_walk_reason(self, relations, deltas):
        """Why ``deltas`` need the full walk, or ``None`` when the
        delta path covers them."""
        for pred, delta in deltas.items():
            for source in self.sources.get(pred, ()):
                if source.plan is None and getattr(delta, source.side):
                    return source.reason
        for pred, delta in deltas.items():
            relation = relations.get(pred)
            if pred in self.sources and len(delta) >= (
                    len(relation) if relation is not None else 0):
                return "bulk"
        return None

    def check(self, relations, limit=10, deltas=None):
        """Return up to ``limit`` violating LHS bindings.

        With ``deltas`` (pred -> :class:`Delta`, already applied to
        ``relations``) only the bindings those deltas touch are checked;
        the caller guarantees the pre-delta state satisfied the
        constraint and that :meth:`full_walk_reason` is ``None``.
        """
        env = _EnvView(relations, self.preds)
        if deltas is None:
            bindings = LeapfrogTrieJoin(self.lhs_plan, env).run()
        else:
            bindings = self._candidates(env, deltas)
        return self._violations(env, bindings, limit)

    def _candidates(self, env, deltas):
        found = set()
        for pred, delta in deltas.items():
            for source in self.sources.get(pred, ()):
                keys = source.keys(delta)
                if not keys:
                    continue
                env["@cand"] = Relation.from_iter(len(source.positions), keys)
                order_map = source.order_map
                for binding in LeapfrogTrieJoin(source.plan, env).run():
                    if order_map is not None:
                        binding = tuple(binding[i] for i in order_map)
                    found.add(binding)
        return sorted(found)

    def _violations(self, env, bindings, limit):
        constraint = self.constraint
        var_order = self.lhs_plan.var_order
        positions = {name: i for i, name in enumerate(var_order)}
        type_checks = [
            (primitive, positions[name])
            for primitive, name in constraint.type_checks
            if primitive is not None and name in positions
        ]
        bound = [("@bound:" + name, positions[name]) for name in self.rhs_bound_vars]
        violations = []
        checked = 0
        for binding in bindings:
            checked += 1
            ok = True
            for primitive, position in type_checks:
                if not check_type(binding[position], primitive):
                    ok = False
                    break
            if ok and self.rhs_plan is not None:
                for name, position in bound:
                    env[name] = Relation.from_iter(1, [(binding[position],)])
                ok = False
                for _ in LeapfrogTrieJoin(self.rhs_plan, env).run():
                    ok = True
                    break
            if not ok:
                violations.append(
                    {name: binding[positions[name]] for name in var_order
                     if not name.startswith("$")}
                )
                if len(violations) >= limit:
                    break
        _stats.bump("constraints.bindings_checked", checked)
        return violations


class ConstraintChecker:
    """Checks a set of hard constraints against workspace relations.

    ``full_walk_preds`` names predicates whose constraints always take
    the full walk: the delta path assumes the pre-delta state satisfied
    the constraint, which does not hold once an exemption (unsolved
    ``lang:solve:variable`` predicates) lifts over rows written while
    it was in force.
    """

    def __init__(self, constraints, full_walk_preds=()):
        self.compiled = []
        self.full_walk_preds = frozenset(full_walk_preds)
        for constraint in constraints:
            if constraint.is_soft:
                continue
            try:
                self.compiled.append(CompiledConstraint(constraint))
            except PlanError:
                # unplannable constraints (no positive LHS atom, e.g.
                # pure-arithmetic tautologies) cannot be violated by data
                continue

    def check(self, relations, changed_preds=None, exempt_preds=(), deltas=None):
        """All violations as ``(constraint, binding)`` pairs.

        ``changed_preds`` narrows the check to constraints that mention
        a changed predicate; ``None`` checks everything (addblock,
        removeblock).  ``deltas`` (pred -> :class:`Delta`, already
        applied to ``relations``) narrows it further, to the bindings
        the deltas touch (the common transactional case); its keys are
        the changed predicates.  ``exempt_preds`` suspends
        constraints mentioning those predicates — used for unsolved
        ``lang:solve:variable`` predicates, which the system (not the
        user) must populate.  The enclosing span gets a ``reason``
        attribute: ``delta``, or why a constraint took the full walk.
        """
        violations = []
        exempt = set(exempt_preds)
        reasons = set()
        if deltas is not None:
            changed_preds = deltas
        for compiled in self.compiled:
            if changed_preds is not None and not any(
                p in changed_preds for p in compiled.preds
            ):
                continue
            if exempt and any(p in exempt for p in compiled.preds):
                continue
            if deltas is None:
                reason = "no_delta"
            elif any(p in self.full_walk_preds for p in compiled.preds):
                reason = "solve_variable"
            else:
                reason = compiled.full_walk_reason(relations, deltas)
            if reason is None:
                reasons.add("delta")
                found = compiled.check(relations, deltas=deltas)
            else:
                reasons.add(reason)
                _stats.bump("constraints.full_checks")
                found = compiled.check(relations)
            for binding in found:
                violations.append((compiled.constraint, binding))
        _obs.annotate(reason=",".join(sorted(reasons)) or "none")
        return violations
