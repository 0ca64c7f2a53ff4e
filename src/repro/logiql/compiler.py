"""Compilation of LogiQL ASTs into engine-level objects.

Lowers parsed clauses into:

* :class:`~repro.engine.rules.Rule` objects (plain, aggregate, and
  reactive rules over delta predicates);
* :class:`Constraint` objects — integrity constraints checked as
  "every LHS binding extends to an RHS binding";
* schema declarations extracted from type-declaration constraints
  (``Stock[p] = v -> Product(p), float(v).``) and entity declarations
  (``Product(p) -> .``);
* solve directives, predict rules, and probabilistic (``Flip``) rules,
  interpreted by the solver / ml / prob subsystems.

Desugaring performed here: functional terms used as expressions become
fresh variables plus atoms; arithmetic in heads and atom arguments
becomes ``AssignAtom`` bindings; ``^R`` reactive heads expand into the
``+R`` / ``-R`` pair with an ``R@start`` lookup; ``=`` between an
otherwise-unbound variable and an expression becomes an assignment.
"""

import itertools

from repro.engine import ir
from repro.engine.rules import AggSpec, Rule
from repro.logiql import ast
from repro.storage.datum import PrimitiveType, type_from_name
from repro.storage.schema import EntityType, PredicateDecl


class CompileError(ValueError):
    """Semantic error during compilation."""


DELTA_PLUS = "+"
DELTA_MINUS = "-"


def delta_pred(name, sign):
    """Name of the delta predicate (``+R`` / ``-R``)."""
    return sign + name


def start_pred(name):
    """Name of the transaction-start version (``R@start``)."""
    return name + "@start"


class Constraint:
    """An integrity constraint: every LHS binding must extend to RHS.

    ``lhs`` and ``rhs`` are lists of engine IR atoms; ``type_checks``
    holds ``(PrimitiveType, var_name)`` pairs from type atoms.  Soft
    constraints carry a ``weight`` and are skipped by the enforcing
    checker (they feed MAP inference instead, §2.3.3).
    """

    __slots__ = ("lhs", "rhs", "type_checks", "weight", "text")

    def __init__(self, lhs, rhs, type_checks, weight=None, text=None):
        self.lhs = list(lhs)
        self.rhs = list(rhs)
        self.type_checks = list(type_checks)
        self.weight = weight
        self.text = text

    @property
    def is_soft(self):
        """Soft constraints carry weights and are never enforced."""
        return self.weight is not None

    def __repr__(self):
        return "Constraint({} -> {})".format(self.lhs, self.rhs)


class PredictRule:
    """A ``predict`` P2P rule (paper §2.3.2), interpreted by repro.ml."""

    __slots__ = ("head_pred", "head_keys", "fn", "target_var", "feature_var", "body", "n_keys")

    def __init__(self, head_pred, head_keys, fn, target_var, feature_var, body):
        self.head_pred = head_pred
        self.head_keys = tuple(head_keys)
        self.fn = fn
        self.target_var = target_var
        self.feature_var = feature_var
        self.body = list(body)
        self.n_keys = len(self.head_keys)

    def __repr__(self):
        return "PredictRule({}, fn={})".format(self.head_pred, self.fn)


class ProbRule:
    """A probabilistic rule whose head draws from ``Flip[p]`` (§2.3.3)."""

    __slots__ = ("head_pred", "head_args", "param_expr", "body")

    def __init__(self, head_pred, head_args, param_expr, body):
        self.head_pred = head_pred
        self.head_args = tuple(head_args)
        self.param_expr = param_expr
        self.body = list(body)

    def __repr__(self):
        return "ProbRule({})".format(self.head_pred)


class CompiledBlock:
    """Everything a parsed block contributes to a workspace."""

    def __init__(self):
        self.rules = []  # engine Rules with ordinary heads
        self.reactive_rules = []  # engine Rules with +R / -R heads
        self.constraints = []  # Constraint objects (hard and soft)
        self.decls = []  # PredicateDecl
        self.entities = []  # EntityType
        self.directives = []  # ast.DirectiveClause
        self.predict_rules = []  # PredictRule
        self.prob_rules = []  # ProbRule
        self.source = None  # original LogiQL text (durable checkpoints)


class _Lowerer:
    """Per-clause lowering context: fresh variables + emitted atoms."""

    def __init__(self, reactive=False, fresh=None):
        self.atoms = []
        # two contexts lowering one clause share ``fresh``, so their
        # generated variables (``$w0``...) cannot collide
        self.fresh = fresh if fresh is not None else itertools.count()
        self.reactive = reactive
        self.type_checks = []

    def fresh_var(self, hint="t"):
        return "${}{}".format(hint, next(self.fresh))

    def _pred_name(self, name, delta, at_start):
        if delta:
            name = delta + name
        if at_start:
            name = start_pred(name)
        elif self.reactive and not delta:
            # inside reactive logic, plain references read the
            # transaction-start state (the new state is only defined by
            # the frame rules afterwards)
            name = start_pred(name)
        return name

    def term(self, node, as_arg=False):
        """Lower a term to an IR expression (Var/Const/BinOp/Call).

        With ``as_arg=True`` the result must be a Var or Const; complex
        expressions are bound to fresh variables via assignments.
        """
        expr = self._term(node)
        if as_arg and not isinstance(expr, (ir.Var, ir.Const)):
            var = self.fresh_var("e")
            self.atoms.append(ir.AssignAtom(var, expr))
            return ir.Var(var)
        return expr

    def _term(self, node):
        if isinstance(node, ast.VarT):
            return ir.Var(node.name)
        if isinstance(node, ast.Wildcard):
            return ir.Var(self.fresh_var("w"))
        if isinstance(node, (ast.NumT, ast.StrT, ast.BoolT)):
            return ir.Const(node.value)
        if isinstance(node, ast.Arith):
            return ir.BinOp(node.op, self._term(node.left), self._term(node.right))
        if isinstance(node, ast.CallT):
            return ir.Call(node.fn, [self._term(a) for a in node.args])
        if isinstance(node, ast.FuncTerm):
            value = self.fresh_var("f")
            keys = [self.term(k, as_arg=True) for k in node.keys]
            name = self._pred_name(node.pred, None, node.at_start)
            self.atoms.append(ir.PredAtom(name, keys + [ir.Var(value)]))
            return ir.Var(value)
        if isinstance(node, ast.FlipT):
            raise CompileError("Flip[...] is only allowed as a rule head value")
        if isinstance(node, ast.PredRef):
            return ir.Const(node.name)
        if isinstance(node, ast._RelTermAtom):
            raise CompileError(
                "predicate application {}(...) used as a term".format(node.pred)
            )
        raise CompileError("unsupported term: {!r}".format(node))

    def atom(self, node):
        """Lower one AST atom, appending IR atoms to this context."""
        if isinstance(node, ast.RelAtom):
            name = self._pred_name(node.pred, node.delta, node.at_start)
            args = [self.term(t, as_arg=True) for t in node.terms]
            self.atoms.append(ir.PredAtom(name, args, node.negated))
            return
        if isinstance(node, ast.FuncAtom):
            name = self._pred_name(node.pred, node.delta, node.at_start)
            keys = [self.term(t, as_arg=True) for t in node.keys]
            value = self.term(node.value, as_arg=True)
            self.atoms.append(ir.PredAtom(name, keys + [value], node.negated))
            return
        if isinstance(node, ast.Comparison):
            left = self._term(node.left)
            right = self._term(node.right)
            self.atoms.append(ir.CompareAtom(node.op, left, right))
            return
        if isinstance(node, ast.TypeAtom):
            primitive = type_from_name(node.type_name)
            term = self._term(node.term)
            if isinstance(term, ir.Var):
                self.type_checks.append((primitive, term.name))
            return
        raise CompileError("unsupported atom: {!r}".format(node))

    def finish(self):
        """Convert unbound ``=`` comparisons into assignments."""
        bound = set()
        for atom in self.atoms:
            if isinstance(atom, ir.PredAtom) and not atom.negated:
                bound.update(a.name for a in atom.args if isinstance(a, ir.Var))
        changed = True
        while changed:
            changed = False
            for index, atom in enumerate(self.atoms):
                if not isinstance(atom, ir.CompareAtom) or atom.op != "=":
                    continue
                for target, source in ((atom.left, atom.right), (atom.right, atom.left)):
                    if (
                        isinstance(target, ir.Var)
                        and target.name not in bound
                        and target.name not in ir.expr_vars(source)
                        and ir.expr_vars(source) <= bound | _const_closure(source)
                    ):
                        self.atoms[index] = ir.AssignAtom(target.name, source)
                        bound.add(target.name)
                        changed = True
                        break
            # also pick up variables bound by existing assignments
            for atom in self.atoms:
                if isinstance(atom, ir.AssignAtom) and atom.var not in bound:
                    if atom.input_vars() <= bound:
                        bound.add(atom.var)
                        changed = True
        return self.atoms


def _const_closure(expr):
    # helper so fully-constant expressions qualify as sources
    return set()


_TYPE_NAMES = {t.value for t in PrimitiveType}


def _is_declaration(clause, known_entities):
    """Is this constraint a predicate type declaration?

    Pattern: single positive atom on the left with distinct plain
    variables, and a right side of only type atoms / entity atoms over
    those variables.
    """
    if len(clause.lhs) != 1 or clause.weight is not None:
        return False
    atom = clause.lhs[0]
    if isinstance(atom, ast.RelAtom):
        terms = atom.terms
        if atom.negated or atom.delta or atom.at_start:
            return False
    elif isinstance(atom, ast.FuncAtom):
        if atom.negated or atom.delta or atom.at_start:
            return False
        terms = atom.keys + (atom.value,)
    else:
        return False
    names = []
    for term in terms:
        if not isinstance(term, ast.VarT):
            return False
        names.append(term.name)
    if len(set(names)) != len(names):
        return False
    for item in clause.rhs:
        if isinstance(item, ast.TypeAtom):
            if not isinstance(item.term, ast.VarT) or item.term.name not in names:
                return False
        elif isinstance(item, ast.RelAtom):
            if len(item.terms) != 1 or not isinstance(item.terms[0], ast.VarT):
                return False
        else:
            return False
    return True


def _extract_declaration(clause, block):
    atom = clause.lhs[0]
    if isinstance(atom, ast.RelAtom):
        names = [t.name for t in atom.terms]
        is_functional = False
    else:
        names = [t.name for t in atom.keys] + [atom.value.name]
        is_functional = True
    types = {}
    entities = {}
    for item in clause.rhs:
        if isinstance(item, ast.TypeAtom):
            types[item.term.name] = type_from_name(item.type_name)
        elif isinstance(item, ast.RelAtom):
            entities[item.terms[0].name] = item.pred
    arg_types = []
    for name in names:
        if name in types:
            arg_types.append(types[name])
        elif name in entities:
            arg_types.append(EntityType(entities[name]))
        else:
            arg_types.append(None)
    block.decls.append(
        PredicateDecl(atom.pred, arg_types, is_functional=is_functional)
    )


def _compile_constraint(clause, block):
    if not clause.rhs:
        # entity declaration: Product(p) -> .
        atom = clause.lhs[0] if len(clause.lhs) == 1 else None
        if (
            isinstance(atom, ast.RelAtom)
            and len(atom.terms) == 1
            and not atom.negated
            and not atom.delta
        ):
            block.entities.append(EntityType(atom.pred))
            block.decls.append(PredicateDecl(atom.pred, [None]))
            return
        raise CompileError("constraint with empty right-hand side must be "
                           "an entity declaration")
    if _is_declaration(clause, block.entities):
        _extract_declaration(clause, block)
    lhs_ctx = _Lowerer()
    for atom in clause.lhs:
        lhs_ctx.atom(atom)
    lhs = lhs_ctx.finish()
    rhs_ctx = _Lowerer(fresh=lhs_ctx.fresh)
    for atom in clause.rhs:
        rhs_ctx.atom(atom)
    rhs = rhs_ctx.finish()
    block.constraints.append(
        Constraint(
            lhs,
            rhs,
            lhs_ctx.type_checks + rhs_ctx.type_checks,
            clause.weight,
            text=repr(clause),
        )
    )


def _compile_rule(clause, block):
    head = clause.head
    reactive = isinstance(head, (ast.RelAtom, ast.FuncAtom)) and head.delta is not None

    if isinstance(head, ast.FuncAtom) and isinstance(head.value, ast.FlipT):
        context = _Lowerer()
        keys = [context.term(k, as_arg=True) for k in head.keys]
        param = context._term(head.value.param)
        for atom in clause.body:
            context.atom(atom)
        block.prob_rules.append(
            ProbRule(head.pred, keys, param, context.finish())
        )
        return

    if clause.predict is not None:
        context = _Lowerer()
        if not isinstance(head, ast.FuncAtom):
            raise CompileError("predict rules need a functional head")
        keys = [context.term(k, as_arg=True) for k in head.keys]
        for atom in clause.body:
            context.atom(atom)
        target = clause.predict.target
        feature = clause.predict.feature
        if not isinstance(target, ast.VarT) or not isinstance(feature, ast.VarT):
            raise CompileError("predict arguments must be variables")
        block.predict_rules.append(
            PredictRule(
                head.pred,
                keys,
                clause.predict.fn,
                target.name,
                feature.name,
                context.finish(),
            )
        )
        return

    if reactive and head.delta == "^":
        _compile_caret_rule(clause, block)
        return

    context = _Lowerer(reactive=reactive)
    if isinstance(head, ast.RelAtom):
        head_args = [context.term(t, as_arg=True) for t in head.terms]
        head_pred = (head.delta or "") + head.pred
        n_keys = len(head_args)
        functional = False
    elif isinstance(head, ast.FuncAtom):
        keys = [context.term(t, as_arg=True) for t in head.keys]
        if clause.agg is not None:
            value = ir.Var(clause.agg.result_var)
        else:
            value = context.term(head.value, as_arg=True)
        head_args = keys + [value]
        head_pred = (head.delta or "") + head.pred
        n_keys = len(keys)
        functional = True
    else:
        raise CompileError("rule head must be a predicate atom")

    agg = None
    if clause.agg is not None:
        value_expr = context.term(clause.agg.value, as_arg=True)
        if isinstance(value_expr, ir.Const):
            var = context.fresh_var("agv")
            context.atoms.append(ir.AssignAtom(var, value_expr))
            value_expr = ir.Var(var)
        agg = AggSpec(clause.agg.fn, clause.agg.result_var, value_expr.name)

    for atom in clause.body:
        context.atom(atom)
    body = context.finish()
    rule = Rule(head_pred, head_args, body, agg, n_keys if functional else None)
    if reactive:
        block.reactive_rules.append(rule)
    else:
        block.rules.append(rule)


def _compile_caret_rule(clause, block):
    """``^R[k] = v <- body`` expands to the +R / -R pair with frame
    lookup of the old value (paper §2.2.1)."""
    head = clause.head
    if not isinstance(head, ast.FuncAtom):
        raise CompileError("^ heads are only supported on functional predicates")
    plus = ast.RuleClause(
        ast.FuncAtom(head.pred, head.keys, head.value, delta="+"),
        clause.body,
        clause.agg,
    )
    _compile_rule(plus, block)
    old = ast.VarT("$old")
    minus_body = list(clause.body) + [
        ast.FuncAtom(head.pred, head.keys, old, at_start=True)
    ]
    minus = ast.RuleClause(
        ast.FuncAtom(head.pred, head.keys, old, delta="-"),
        minus_body,
    )
    _compile_rule(minus, block)


def compile_program(program):
    """Compile a parsed :class:`ast.Program` into a :class:`CompiledBlock`."""
    source = program if isinstance(program, str) else None
    if isinstance(program, str):
        from repro.logiql.parser import parse_program

        program = parse_program(program)
    block = CompiledBlock()
    block.source = source
    for clause in program.clauses:
        if isinstance(clause, ast.DirectiveClause):
            block.directives.append(clause)
        elif isinstance(clause, ast.ConstraintClause):
            _compile_constraint(clause, block)
        elif isinstance(clause, ast.RuleClause):
            _compile_rule(clause, block)
        else:
            raise CompileError("unsupported clause: {!r}".format(clause))
    return block
