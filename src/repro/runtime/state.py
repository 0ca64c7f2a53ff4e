"""Immutable workspace state: logic + data at one version (paper §2.2.2).

"A workspace consists of (i) a collection of declared predicates,
derivation rules, and constraints (collectively called logic) and (ii)
contents of the base predicates."  Logic is organized in named blocks.

A :class:`WorkspaceState` is one snapshot: the block map, the base
relations, and the materialization of all derived predicates.  States
are immutable — transactions produce new states, the version graph
records them, and branching shares everything (T4).

:class:`ProgramArtifacts` holds everything derivable from the block map
alone (rule sets, engines, constraint checkers); states with the same
program share one artifacts object by reference.
"""

from repro.ds.pmap import PMap
from repro.engine.evaluator import RuleSet
from repro.engine.ir import PredAtom
from repro.engine.ivm import IncrementalEngine
from repro.engine.rules import Rule
from repro.logiql.compiler import start_pred
from repro.runtime.constraints import ConstraintChecker
from repro.storage.relation import Relation
from repro.storage.schema import Schema


def _strip_start(name):
    return name[:-6] if name.endswith("@start") else name


def _base_name(name):
    if name and name[0] in "+-":
        name = name[1:]
    return _strip_start(name)


class ProgramArtifacts:
    """Compiled program: combined rules, engines, checkers, metadata.

    ``plan_cache`` / ``engine_backend`` are forwarded to
    the incremental engine's evaluators; the workspace supplies one plan
    cache for all artifact generations so compiled plans survive
    program edits.
    """

    def __init__(self, blocks, plan_cache=None, engine_backend=None):
        self.blocks = blocks  # PMap name -> CompiledBlock
        self.rules = []
        self.reactive_rules = []
        self.constraints = []
        self.directives = []
        self.predict_rules = []
        self.prob_rules = []
        decls = {}
        entities = {}
        for _, block in blocks.items():
            self.rules.extend(block.rules)
            self.reactive_rules.extend(block.reactive_rules)
            self.constraints.extend(block.constraints)
            self.directives.extend(block.directives)
            self.predict_rules.extend(block.predict_rules)
            self.prob_rules.extend(block.prob_rules)
            for decl in block.decls:
                decls[decl.name] = decl
            for entity in block.entities:
                entities[entity.name] = entity
        self.schema = Schema(decls, entities)

        # split facts (ground empty-body rules on otherwise rule-less
        # predicates) from genuine derivation rules
        rule_heads = {
            r.head_pred for r in self.rules if r.body or not _is_ground(r)
        }
        self.facts = {}
        derivation_rules = []
        for rule in self.rules:
            if not rule.body and _is_ground(rule) and rule.head_pred not in rule_heads:
                self.facts.setdefault(rule.head_pred, set()).add(
                    tuple(a.value for a in rule.head_args)
                )
            else:
                derivation_rules.append(rule)
        self.derivation_rules = derivation_rules

        self.ruleset = RuleSet(derivation_rules)
        self.plan_cache = plan_cache
        self.engine_backend = engine_backend
        self.engine = IncrementalEngine(
            self.ruleset, plan_cache=plan_cache, backend=engine_backend,
        )
        self.reactive_ruleset = (
            RuleSet(self.reactive_rules) if self.reactive_rules else None
        )
        self.checker = ConstraintChecker(self.constraints)
        self.solve_variable_preds = {
            d.args[0].name
            for d in self.directives
            if d.name == "lang:solve:variable" and d.args
        }
        self.prob_head_preds = {rule.head_pred for rule in self.prob_rules}
        self.arities = self._infer_arities()
        self.edb_preds = {
            name
            for name in self.arities
            if name not in self.ruleset.derived
        }

    def _infer_arities(self):
        arities = {}
        for decl in self.schema.predicates():
            arities[decl.name] = decl.arity
        for name, facts in self.facts.items():
            for tup in facts:
                arities[name] = len(tup)
                break
        all_rules = self.derivation_rules + self.reactive_rules
        for rule in all_rules:
            head = _base_name(rule.head_pred)
            arities.setdefault(head, len(rule.head_args))
            for atom in rule.body:
                if isinstance(atom, PredAtom):
                    name = _base_name(atom.pred)
                    arities.setdefault(name, len(atom.args))
        for constraint in self.constraints:
            for atom in constraint.lhs + constraint.rhs:
                if isinstance(atom, PredAtom):
                    name = _base_name(atom.pred)
                    if not name.startswith("@"):
                        arities.setdefault(name, len(atom.args))
        for predict in self.predict_rules:
            arities.setdefault(predict.head_pred, predict.n_keys + 1)
            for atom in predict.body:
                if isinstance(atom, PredAtom):
                    arities.setdefault(_base_name(atom.pred), len(atom.args))
        for prob in self.prob_rules:
            arities.setdefault(prob.head_pred, len(prob.head_args) + 1)
            for atom in prob.body:
                if isinstance(atom, PredAtom):
                    arities.setdefault(_base_name(atom.pred), len(atom.args))
        return arities

    def arity_of(self, name):
        """Declared or inferred arity of a predicate."""
        return self.arities.get(_base_name(name))

    def dependents_of(self, changed):
        """Derived predicates transitively depending on ``changed``."""
        dirty = set(changed)
        grew = True
        while grew:
            grew = False
            for rule in self.derivation_rules:
                if rule.head_pred in dirty:
                    continue
                if rule.body_preds() & dirty:
                    dirty.add(rule.head_pred)
                    grew = True
        return dirty & self.ruleset.derived


def _is_ground(rule):
    from repro.engine.ir import Const

    return all(isinstance(a, Const) for a in rule.head_args)


class WorkspaceState:
    """One immutable snapshot of logic + data + materialization.

    ``meta_state`` is the meta-engine's materialization of the program
    (paper §3.3); it travels with the state so branches see consistent
    program metadata.
    """

    __slots__ = ("artifacts", "base_relations", "materialization", "meta_state")

    def __init__(self, artifacts, base_relations, materialization, meta_state=None):
        self.artifacts = artifacts
        self.base_relations = base_relations  # PMap name -> Relation
        self.materialization = materialization
        self.meta_state = meta_state

    @classmethod
    def empty(cls, plan_cache=None, engine_backend=None):
        """The initial, empty workspace state."""
        from repro.meta.metaengine import MetaEngine

        artifacts = ProgramArtifacts(PMap.EMPTY, plan_cache, engine_backend)
        mat = artifacts.engine.initialize({})
        return cls(artifacts, PMap.EMPTY, mat, MetaEngine().initial())

    @property
    def relations(self):
        """All current relations (base and derived)."""
        return self.materialization.relations

    def relation(self, name):
        """The current extension of ``name`` (empty if never written)."""
        relation = self.materialization.relations.get(name)
        if relation is not None:
            return relation
        arity = self.artifacts.arity_of(name)
        if arity is None:
            from repro.runtime.errors import UnknownPredicate

            raise UnknownPredicate(name)
        return Relation.empty(arity)

    def env_with_defaults(self):
        """Relation environment defaulting unknown predicates to empty."""
        env = dict(self.materialization.relations)
        for name, arity in self.artifacts.arities.items():
            if name not in env:
                env[name] = Relation.empty(arity)
        return env

    def start_env(self):
        """The ``@start`` environment reactive rules evaluate against."""
        env = {}
        for name, relation in self.env_with_defaults().items():
            env[start_pred(name)] = relation
        return env
