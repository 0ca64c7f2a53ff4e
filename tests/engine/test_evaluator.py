"""Tests for bottom-up evaluation: strata, recursion, aggregates, counts."""

import pytest

from repro.engine.evaluator import (
    EvaluationError,
    Evaluator,
    FunctionalDependencyViolation,
    RuleSet,
)
from repro.engine.ir import AssignAtom, BinOp, CompareAtom, Const, PredAtom, Var
from repro.engine.rules import AggSpec, Rule, StratificationError, stratify
from repro.storage.relation import Relation


def ev(rules, relations):
    return Evaluator(RuleSet(rules)).evaluate(relations)


class TestStratification:
    def test_linear_strata(self):
        rules = [
            Rule("b", [Var("x")], [PredAtom("a", [Var("x")])]),
            Rule("c", [Var("x")], [PredAtom("b", [Var("x")])]),
        ]
        strata, recursive = stratify(rules)
        assert strata.index(["b"]) < strata.index(["c"])
        assert recursive == [False, False]

    def test_recursive_component(self):
        rules = [
            Rule("tc", [Var("x"), Var("y")], [PredAtom("e", [Var("x"), Var("y")])]),
            Rule("tc", [Var("x"), Var("z")],
                 [PredAtom("tc", [Var("x"), Var("y")]),
                  PredAtom("e", [Var("y"), Var("z")])]),
        ]
        strata, recursive = stratify(rules)
        assert strata == [["tc"]]
        assert recursive == [True]

    def test_mutual_recursion(self):
        rules = [
            Rule("even", [Var("x")], [PredAtom("zero", [Var("x")])]),
            Rule("even", [Var("y")],
                 [PredAtom("odd", [Var("x")]), PredAtom("succ", [Var("x"), Var("y")])]),
            Rule("odd", [Var("y")],
                 [PredAtom("even", [Var("x")]), PredAtom("succ", [Var("x"), Var("y")])]),
        ]
        strata, recursive = stratify(rules)
        assert sorted(strata[0]) == ["even", "odd"]
        assert recursive == [True]

    def test_negation_through_recursion_rejected(self):
        rules = [
            Rule("p", [Var("x")],
                 [PredAtom("a", [Var("x")]), PredAtom("q", [Var("x")], negated=True)]),
            Rule("q", [Var("x")],
                 [PredAtom("a", [Var("x")]), PredAtom("p", [Var("x")], negated=True)]),
        ]
        with pytest.raises(StratificationError):
            stratify(rules)

    def test_aggregate_through_recursion_rejected(self):
        rules = [
            Rule("s", [Var("u")], [PredAtom("s", [Var("v")])],
                 agg=AggSpec("sum", "u", "v"), n_keys=0),
        ]
        with pytest.raises(StratificationError):
            stratify(rules)

    def test_negation_of_lower_stratum_ok(self):
        rules = [
            Rule("p", [Var("x")], [PredAtom("a", [Var("x")])]),
            Rule("q", [Var("x")],
                 [PredAtom("a", [Var("x")]), PredAtom("p", [Var("x")], negated=True)]),
        ]
        strata, _ = stratify(rules)
        assert strata.index(["p"]) < strata.index(["q"])


class TestEvaluation:
    def test_transitive_closure(self):
        E = Relation.from_iter(2, [(1, 2), (2, 3), (3, 4), (5, 6)])
        rules = [
            Rule("tc", [Var("x"), Var("y")], [PredAtom("E", [Var("x"), Var("y")])]),
            Rule("tc", [Var("x"), Var("z")],
                 [PredAtom("tc", [Var("x"), Var("y")]),
                  PredAtom("E", [Var("y"), Var("z")])]),
        ]
        relations, states = ev(rules, {"E": E})
        assert set(relations["tc"]) == {
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (5, 6),
        }
        assert states["tc"].kind == "recursive"

    def test_cyclic_graph_terminates(self):
        E = Relation.from_iter(2, [(1, 2), (2, 1)])
        rules = [
            Rule("tc", [Var("x"), Var("y")], [PredAtom("E", [Var("x"), Var("y")])]),
            Rule("tc", [Var("x"), Var("z")],
                 [PredAtom("tc", [Var("x"), Var("y")]),
                  PredAtom("E", [Var("y"), Var("z")])]),
        ]
        relations, _ = ev(rules, {"E": E})
        assert set(relations["tc"]) == {(1, 1), (1, 2), (2, 1), (2, 2)}

    def test_support_counts_existential_collapsed(self):
        # x is existential: support counts are per *distinct*
        # non-existential derivation (the existence-diff maintenance
        # path keeps them consistent; see test_ivm for the updates)
        A = Relation.from_iter(2, [(1, 10), (2, 10), (3, 30)])
        rules = [Rule("proj", [Var("y")], [PredAtom("A", [Var("x"), Var("y")])])]
        relations, states = ev(rules, {"A": A})
        assert set(relations["proj"]) == {(10,), (30,)}
        counts = dict(states["proj"].counts.items())
        assert counts == {(10,): 1, (30,): 1}

    def test_support_counts_multiple_derivation_paths(self):
        A = Relation.from_iter(2, [(1, 10), (2, 10), (3, 30)])
        B = Relation.from_iter(1, [(1,), (2,), (3,)])
        # y co-occurs with the head variable x: real multiplicities
        rules = [Rule("pair", [Var("y")],
                      [PredAtom("A", [Var("x"), Var("y")]),
                       PredAtom("B", [Var("x")])])]
        relations, states = ev(rules, {"A": A, "B": B})
        counts = dict(states["pair"].counts.items())
        assert counts == {(10,): 2, (30,): 1}

    def test_multiple_rules_sum_counts(self):
        A = Relation.from_iter(1, [(1,)])
        B = Relation.from_iter(1, [(1,), (2,)])
        rules = [
            Rule("u", [Var("x")], [PredAtom("A", [Var("x")])]),
            Rule("u", [Var("x")], [PredAtom("B", [Var("x")])]),
        ]
        relations, states = ev(rules, {"A": A, "B": B})
        assert dict(states["u"].counts.items()) == {(1,): 2, (2,): 1}

    def test_functional_dependency_violation(self):
        A = Relation.from_iter(2, [(1, 10), (1, 20)])
        rules = [
            Rule("f", [Var("k"), Var("v")],
                 [PredAtom("A", [Var("k"), Var("v")])], n_keys=1),
        ]
        with pytest.raises(FunctionalDependencyViolation):
            ev(rules, {"A": A})

    def test_mixed_agg_plain_rules_rejected(self):
        rules = [
            Rule("p", [Var("u")], [PredAtom("a", [Var("v")])],
                 agg=AggSpec("sum", "u", "v"), n_keys=0),
            Rule("p", [Var("x")], [PredAtom("b", [Var("x")])]),
        ]
        with pytest.raises(EvaluationError):
            RuleSet(rules)


class TestAggregates:
    def make(self, fn):
        return Rule(
            "out", [Var("k"), Var("u")],
            [PredAtom("A", [Var("k"), Var("e"), Var("v")])],
            agg=AggSpec(fn, "u", "v"), n_keys=1,
        )

    def setup_method(self):
        self.A = Relation.from_iter(
            3, [("g1", 1, 10.0), ("g1", 2, 30.0), ("g2", 1, 5.0)]
        )

    def test_sum(self):
        relations, _ = ev([self.make("sum")], {"A": self.A})
        assert set(relations["out"]) == {("g1", 40.0), ("g2", 5.0)}

    def test_count(self):
        relations, _ = ev([self.make("count")], {"A": self.A})
        assert set(relations["out"]) == {("g1", 2), ("g2", 1)}

    def test_min_max(self):
        relations, _ = ev([self.make("min")], {"A": self.A})
        assert set(relations["out"]) == {("g1", 10.0), ("g2", 5.0)}
        relations, _ = ev([self.make("max")], {"A": self.A})
        assert set(relations["out"]) == {("g1", 30.0), ("g2", 5.0)}

    def test_avg(self):
        relations, _ = ev([self.make("avg")], {"A": self.A})
        assert set(relations["out"]) == {("g1", 20.0), ("g2", 5.0)}

    def test_duplicate_values_count_separately(self):
        A = Relation.from_iter(2, [("a", 7.0), ("b", 7.0)])
        rules = [Rule("total", [Var("u")],
                      [PredAtom("A", [Var("k"), Var("v")])],
                      agg=AggSpec("sum", "u", "v"), n_keys=0)]
        relations, _ = ev(rules, {"A": A})
        assert set(relations["total"]) == {(14.0,)}

    def test_empty_group_absent(self):
        relations, _ = ev([self.make("sum")], {"A": Relation.empty(3)})
        assert len(relations["out"]) == 0

    def test_weighted_sum_via_assignment(self):
        stock = Relation.from_iter(2, [("a", 2.0), ("b", 3.0)])
        space = Relation.from_iter(2, [("a", 1.5), ("b", 2.0)])
        rule = Rule(
            "totalShelf", [Var("u")],
            [PredAtom("Stock", [Var("p"), Var("x")]),
             PredAtom("space", [Var("p"), Var("y")]),
             AssignAtom("z", BinOp("*", Var("x"), Var("y")))],
            agg=AggSpec("sum", "u", "z"), n_keys=0,
        )
        relations, _ = ev([rule], {"Stock": stock, "space": space})
        assert set(relations["totalShelf"]) == {(9.0,)}


class TestReuse:
    def test_reuse_skips_recompute(self):
        A = Relation.from_iter(1, [(1,)])
        rules = [Rule("p", [Var("x")], [PredAtom("A", [Var("x")])])]
        ruleset = RuleSet(rules)
        relations, states = Evaluator(ruleset).evaluate({"A": A})
        sentinel = Relation.from_iter(1, [(42,)])
        reused, reused_states = Evaluator(ruleset).evaluate(
            {"A": A}, reuse=({"p": sentinel}, {"p": states["p"]})
        )
        assert reused["p"] is sentinel


class TestQueryAnswerPath:
    """``Workspace.query`` returns an answer predicate no rule reads as
    sorted head tuples without materializing it, and materializes it
    (as before) when it is recursive or read by another rule."""

    def workspace(self, engine=None):
        from repro import Workspace

        ws = Workspace(engine=engine)
        ws.addblock("edge(a, b) -> int(a), int(b).")
        ws.load("edge", [(1, 2), (2, 3), (3, 4), (2, 5), (5, 2)])
        return ws

    def run(self, ws, source):
        from repro.runtime.workspace import run_query

        return run_query(ws.state, source)

    def test_unread_answer_is_not_materialized(self):
        ws = self.workspace()
        run = self.run(ws, "_(a, c) <- edge(a, b), edge(b, c).")
        assert "_" not in run.relations
        assert run.rows == [(1, 3), (1, 5), (2, 2), (2, 4), (5, 3), (5, 5)]
        agg = self.run(ws, "_(a, n) <- agg<<n = count(b)>> edge(a, b).")
        assert "_" not in agg.relations
        assert agg.rows == [(1, 1), (2, 2), (3, 1), (5, 1)]

    def test_functional_answer_conflict_still_raises(self):
        ws = self.workspace()
        with pytest.raises(FunctionalDependencyViolation, match=r"\(2,\)"):
            ws.query("_[a] = b <- edge(a, b).")
        assert ws.query("_[a] = b <- edge(a, b), a != 2.") == [
            (1, 2), (3, 4), (5, 2)
        ]

    def test_recursive_answer(self):
        source = "_(a, b) <- edge(a, b). _(a, c) <- _(a, b), edge(b, c)."
        closure = {
            (a, c) for a in (1, 2, 3, 5) for c in (2, 3, 4, 5)
            if not (a == 3 and c != 4)
        }
        for engine in ("columnar", "pure"):
            run = self.run(self.workspace(engine), source)
            assert "_" in run.relations
            assert run.rows == sorted(closure)

    def test_answer_read_by_another_rule(self):
        source = (
            "_(a, b) <- edge(a, b), a < b. "
            "back(a) <- _(a, b), edge(b, a)."
        )
        for engine in ("columnar", "pure"):
            ws = self.workspace(engine)
            run = self.run(ws, source)
            assert run.rows == [(1, 2), (2, 3), (2, 5), (3, 4)]
            assert list(run.relations["back"]) == [(2,)]
            assert ws.query(source, answer="back") == [(2,)]
