"""Unit tests for the constraint checker machinery."""

import pytest

from repro.engine import ir
from repro.logiql.compiler import Constraint, compile_program
from repro.runtime.constraints import CompiledConstraint, ConstraintChecker
from repro.storage.relation import Relation


def constraint_of(source):
    block = compile_program(source)
    [constraint] = block.constraints
    return constraint


class TestCompiledConstraint:
    def test_inclusion_dependency(self):
        constraint = constraint_of("Product(p) -> Stock[p] = _.")
        compiled = CompiledConstraint(constraint)
        relations = {
            "Product": Relation.from_iter(1, [("a",), ("b",)]),
            "Stock": Relation.from_iter(2, [("a", 1.0)]),
        }
        violations = compiled.check(relations)
        assert violations == [{"p": "b"}]

    def test_comparison_rhs(self):
        constraint = constraint_of("n[] = v -> v >= 0.")
        compiled = CompiledConstraint(constraint)
        assert compiled.check({"n": Relation.from_iter(1, [(5,)])}) == []
        violations = compiled.check({"n": Relation.from_iter(1, [(-1,)])})
        assert violations == [{"v": -1}]

    def test_functional_terms_both_sides(self):
        constraint = constraint_of("Product(p) -> Stock[p] >= minStock[p].")
        compiled = CompiledConstraint(constraint)
        relations = {
            "Product": Relation.from_iter(1, [("a",), ("b",)]),
            "Stock": Relation.from_iter(2, [("a", 5.0), ("b", 1.0)]),
            "minStock": Relation.from_iter(2, [("a", 2.0), ("b", 2.0)]),
        }
        violations = compiled.check(relations)
        assert violations == [{"p": "b"}]

    def test_wildcards_on_both_sides_are_independent(self):
        # each side's `_` is its own existential: p[1] = 3 only needs
        # some q[1], whatever its value
        constraint = constraint_of("p[s] = _ -> q[s] = _.")
        compiled = CompiledConstraint(constraint)
        relations = {
            "p": Relation.from_iter(2, [(1, 3), (2, 3)]),
            "q": Relation.from_iter(2, [(1, 7)]),
        }
        assert compiled.check(relations) == [{"s": 2}]

    def test_wildcards_on_both_sides_through_a_workspace(self):
        from repro import Workspace
        from repro.runtime.errors import ConstraintViolation

        ws = Workspace()
        ws.addblock(
            "p[s] = v -> int(s), int(v). q[s] = v -> int(s), int(v). "
            "p[s] = _ -> q[s] = _."
        )
        ws.load("q", [(1, 7)])
        ws.load("p", [(1, 3)])
        assert ws.rows("p") == [(1, 3)]
        with pytest.raises(ConstraintViolation):
            ws.load("p", [(2, 3)])

    def test_missing_predicates_default_empty(self):
        constraint = constraint_of("Product(p) -> Stock[p] = _.")
        compiled = CompiledConstraint(constraint)
        assert compiled.check({}) == []  # empty Product: vacuously holds

    def test_violation_limit(self):
        constraint = constraint_of("n(v) -> v >= 0.")
        compiled = CompiledConstraint(constraint)
        relation = Relation.from_iter(1, [(-i,) for i in range(1, 30)])
        assert len(compiled.check({"n": relation}, limit=10)) == 10

    def test_numeric_tolerance_on_rhs(self):
        constraint = constraint_of("total[] = u, cap[] = v -> u <= v.")
        compiled = CompiledConstraint(constraint)
        relations = {
            "total": Relation.from_iter(1, [(100.0 + 1e-9,)]),
            "cap": Relation.from_iter(1, [(100.0,)]),
        }
        assert compiled.check(relations) == []
        relations["total"] = Relation.from_iter(1, [(100.1,)])
        assert compiled.check(relations)

    def test_type_checks(self):
        constraint = constraint_of("f[k] = v -> int(k), float(v).")
        compiled = CompiledConstraint(constraint)
        good = {"f": Relation.from_iter(2, [(1, 2.5)])}
        assert compiled.check(good) == []
        bad = {"f": Relation.from_iter(2, [(1.5, 2.5)])}
        assert compiled.check(bad)


class TestConstraintChecker:
    def make_checker(self):
        block = compile_program(
            """
            n[] = v -> int(v).
            n[] = v -> v >= 0.
            m[] = v -> int(v).
            m[] = v -> v >= 10.
            1.0 : m[] = v -> v >= 100.
            """
        )
        return ConstraintChecker(block.constraints)

    def test_soft_constraints_skipped(self):
        checker = self.make_checker()
        relations = {
            "n": Relation.from_iter(1, [(1,)]),
            "m": Relation.from_iter(1, [(50,)]),  # violates only the soft one
        }
        assert checker.check(relations) == []

    def test_changed_preds_filter(self):
        checker = self.make_checker()
        relations = {
            "n": Relation.from_iter(1, [(-1,)]),  # violated
            "m": Relation.from_iter(1, [(50,)]),
        }
        assert checker.check(relations, changed_preds={"m"}) == []
        assert checker.check(relations, changed_preds={"n"})
        assert checker.check(relations)

    def test_exempt_preds(self):
        checker = self.make_checker()
        relations = {
            "n": Relation.from_iter(1, [(-1,)]),
            "m": Relation.from_iter(1, [(50,)]),
        }
        assert checker.check(relations, exempt_preds={"n"}) == []
