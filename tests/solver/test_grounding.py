"""Grounding LogiQL into LP/MIP: the paper's §2.3.1 pipeline."""

import pytest

from repro import Workspace
from repro.runtime.errors import ConstraintViolation
from repro.solver import SolveSession, solve_workspace
from repro.solver.grounding import GroundingError

ASSORTMENT = """
Product(p) -> .
spacePerProd[p] = v -> Product(p), float(v).
profitPerProd[p] = v -> Product(p), float(v).
maxShelf[] = v -> float(v).
Stock[p] = v -> Product(p), {value_type}(v).
totalShelf[] = u <- agg<<u = sum(z)>> Stock[p] = x, spacePerProd[p] = y, z = x * y.
totalProfit[] = u <- agg<<u = sum(z)>> Stock[p] = x, profitPerProd[p] = y, z = x * y.
Product(p) -> Stock[p] >= 0.
Product(p) -> Stock[p] <= 20.
totalShelf[] = u, maxShelf[] = v -> u <= v.
lang:solve:variable(`Stock).
lang:solve:max(`totalProfit).
"""


def build(value_type="float", shelf=80.0):
    ws = Workspace()
    ws.addblock(ASSORTMENT.format(value_type=value_type), name="model")
    ws.load("Product", [("w",), ("g",)])
    ws.load("spacePerProd", [("w", 2.0), ("g", 3.0)])
    ws.load("profitPerProd", [("w", 5.0), ("g", 7.0)])
    ws.load("maxShelf", [(shelf,)])
    return ws


class TestLPGrounding:
    def test_paper_example_lp(self):
        ws = build(shelf=50.0)
        result, assignments = solve_workspace(ws)
        assert result.ok
        # LP optimum: w=20 (space 40), g=10/3
        assert abs(result.objective - (100 + 70 / 3.0)) < 1e-6
        stock = dict(ws.rows("Stock"))
        assert abs(stock["w"] - 20.0) < 1e-6

    def test_solution_satisfies_views(self):
        ws = build(shelf=50.0)
        solve_workspace(ws)
        shelf = ws.rows("totalShelf")[0][0]
        assert shelf <= 50.0 + 1e-6

    def test_integer_type_triggers_mip(self):
        ws = build(value_type="int", shelf=50.0)
        result, _ = solve_workspace(ws)
        assert result.ok
        assert abs(result.objective - 123.0) < 1e-6  # w=19, g=4
        assert all(isinstance(v, int) for _, v in ws.rows("Stock"))

    def test_incremental_resolve(self):
        ws = build(shelf=50.0)
        session = SolveSession(ws)
        session.solve()
        ws.load("maxShelf", [(80.0,)], remove=[(50.0,)])
        result, _ = session.solve(changed_preds={"maxShelf", "totalShelf"})
        assert abs(result.objective - (100 + 7 * 40 / 3.0)) < 1e-6

    def test_infeasible_model(self):
        ws = build(shelf=50.0)
        ws.addblock("Product(p) -> Stock[p] >= 30.", name="impossible")
        result, assignments = solve_workspace(ws)
        assert result.status == "infeasible"
        assert not assignments

    def test_min_objective(self):
        ws = Workspace()
        ws.addblock(
            """
            Item(i) -> .
            amount[i] = v -> Item(i), float(v).
            need[] = v -> float(v).
            total[] = u <- agg<<u = sum(v)>> amount[i] = v.
            Item(i) -> amount[i] >= 0.
            total[] = u, need[] = n -> u >= n.
            costPer[i] = c -> Item(i), float(c).
            cost[] = u <- agg<<u = sum(z)>> amount[i] = v, costPer[i] = c,
                z = v * c.
            lang:solve:variable(`amount).
            lang:solve:min(`cost).
            """,
            name="diet",
        )
        ws.load("Item", [("cheap",), ("dear",)])
        ws.load("costPer", [("cheap", 1.0), ("dear", 3.0)])
        ws.load("need", [(10.0,)])
        result, _ = solve_workspace(ws)
        assert result.ok
        assert abs(result.objective - 10.0) < 1e-6
        assert dict(ws.rows("amount"))["dear"] < 1e-9


class TestGroundingErrors:
    def test_missing_directives(self):
        ws = Workspace()
        ws.addblock("x[] = v -> float(v).", name="d")
        with pytest.raises(GroundingError):
            SolveSession(ws)

    def test_nonlinear_rejected(self):
        ws = Workspace()
        ws.addblock(
            """
            Item(i) -> .
            a[i] = v -> Item(i), float(v).
            sq[] = u <- agg<<u = sum(z)>> a[i] = x, a[i] = y, z = x * y.
            lang:solve:variable(`a).
            lang:solve:max(`sq).
            """,
            name="bad",
        )
        ws.load("Item", [("p",)])
        with pytest.raises(GroundingError):
            solve_workspace(ws)

    def test_data_violation_detected(self):
        ws = Workspace()
        ws.addblock(
            """
            Item(i) -> .
            a[i] = v -> Item(i), float(v).
            bound[i] = b -> Item(i), float(b).
            obj[] = u <- agg<<u = sum(v)>> a[i] = v.
            Item(i) -> a[i] <= bound[i].
            lang:solve:variable(`a).
            lang:solve:max(`obj).
            """,
            name="m",
        )
        ws.load("Item", [("p",)])
        # bound[p] missing: the constraint is violated by data alone
        with pytest.raises(GroundingError):
            solve_workspace(ws)


class TestExemptionLift:
    def test_lifted_exemption_checks_rows_written_while_exempt(self):
        # Product rows were loaded while Stock was empty, so constraints
        # over Stock were exempt and never looked at them
        ws = build(shelf=50.0)
        # one Stock row lifts the exemption: the write itself is fine,
        # but product g (written while exempt) now has no Stock value
        with pytest.raises(ConstraintViolation) as excinfo:
            ws.load("Stock", [("w", 5.0)])
        assert {"p": "g"} in [b for _, b in excinfo.value.violations]
        assert ws.rows("Stock") == []
        result, _ = solve_workspace(ws)
        assert result.ok
        assert sorted(p for p, _ in ws.rows("Stock")) == ["g", "w"]
