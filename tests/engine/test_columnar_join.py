"""Columnar LFTJ executor: equivalence with the pure backend, codegen,
fallback rules, and backend resolution."""

import random

import pytest

from repro import stats as global_stats
from repro.engine import columnar
from repro.engine.columnar import (
    ColumnarTrieJoin,
    make_join,
    resolve_backend,
)
from repro.engine.ir import AssignAtom, BinOp, CompareAtom, Const, PredAtom, Var
from repro.engine.lftj import LeapfrogTrieJoin
from repro.engine.planner import build_plan
from repro.engine.sensitivity import SensitivityRecorder
from repro.storage.columnar import HAVE_NUMPY, ColumnarUnsupported
from repro.storage.relation import Relation

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not available")


@pytest.fixture(params=[True, False], ids=["codegen", "interpreter"])
def codegen_mode(request, monkeypatch):
    monkeypatch.setattr(columnar, "CODEGEN", request.param)
    return request.param


def both_runs(atoms, relations, var_order=None, output_vars=()):
    """Rows from the pure and the columnar executor for one plan.

    Relations are rebuilt per executor so neither backend sees the
    other's warmed caches, and the columnar setup cache is keyed by
    relation version, which the rebuild changes nothing about — so we
    clear it to force a cold build every call.
    """
    columnar._SETUP_CACHE.clear()
    plan = build_plan(list(atoms), var_order=var_order, output_vars=output_vars)

    def fresh():
        return {
            name: Relation.from_iter(rel.arity, rel)
            for name, rel in relations.items()
        }

    pure_rows = list(LeapfrogTrieJoin(plan, fresh()).run())
    col = make_join(plan, fresh(), backend="columnar")
    assert isinstance(col, ColumnarTrieJoin)
    return pure_rows, list(col.run())


def random_edges(seed, n, domain):
    rng = random.Random(seed)
    edges = set()
    while len(edges) < n:
        a, b = rng.randrange(domain), rng.randrange(domain)
        if a != b:
            edges.add((a, b))
    return edges


TRIANGLE = [
    PredAtom("E", [Var("a"), Var("b")]),
    PredAtom("E", [Var("b"), Var("c")]),
    PredAtom("E", [Var("a"), Var("c")]),
]


class TestEquivalence:
    def test_triangle_all_var_orders(self, codegen_mode):
        env = {"E": Relation.from_iter(2, random_edges(7, 80, 12))}
        for order in (
            ("a", "b", "c"), ("b", "a", "c"), ("c", "b", "a"), ("a", "c", "b")
        ):
            pure, col = both_runs(
                TRIANGLE, env, var_order=list(order),
                output_vars=("a", "b", "c"),
            )
            assert pure == col

    def test_constants_in_atoms(self, codegen_mode):
        env = {"E": Relation.from_iter(2, random_edges(11, 40, 8))}
        some_a = next(iter(env["E"]))[0]
        for pin in (some_a, 999):  # present and absent constant
            atoms = [
                PredAtom("E", [Const(pin), Var("b")]),
                PredAtom("E", [Var("b"), Var("c")]),
            ]
            pure, col = both_runs(atoms, env, output_vars=("b", "c"))
            assert pure == col

    def test_negation(self, codegen_mode):
        env = {
            "E": Relation.from_iter(2, random_edges(13, 40, 8)),
            "M": Relation.from_iter(1, {(i,) for i in range(0, 8, 2)}),
        }
        atoms = [
            PredAtom("E", [Var("a"), Var("b")]),
            PredAtom("M", [Var("a")], negated=True),
        ]
        pure, col = both_runs(atoms, env, output_vars=("a", "b"))
        assert pure == col

    def test_filters_and_assignments(self, codegen_mode):
        env = {
            "E": Relation.from_iter(2, random_edges(17, 60, 9)),
            "S": Relation.from_iter(1, {(i,) for i in range(20)}),
        }
        atoms = [
            PredAtom("E", [Var("x"), Var("y")]),
            CompareAtom("<", Var("x"), Var("y")),
            AssignAtom(Var("z"), BinOp("+", Var("x"), Var("y"))),
            PredAtom("S", [Var("z")]),
        ]
        pure, col = both_runs(atoms, env, output_vars=("x", "y", "z"))
        assert pure == col

    def test_wildcard_projection(self, codegen_mode):
        env = {"E": Relation.from_iter(2, random_edges(19, 40, 8))}
        atoms = [
            PredAtom("E", [Var("a"), Var("b")]),
            PredAtom("E", [Var("b"), Var("_w")]),
        ]
        pure, col = both_runs(atoms, env, output_vars=("a", "b"))
        assert pure == col

    def test_string_and_mixed_numeric_keys(self, codegen_mode):
        env = {
            "R": Relation.from_iter(
                2, [("x", 1), ("x", 1.5), ("y", 2.0), ("y", 2), ("z", -0.0)]
            ),
            "T": Relation.from_iter(1, [(1,), (2.0,), (0.0,)]),
        }
        atoms = [
            PredAtom("R", [Var("k"), Var("v")]),
            PredAtom("T", [Var("v")]),
        ]
        pure, col = both_runs(atoms, env, output_vars=("k", "v"))
        assert pure == col

    def test_empty_relation_short_circuits(self, codegen_mode):
        env = {
            "E": Relation.from_iter(2, random_edges(23, 20, 6)),
            "Z": Relation.empty(1),
        }
        atoms = [
            PredAtom("E", [Var("a"), Var("b")]),
            PredAtom("Z", [Var("a")]),
        ]
        pure, col = both_runs(atoms, env, output_vars=("a", "b"))
        assert pure == col == []


class TestCodegen:
    def test_specialized_source_is_attached(self):
        columnar._SETUP_CACHE.clear()
        env = {"E": Relation.from_iter(2, random_edges(31, 40, 8))}
        plan = build_plan(list(TRIANGLE), output_vars=("a", "b", "c"))
        join = make_join(plan, env, backend="columnar")
        rows = list(join.run())
        assert rows
        fn = columnar._specialized_for(plan)
        assert fn is not None and "searchsorted" in fn.source

    def test_codegen_and_interpreter_agree(self, monkeypatch):
        env = {"E": Relation.from_iter(2, random_edges(37, 70, 10))}
        plan = build_plan(list(TRIANGLE), output_vars=("a", "b", "c"))

        def rows_with(flag):
            monkeypatch.setattr(columnar, "CODEGEN", flag)
            columnar._SETUP_CACHE.clear()
            return list(make_join(plan, env, backend="columnar").run())

        assert rows_with(True) == rows_with(False)


class TestFallbacks:
    def test_recorder_forces_pure_executor(self):
        env = {"E": Relation.from_iter(2, random_edges(41, 30, 6))}
        plan = build_plan(list(TRIANGLE), output_vars=("a", "b", "c"))
        join = make_join(
            plan, env, recorder=SensitivityRecorder(), backend="columnar"
        )
        assert isinstance(join, LeapfrogTrieJoin)

    def test_unencodable_relation_falls_back_to_pure(self):
        env = {"R": Relation.from_iter(2, [(1, 2), (2, "a")])}
        atoms = [PredAtom("R", [Var("x"), Var("y")])]
        plan = build_plan(atoms, output_vars=("x", "y"))
        before = global_stats.snapshot()
        join = make_join(plan, env, backend="columnar")
        delta = global_stats.delta_since(before)
        assert isinstance(join, LeapfrogTrieJoin)
        assert delta.get("join.columnar_fallbacks") == 1
        assert sorted(join.run()) == [(1, 2), (2, "a")]

    def test_pure_backend_never_builds_columnar(self):
        env = {"E": Relation.from_iter(2, random_edges(43, 30, 6))}
        plan = build_plan(list(TRIANGLE), output_vars=("a", "b", "c"))
        join = make_join(plan, env, backend="pure")
        assert isinstance(join, LeapfrogTrieJoin)


class TestResolveBackend:
    def test_explicit_choice_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "pure")
        assert resolve_backend("columnar") == "columnar"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "columnar")
        assert resolve_backend() == "columnar"

    def test_default_is_pure(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_backend() == "pure"

    def test_invalid_name_rejected(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        with pytest.raises(ValueError):
            resolve_backend("vectorized")
        monkeypatch.setenv("REPRO_ENGINE", "nope")
        with pytest.raises(ValueError):
            resolve_backend()

    def test_missing_numpy_degrades_to_pure(self, monkeypatch):
        monkeypatch.setattr(columnar, "HAVE_NUMPY", False)
        before = global_stats.snapshot()
        assert resolve_backend("columnar") == "pure"
        delta = global_stats.delta_since(before)
        assert delta.get("join.columnar_unavailable") == 1


class TestCounters:
    def test_vector_seeks_and_batches_are_observed(self):
        columnar._SETUP_CACHE.clear()
        env = {"E": Relation.from_iter(2, random_edges(47, 80, 10))}
        plan = build_plan(list(TRIANGLE), output_vars=("a", "b", "c"))
        stats = {}
        before = global_stats.snapshot()
        join = make_join(plan, env, backend="columnar", stats=stats)
        list(join.run())
        delta = global_stats.delta_since(before)
        assert stats.get("vector_seeks", 0) > 0
        assert stats.get("batches", 0) > 0
        # the executor bumps the global counters itself (the evaluator
        # must not re-fold them — see Evaluator's bump_prefix handling)
        assert delta.get("join.vector_seeks") == stats["vector_seeks"]
        assert delta.get("join.columnar_joins") == 1
        # batch sizes feed the join.batch_sizes histogram
        histogram = global_stats.histograms().get("join.batch_sizes")
        assert histogram and histogram["count"] >= stats["batches"]
