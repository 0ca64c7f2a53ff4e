"""Columnar LFTJ executor: equivalence with the pure backend, codegen,
vectorized comparisons, the paid-setup selection rule, fallback rules,
and backend resolution."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    other's warmed caches.  The columnar executor is built directly
    (``make_join`` may leave a join on the pure path) and without a
    setup cache, so every call builds its setup cold.
    """
    plan = build_plan(list(atoms), var_order=var_order, output_vars=output_vars)

    def fresh():
        return {
            name: Relation.from_iter(rel.arity, rel)
            for name, rel in relations.items()
        }

    pure_rows = list(LeapfrogTrieJoin(plan, fresh()).run())
    return pure_rows, list(ColumnarTrieJoin(plan, fresh()).run())


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

    def test_int_column_joined_with_float_column(self, codegen_mode):
        # equal keys of different types: the first atom's representative
        # wins on both paths (all-int and all-float columns merge apart)
        env = {
            "R": Relation.from_iter(2, [("x", 1), ("y", 2), ("z", 4)]),
            "T": Relation.from_iter(1, [(1.0,), (2.0,), (3.5,)]),
        }
        r_atom = PredAtom("R", [Var("k"), Var("v")])
        t_atom = PredAtom("T", [Var("v")])
        for atoms in ([r_atom, t_atom], [t_atom, r_atom]):
            pure, col = both_runs(
                atoms, env, var_order=["v", "k"], output_vars=("v", "k")
            )
            assert pure == col == [(1, "x"), (2, "y")]
            assert [type(v) for v, _ in col] == [type(v) for v, _ in pure]

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

    def test_default_is_columnar(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_backend() == "columnar"

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


# -- vectorized comparisons ---------------------------------------------------

COMPARE_OPS = ("=", "!=", "<", "<=", ">", ">=")

_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.5, -2.25, float("inf"), float("-inf")]),
    st.floats(-100, 100, allow_nan=False),
)
_INTS = st.integers(-20, 20)

#: column domains: (left column values, right column values)
FILTER_DOMAINS = {
    "ints": (_INTS, _INTS),
    "bools": (st.booleans(), st.booleans()),
    "floats": (_FLOATS, _FLOATS),
    "ints_beyond_int64": (
        st.one_of(_INTS, st.integers(2**63 - 2, 2**64 + 2)),
        st.one_of(_INTS, st.integers(-(2**64), -(2**63) + 2)),
    ),
    "strings": (st.text("abc", max_size=3), st.text("abc", max_size=3)),
    "mixed_int_float": (st.one_of(_INTS, _FLOATS), st.one_of(_INTS, _FLOATS)),
    "int_vs_float": (_INTS, _FLOATS),
}


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(sorted(FILTER_DOMAINS)),
    op=st.sampled_from(COMPARE_OPS),
    data=st.data(),
)
def test_vectorized_filters_match_rowwise(kind, op, data):
    """Every comparison shape gives the pure executor's rows: the numpy
    path where it applies, the row-wise path everywhere else."""
    left, right = FILTER_DOMAINS[kind]
    rows = data.draw(st.sets(st.tuples(left, right), min_size=1, max_size=30))
    const = data.draw(st.one_of(left, right))
    env = {"R": Relation.from_iter(2, rows)}
    shapes = [
        CompareAtom(op, Var("x"), Var("y")),
        CompareAtom(op, Var("x"), Const(const)),
        CompareAtom(op, Const(const), Var("y")),
    ]
    for comparison in shapes:
        atoms = [PredAtom("R", [Var("x"), Var("y")]), comparison]
        plan = build_plan(atoms, output_vars=("x", "y"))
        pure = list(LeapfrogTrieJoin(plan, env).run())
        assert list(ColumnarTrieJoin(plan, env).run()) == pure


class TestVectorizedComparisons:
    def rowwise_forbidden(self, monkeypatch):
        def refuse(self, entry, bindings):
            raise AssertionError("row-wise filter for {!r}".format(entry))

        monkeypatch.setattr(LeapfrogTrieJoin, "_filter_holds", refuse)

    def test_int_and_float_comparisons_skip_the_row_path(self, monkeypatch):
        env = {
            "E": Relation.from_iter(2, random_edges(53, 60, 10)),
            "F": Relation.from_iter(2, [(i * 0.5, -i * 0.25) for i in range(9)]),
        }
        triangle = build_plan(
            TRIANGLE + [CompareAtom("<", Var("a"), Var("b")),
                        CompareAtom(">=", Var("c"), Const(3))],
            output_vars=("a", "b", "c"),
        )
        floats = build_plan(
            [PredAtom("F", [Var("u"), Var("v")]),
             CompareAtom("!=", Var("v"), Const(-0.0))],
            output_vars=("u", "v"),
        )
        expected = [
            list(LeapfrogTrieJoin(plan, env).run()) for plan in (triangle, floats)
        ]
        self.rowwise_forbidden(monkeypatch)
        got = [list(ColumnarTrieJoin(plan, env).run()) for plan in (triangle, floats)]
        assert got == expected
        assert expected[0] and expected[1]

    def test_int_against_float_constant_stays_row_wise(self):
        env = {"R": Relation.from_iter(1, [(2**53 + 1,), (3,)])}
        plan = build_plan(
            [PredAtom("R", [Var("x")]),
             CompareAtom(">", Var("x"), Const(float(2**53)))],
            output_vars=("x",),
        )
        # as float64 both sides would be 2**53; exactly, x is larger
        assert list(ColumnarTrieJoin(plan, env).run()) == [(2**53 + 1,)]


# -- the paid-setup selection rule --------------------------------------------


class TestSelectionRule:
    SCAN = "_(a, b) <- edge(a, b)."
    POINT = "_(b) <- edge(3, b)."

    def workspace(self):
        from repro import Workspace

        ws = Workspace(engine="columnar")
        ws.addblock("edge(a, b) -> int(a), int(b).")
        ws.load("edge", sorted(random_edges(59, 200, 40)))
        return ws

    def counted(self, ws, source):
        ws.reset_engine_stats()
        rows = ws.query(source)
        stats = ws.engine_stats()
        return rows, stats.get("join.columnar_joins", 0), stats.get(
            "join.columnar_declined", 0)

    def test_whole_relation_scan_runs_columnar(self):
        ws = self.workspace()
        rows, joins, declined = self.counted(ws, self.SCAN)
        assert rows == ws.rows("edge")
        assert (joins, declined) == (1, 0)

    def test_point_read_after_a_commit_runs_pure_until_a_scan(self):
        ws = self.workspace()
        self.counted(ws, self.SCAN)  # builds the layout
        ws.exec("+edge(3, 999).")  # the new version has no layout
        rows, joins, declined = self.counted(ws, self.POINT)
        assert (999,) in rows
        assert (joins, declined) == (0, 1)
        self.counted(ws, self.SCAN)  # pays for the new version's layout
        again, joins, declined = self.counted(ws, self.POINT)
        assert again == rows
        assert (joins, declined) == (1, 0)

    def test_setup_rule_directly(self):
        big = Relation.from_iter(2, random_edges(61, 100, 30))
        small = Relation.from_iter(1, [(1,), (2,)])
        scan = build_plan(list(TRIANGLE), output_vars=("a", "b", "c"))
        assert columnar.setup_is_paid(scan, {"E": big})
        probe = build_plan(
            [PredAtom("S", [Var("a")]), PredAtom("E", [Var("a"), Var("b")])],
            var_order=["a", "b"], output_vars=("a", "b"),
        )
        relations = {"S": small, "E": big}
        assert not columnar.setup_is_paid(probe, relations)
        before = global_stats.snapshot()
        assert isinstance(make_join(probe, relations, backend="columnar"),
                          LeapfrogTrieJoin)
        assert global_stats.delta_since(before).get("join.columnar_declined") == 1
        big.columnar((0, 1))  # once the large side is encoded, it is paid
        assert columnar.setup_is_paid(probe, relations)
        assert isinstance(make_join(probe, relations, backend="columnar"),
                          ColumnarTrieJoin)

    def test_setup_cache_hit_runs_columnar(self):
        from repro.engine.plancache import PlanCache

        cache = PlanCache()
        edges = random_edges(67, 60, 12)
        point = build_plan(
            [PredAtom("E", [Const(min(edges)[0]), Var("b")])],
            output_vars=("b",),
        )
        warm = {"E": Relation.from_iter(2, edges)}
        warm["E"].columnar((0, 1))
        rows = list(make_join(point, warm, backend="columnar", setups=cache).run())
        # an equal relation version without a layout: not paid for on
        # its own, but the cached setup is keyed by content
        cold = {"E": Relation.from_iter(2, edges)}
        assert not columnar.setup_is_paid(point, cold)
        before = global_stats.snapshot()
        join = make_join(point, cold, backend="columnar", setups=cache)
        assert isinstance(join, ColumnarTrieJoin)
        assert list(join.run()) == rows
        assert global_stats.delta_since(before).get("join.columnar_setup_hits") == 1
