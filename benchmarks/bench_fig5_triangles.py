"""E3 — Figure 5: the 3-clique query vs edge count.

Paper: "Running time of the 3-clique query on (increasingly larger
subsets of) the LiveJournal graph dataset using LogicBlox 4.1.4,
Virtuoso 7, PostgreSQL 9.3.4, Neo4j 2.1.5, MonetDB, System HC, and
RedShift" — LFTJ stays 1-2 orders of magnitude ahead of the binary-plan
systems, and the gap widens with graph size.

Substitution (DESIGN.md): LiveJournal is replaced by synthetic
hub-skewed graphs (:func:`hub_graph` — the celebrity-hub degree skew
that makes the 3-clique query hard, taken to its extreme) plus a
power-law series; the comparison systems are replaced by binary
hash-join and sort-merge-join plans implemented in this repo, whose
materialized open wedges are exactly the failure mode the paper's
companion study [32] identifies.

Shape asserted: LFTJ scales near-linearly in |E| while the binary plans
scale with the Θ(|E|²/n) wedge count — the ratio widens with size.
"""

import time

import pytest

from repro.datasets.graphs import hub_graph, powerlaw_graph
from repro.engine.baseline_joins import hash_join_query, merge_join_query
from repro.engine.ir import PredAtom, Var
from repro.engine.lftj import LeapfrogTrieJoin
from repro.engine.planner import build_plan
from repro.storage.relation import Relation

from conftest import SMOKE, pedantic, sizes

HUB_SIZES = sizes([250, 500, 1000, 2000], [80, 160])
POWERLAW_SIZES = sizes([120, 500, 1000], [80, 160])

ATOMS = [
    PredAtom("E", [Var("a"), Var("b")]),
    PredAtom("E", [Var("b"), Var("c")]),
    PredAtom("E", [Var("a"), Var("c")]),
]
PLAN = build_plan(ATOMS, var_order=["a", "b", "c"])

_cache = {}


def graph(kind, n_nodes):
    key = (kind, n_nodes)
    if key not in _cache:
        if kind == "hub":
            edges = hub_graph(n_nodes, seed=42)
        else:
            edges = powerlaw_graph(n_nodes, edges_per_node=5, seed=42)
        relation = Relation.from_iter(2, edges)
        relation.flat((0, 1))  # pre-materialize the array backend
        _cache[key] = (relation, len(edges))
    return _cache[key]


def run_lftj(relation):
    return sum(
        1 for _ in LeapfrogTrieJoin(PLAN, {"E": relation}, prefer_array=True).run()
    )


@pytest.mark.parametrize("n_nodes", HUB_SIZES)
def test_fig5_hub_lftj(benchmark, n_nodes):
    relation, n_edges = graph("hub", n_nodes)
    count = pedantic(benchmark, run_lftj, relation)
    benchmark.extra_info.update(edges=n_edges, triangles=count)


@pytest.mark.parametrize("n_nodes", HUB_SIZES)
def test_fig5_hub_hash_join(benchmark, n_nodes):
    relation, n_edges = graph("hub", n_nodes)
    stats = {}
    rounds = 1 if n_nodes >= 1000 else 2
    pedantic(benchmark, hash_join_query, ATOMS, {"E": relation},
             ["a", "b", "c"], stats, rounds=rounds)
    benchmark.extra_info.update(
        edges=n_edges, intermediate_rows=stats["intermediate_rows"]
    )


@pytest.mark.parametrize("n_nodes", HUB_SIZES[:3])
def test_fig5_hub_merge_join(benchmark, n_nodes):
    relation, n_edges = graph("hub", n_nodes)
    rounds = 1 if n_nodes >= 1000 else 2
    pedantic(benchmark, merge_join_query, ATOMS, {"E": relation},
             ["a", "b", "c"], rounds=rounds)
    benchmark.extra_info["edges"] = n_edges


@pytest.mark.parametrize("n_nodes", POWERLAW_SIZES)
def test_fig5_powerlaw_lftj(benchmark, n_nodes):
    relation, n_edges = graph("powerlaw", n_nodes)
    count = pedantic(benchmark, run_lftj, relation)
    benchmark.extra_info.update(edges=n_edges, triangles=count)


@pytest.mark.parametrize("n_nodes", POWERLAW_SIZES)
def test_fig5_powerlaw_hash_join(benchmark, n_nodes):
    relation, n_edges = graph("powerlaw", n_nodes)
    pedantic(benchmark, hash_join_query, ATOMS, {"E": relation},
             ["a", "b", "c"])
    benchmark.extra_info["edges"] = n_edges


def _backend_times(kind, n_nodes):
    """(pure_s, columnar_s, order, rows, n_edges) on one graph, rows
    asserted bit-identical, both backends warmed before timing."""
    from repro.engine.columnar import make_join
    from repro.engine.optimizer import SamplingOptimizer
    from repro.engine.plancache import PlanCache
    from repro.engine.rules import Rule

    relation, n_edges = graph(kind, n_nodes)
    env = {"E": relation}
    rule = Rule("t", [Var("a"), Var("b"), Var("c")], ATOMS)
    order = SamplingOptimizer()(rule, env) or ("a", "b", "c")
    plan = build_plan(ATOMS, var_order=list(order))

    def run_pure():
        return list(LeapfrogTrieJoin(plan, env, prefer_array=True).run())

    setups = PlanCache()  # the join setup cache a workspace would keep

    def run_columnar():
        return list(make_join(plan, env, backend="columnar", setups=setups).run())

    pure_rows = run_pure()  # warm the flat arrays
    assert run_columnar() == pure_rows  # warm the encoded setup

    def best_of(fn, rounds=2):
        best = None
        for _ in range(rounds):
            started = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        return best

    return best_of(run_pure), best_of(run_columnar), order, pure_rows, n_edges


def test_fig5_columnar_vs_pure(benchmark):
    """Columnar vs pure LFTJ on the largest power-law graph: rows must
    be bit-identical and the batched backend must win by >=5x (the CI
    gate reads the ``pure_s``/``columnar_s`` fields).  The largest hub
    graph is also measured and recorded *ungated*: its celebrity-hub
    skew is the adversarial case where pure LFTJ's adaptive leapfrogging
    sidesteps the wedge blowup that batched expand-then-probe must wade
    through, so the vectorized win shrinks there by design (see
    DESIGN.md, "Engine backends")."""
    from repro.engine.columnar import make_join  # noqa: F401 - import gate
    from repro.storage.columnar import HAVE_NUMPY

    if not HAVE_NUMPY:
        pytest.skip("numpy not available")
    import numpy

    pure_time, columnar_time, order, rows, n_edges = _backend_times(
        "powerlaw", POWERLAW_SIZES[-1]
    )
    speedup = pure_time / columnar_time
    hub_pure, hub_columnar, _, _, hub_edges = _backend_times(
        "hub", HUB_SIZES[-1]
    )
    benchmark.extra_info.update(
        backend="columnar",
        numpy_version=numpy.__version__,
        var_order=list(order),
        edges=n_edges,
        triangles=len(rows),
        pure_s=pure_time,
        columnar_s=columnar_time,
        speedup=speedup,
        hub_edges=hub_edges,
        hub_pure_s=hub_pure,
        hub_columnar_s=hub_columnar,
        hub_speedup=hub_pure / hub_columnar,
    )
    if not SMOKE:
        assert speedup >= 5.0, (
            "columnar LFTJ must be >=5x the pure backend at full size, "
            "got {:.1f}x".format(speedup)
        )

    def run_columnar_again():
        relation, _ = graph("powerlaw", POWERLAW_SIZES[-1])
        plan = build_plan(ATOMS, var_order=list(order))
        return list(make_join(plan, {"E": relation}, backend="columnar").run())

    pedantic(benchmark, run_columnar_again, rounds=1)


@pytest.mark.skipif(SMOKE, reason="smoke mode checks crashes, not shape")
def test_fig5_shape(benchmark):
    """The paper's headline shape, asserted: on skewed graphs LFTJ wins
    outright and its advantage grows with |E|."""
    print("\nFigure 5 series (hub-skewed graphs):")
    print("  edges   lftj_s   hash_s   ratio   intermediates  triangles")
    ratios = []
    for n_nodes in HUB_SIZES:
        relation, n_edges = graph("hub", n_nodes)
        started = time.perf_counter()
        count = run_lftj(relation)
        lftj_time = time.perf_counter() - started
        stats = {}
        started = time.perf_counter()
        result = hash_join_query(ATOMS, {"E": relation}, ["a", "b", "c"], stats)
        hash_time = time.perf_counter() - started
        assert len(result) == count
        ratio = hash_time / lftj_time
        ratios.append(ratio)
        print("  %6d  %6.3f  %7.3f  %5.1fx  %13d  %9d" % (
            n_edges, lftj_time, hash_time, ratio,
            stats["intermediate_rows"], count))
    assert ratios[-1] > 2.0, "LFTJ must win clearly at the largest size"
    assert ratios[-1] > 2 * ratios[0], "the gap must widen with |E|"
    benchmark.extra_info["ratios"] = ratios
    pedantic(benchmark, run_lftj, graph("hub", 250)[0], rounds=1)
