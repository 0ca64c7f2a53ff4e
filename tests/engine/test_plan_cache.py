"""Plan memoization and the workspace-level plan/index cache hierarchy."""

from repro import stats as global_stats
from repro.engine.evaluator import Evaluator, RuleSet
from repro.engine.ir import PredAtom, Var
from repro.engine.plancache import PlanCache, rule_schema_key
from repro.engine.rules import Rule
from repro.runtime.workspace import Workspace
from repro.storage.relation import Delta, Relation


def chain_rule():
    return Rule(
        "P",
        [Var("x"), Var("z")],
        [PredAtom("E", [Var("x"), Var("y")]), PredAtom("E", [Var("y"), Var("z")])],
    )


def test_rule_plan_memoized_across_passes():
    """Regression: repeated evaluation passes must reuse one Plan object."""
    rule = chain_rule()
    assert rule.plan() is rule.plan()
    assert rule.plan(["x", "y", "z"]) is rule.plan(["x", "y", "z"])
    assert rule.plan(("x", "y", "z")) is rule.plan(["x", "y", "z"])
    assert rule.plan(["y", "x", "z"]) is not rule.plan(["x", "y", "z"])


def test_evaluator_reuses_plan_across_evaluations():
    rule = chain_rule()
    cache = PlanCache()
    evaluator = Evaluator(RuleSet([rule]), plan_cache=cache)
    edges = Relation.from_iter(2, [(1, 2), (2, 3)])
    first, _ = evaluator.evaluate({"E": edges})
    assert cache.misses == 1
    second, _ = evaluator.evaluate({"E": edges.insert((3, 4))})
    assert sorted(second["P"]) == [(1, 3), (2, 4)]
    assert cache.misses == 1  # second pass: pure hit
    assert cache.hits >= 1


def test_plan_cache_survives_rule_recompilation():
    """Structurally identical rules (fresh objects, as produced by a
    program re-install) share one cached plan."""
    cache = PlanCache()
    first = cache.plan_for(chain_rule())
    again = cache.plan_for(chain_rule())
    assert first is again
    assert cache.stats_snapshot()["hits"] == 1


def test_schema_key_distinguishes_arity():
    narrow = chain_rule()
    wide = Rule(
        "P",
        [Var("x"), Var("z")],
        [
            PredAtom("E", [Var("x"), Var("y"), Var("w")]),
            PredAtom("E", [Var("y"), Var("z"), Var("w2")]),
        ],
    )
    assert rule_schema_key(narrow) != rule_schema_key(wide)


def test_workspace_second_evaluation_hits_plan_cache():
    ws = Workspace()
    ws.addblock(
        """
        edge(x, y) -> int(x), int(y).
        path(x, y) <- edge(x, y).
        """
    )
    ws.load("edge", [(1, 2), (2, 3)])
    baseline = ws.engine_stats()["plan_cache"]
    ws.load("edge", [(3, 4)])  # same rule, next transaction
    after = ws.engine_stats()["plan_cache"]
    assert after["hits"] > baseline["hits"]
    assert after["misses"] == baseline["misses"]


def test_workspace_query_plans_survive_across_transactions():
    ws = Workspace()
    ws.addblock("edge(x, y) -> int(x), int(y).")
    ws.load("edge", [(1, 2), (2, 3)])
    query = "_(x, z) <- edge(x, y), edge(y, z)."
    assert ws.query(query) == [(1, 3)]
    hits_before = ws.engine_stats()["plan_cache"]["hits"]
    assert ws.query(query) == [(1, 3)]
    assert ws.engine_stats()["plan_cache"]["hits"] > hits_before


def test_rebranching_unchanged_relation_keeps_indexes_warm():
    ws = Workspace()
    ws.addblock("edge(x, y) -> int(x), int(y).")
    ws.load("edge", [(i, i + 1) for i in range(64)])
    # joining on the second column forces a permuted secondary index
    query = "_(x, z) <- edge(x, y), edge(z, y)."
    before = global_stats.snapshot()
    ws.query(query)  # builds the secondary index on the shared version
    built = global_stats.delta_since(before)
    # the pure backend builds a permuted tuple index; the columnar one
    # builds a permuted columnar layout — either way it is a cold build
    assert (
        built.get("relation.index_misses", 0) > 0
        or built.get("relation.columnar_misses", 0) > 0
    )
    before = global_stats.snapshot()
    ws.create_branch("fork")
    ws.switch("fork")
    ws.query(query)
    bumped = global_stats.delta_since(before)
    # the branch shares the relation version: the permuted structure
    # built before the branch must be reused, not rebuilt (the columnar
    # backend may reuse the whole encoded join setup, which is keyed by
    # the same relation versions and never re-touches the layouts)
    assert (
        bumped.get("relation.index_hits", 0) > 0
        or bumped.get("relation.columnar_hits", 0) > 0
        or bumped.get("join.columnar_setup_hits", 0) > 0
    )
    assert bumped.get("relation.index_misses", 0) == 0
    assert bumped.get("relation.columnar_misses", 0) == 0


def test_delta_application_promotes_flat_arrays():
    relation = Relation.from_iter(2, [(i, i % 7) for i in range(128)])
    relation.flat((1, 0))  # materialize the array backend
    before = global_stats.snapshot()
    updated = relation.apply(Delta.from_iters([(999, 0)], [(0, 0)]))
    assert updated.has_flat((1, 0))
    bumped = global_stats.delta_since(before)
    assert bumped.get("relation.flat_promotions", 0) >= 1
    assert updated.flat((1, 0)) == sorted(
        (b, a) for a, b in updated
    )


def test_columnar_setups_under_concurrent_readers():
    """Readers sharing one workspace's plan cache (as the service's
    lock-free readers do) churn its bounded setup store concurrently:
    every answer stays right and the store stays within its bound."""
    import random
    import sys
    import threading

    from repro.runtime.workspace import evaluate_query

    ws = Workspace(engine="columnar")
    ws.addblock("edge(x, y) -> int(x), int(y).")
    ws.load("edge", [(i, (i * 7 + 3) % 40) for i in range(40)])
    ws.query("_(x, y) <- edge(x, y).")  # encodes edge: point reads go columnar
    cache = ws._plan_cache
    cache.SETUP_CAPACITY = 3

    def source(node):
        return "_(z) <- edge({}, y), edge(y, z).".format(node)

    expected = {node: ws.query(source(node)) for node in range(8)}
    state = ws.state
    errors = []

    def reader(seed):
        rng = random.Random(seed)
        try:
            for _ in range(40):
                node = rng.randrange(8)
                rows = evaluate_query(state, source(node), plan_cache=cache,
                                      backend="columnar")
                if rows != expected[node]:
                    errors.append((node, rows))
        except Exception as error:  # surface in the main thread
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(cache._setups) <= 3
