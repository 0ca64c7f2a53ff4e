"""Tests of the benchmark's own code: ``python3 -m pytest perfbench``."""

import os
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import harness  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


# -- spans and self time --------------------------------------------------------


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    rec = tracing.Recorder(clock=clock)
    rec.enabled = True
    outer = rec.open("outer")          # 0 .. 100
    clock.now = 10
    inner = rec.open("inner")          # 10 .. 40
    clock.now = 15
    leaf = rec.open("leaf")            # 15 .. 25
    clock.now = 25
    rec.close(leaf)
    clock.now = 40
    rec.close(inner)
    clock.now = 60
    second = rec.open("inner")         # 60 .. 70
    clock.now = 70
    rec.close(second)
    clock.now = 100
    rec.close(outer)

    assert leaf.parent == inner.sid and inner.parent == outer.sid
    assert outer.self_time == 100 - 30 - 10
    assert inner.self_time == 30 - 10
    tot = tracing.totals(rec.dump()["spans"])
    assert tot["outer"]["self_ns"] == 60
    assert tot["inner"] == {"calls": 2, "total_ns": 40, "self_ns": 30}
    # self times of one tree add up to the root's duration
    assert sum(v["self_ns"] for v in tot.values()) == 100


def test_counted_calls_are_child_time_of_the_open_span():
    clock = FakeClock()
    rec = tracing.Recorder(clock=clock)
    rec.enabled = True

    def hot():
        clock.now += 7
        return "x"

    wrapped = tracing.make_wrapper(rec, "hot", hot, counted=True)
    outer = rec.open("outer")
    assert wrapped() == "x" and wrapped() == "x"
    clock.now += 6
    rec.close(outer)
    wrapped()                          # outside any span: tally only
    assert outer.duration == 20 and outer.self_time == 6
    assert rec.counts["hot"] == [3, 21]
    assert tracing.counted_within(rec.dump()["spans"], "outer") == (2, 14)


def test_counted_generators_are_timed_while_iterated():
    clock = FakeClock()
    rec = tracing.Recorder(clock=clock)
    rec.enabled = True

    def rows():
        for n in range(3):
            clock.now += 5
            yield n

    wrapped = tracing.make_wrapper(rec, "join", rows, counted=True)
    outer = rec.open("query")
    gen = wrapped()
    clock.now += 1                     # consumer work between steps
    assert list(gen) == [0, 1, 2]
    rec.close(outer)
    assert rec.counts["join"] == [1, 15]
    assert outer.duration == 16 and outer.self_time == 1


def test_union_of_intervals():
    assert layers.union_ns([]) == 0
    assert layers.union_ns([(0, 10), (5, 15), (20, 25), (21, 22)]) == 20


def test_wrappers_pass_through_while_disabled():
    rec = tracing.Recorder()
    wrapped = tracing.make_wrapper(rec, "f", lambda x: x + 1)
    assert wrapped(1) == 2
    assert rec.dump() == {"spans": [], "counts": {}}


def test_spans_nest_per_thread():
    rec = tracing.Recorder()
    rec.enabled = True
    gate = threading.Barrier(2)

    def work():
        span = rec.open("t")
        gate.wait(timeout=5)
        rec.close(span)

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
    assert not any(t.is_alive() for t in threads)
    spans = rec.dump()["spans"]
    assert len(spans) == 2 and all(s["parent"] is None for s in spans)


# -- percentiles and the tail rule ---------------------------------------------


def test_nearest_rank_percentiles():
    values = list(range(1, 101))
    assert harness.percentile(values, 0.5) == 50
    assert harness.percentile(values, 0.9) == 90
    assert harness.percentile([3.0], 0.9) == 3.0
    assert harness.median([4, 1, 3, 2]) == 2.5


@pytest.mark.parametrize("n, ok", [(99, False), (100, True), (109, True),
                                   (10, False), (0, False)])
def test_p90_needs_ten_samples_beyond_it(n, ok):
    assert harness.tail_ok(n, 0.9) is ok


def test_table_lists_p90_only_with_enough_samples():
    few = [harness.Record("commit", 0.5, 0.51, True) for _ in range(99)]
    table = layers.end_to_end_table(few, (0, 1), [1.0], "commit")
    assert "commit_p50_ms" in table and "commit_p90_ms" not in table
    assert table["commit_p50_ms"][2] == 99
    many = few + [harness.Record("commit", 0.5, 0.52, True)]
    assert "commit_p90_ms" in layers.end_to_end_table(
        many, (0, 1), [1.0], "commit")


def test_table_window_rates_count_completions_latencies_count_sends():
    records = [
        harness.Record("commit", 0.5, 1.5, True),    # sent before
        harness.Record("commit", 1.5, 2.5, True),    # inside
        harness.Record("commit", 2.5, 3.5, True),    # completes after
        harness.Record("read", 3.5, 3.6, True),      # sent after
    ]
    table = layers.end_to_end_table(records, (1.0, 3.0), [2.0], "commit")
    assert table["ops_per_s"] == (1.0, "1/s", 2)   # completions 1.5, 2.5
    assert table["commit_p50_ms"][2] == 2
    assert "read_p50_ms" not in table


# -- seeded generators -----------------------------------------------------------


def _sample(workload, n=40):
    sessions = [object()] * workload.clients
    if isinstance(workload, workloads.ShardedTransfers):
        class Map:
            @staticmethod
            def shard_of_key(key):
                return key % 2
        sessions = [type("Coordinator", (), {"shard_map": Map})()]
    out = []
    for _, ops in workload.streams(sessions):
        for _, (kind, call) in zip(range(n), ops):
            out.append((kind, tuple(
                cell.cell_contents for cell in call.__closure__)))
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_and_seed_dependent(name):
    cls = workloads.WORKLOADS[name]
    a, b, c = cls(7), cls(7), cls(8)
    assert _inputs(a) == _inputs(b)
    assert _sample(a) == _sample(b)
    assert _inputs(a) != _inputs(c) or _sample(a) != _sample(c)
    assert _sample(a) != _sample(c)


def _inputs(w):
    return {k: v for k, v in vars(w).items()
            if isinstance(v, (list, dict, int))}


def test_graph_views_churn_is_distinct_and_spread_over_layers():
    w = workloads.GraphViews(3)
    churn = [edge for session in w.churn for edge in session]
    assert len(churn) == len(set(churn)) == w.churn_per_session * w.clients
    assert set(churn) <= set(w.edges)
    per = w.nodes // w.layers
    layers_hit = [a // per for a, _ in churn]
    # dealt round-robin: every window of (layers - 1) edges hits each
    # source layer once
    assert layers_hit[:w.layers - 1] == list(range(w.layers - 1))
    assert all(layers_hit.count(i) >= len(churn) // (w.layers - 1)
               for i in range(w.layers - 1))


def test_plain_python_oracles():
    assert workloads.closure([(1, 2), (2, 3)]) == {(1, 2), (2, 3), (1, 3)}
    square = [(1, 2), (2, 3), (1, 3), (3, 4), (2, 4)]
    assert workloads.count_triangles(square) == 2


# -- failed ops ------------------------------------------------------------------


def test_failed_op_share_counts_typed_errors():
    from repro.runtime.errors import ConflictError, Overloaded, TxnTimeout

    raised = iter([Overloaded("busy", depth=1, limit=1, retry_after_s=0.1),
                   ConflictError("clash"), TxnTimeout("late"), None])

    def call(session):
        exc = next(raised)
        if exc is not None:
            raise exc
        return None, "ok"

    ops = iter([("commit", call)] * 4)
    records, started = harness.closed_loop([(None, ops)], 60.0,
                                           layers.typed_errors())
    assert [r.error for r in records] == [
        "Overloaded", "ConflictError", "TxnTimeout", None]
    assert harness.failed_share(records) == 0.75
    table = layers.end_to_end_table(records, (started, started + 60),
                                    [1.0], "commit")
    assert table["failed_op_share"][:2] == (0.75, "ratio")
    # a failed op misses every latency limit
    assert table["commit_p50_ms"][0] == float("inf")


def test_closed_loop_runs_actions_while_clients_run():
    seen = []

    def call(session):
        return None, None

    ops = iter([("read", call)] * 10 ** 9)
    records, started = harness.closed_loop(
        [(None, ops)], 0.3, layers.typed_errors(),
        actions=[(0.1, lambda: seen.append(time.perf_counter()))])
    assert len(seen) == 1 and seen[0] >= started + 0.1
    assert records and all(r.start < started + 0.3 for r in records)


def test_untyped_errors_are_unexpected():
    def call(session):
        raise ValueError("bug")

    records, _ = harness.closed_loop([(None, iter([("read", call)]))], 60.0,
                                     layers.typed_errors())
    assert records[0].error.startswith("unexpected:ValueError")


# -- BENCHMARK.json ----------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    import json

    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    records = [harness.Record("commit", 0.5, 0.51, True)]
    table = layers.end_to_end_table(records, (0, 1), [1.0], "commit")
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == {
        (name, unit) for name, (_, unit) in
        layers.contract_metrics(table).items()}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)
    listed = [w["name"] for w in spec["workloads"]]
    assert set(listed) <= set(workloads.WORKLOADS)
    assert "graph_views" not in listed       # see README.md
