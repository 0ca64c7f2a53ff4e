"""Horizontally sharded workspaces: aggregate commit+query scaling of a
3-shard fleet over a single shard on a co-partitioned workload.

One artifact, ``BENCH_shard.json``:

* **shard scaling** — the workload is literal-key order transactions
  (one write + one keyed lookup per op), each co-partitioned on the
  order key, so the coordinator routes every op to exactly one shard.
  The baseline holds the whole EDB on one shard; the fleet hash-splits
  it across three.  On a one-core box three in-process shards just
  timeslice the GIL, so the fleet estimate is the *isolated sum* (the
  bench_fleet convention): each shard's op rate is measured by driving
  only the keys it owns — through the coordinator, so routing and
  classification costs are charged — and the rates are added, which is
  what N cores give an N-shard fleet.  Each shard carries only ~1/N
  of the rows, but with delta-driven constraint checks a one-row op no
  longer costs work in proportion to its shard's rows, so the estimate
  is about N times the single-shard rate rather than more.  On a
  >= 4-core box the real
  concurrent aggregate is measured too (three threads, each its own
  coordinator over the shared shard services).  The gate asserts the
  3-shard fleet sustains >= 2x the single-shard baseline.
"""

import os
import threading
import time

import pytest

from repro.shard import ShardedWorkspace
from conftest import SMOKE, pedantic, sizes

N_SHARDS = 3
N_ORDERS = sizes(240, 24)
ITEMS_PER_ORDER = sizes(6, 2)
OPS = sizes(120, 12)
SCALING_GATE = 2.0

SCHEMA = (
    "order(o, c) -> int(o), string(c).\n"
    "lineitem(o, l, q) -> int(o), int(l), int(q).\n"
)
PARTITION = {"order": 0, "lineitem": 0}


def build(n_shards):
    fleet = ShardedWorkspace.local(n_shards, dict(PARTITION))
    fleet.addblock(SCHEMA, name="schema")
    fleet.load("order", [
        (o, "c{}".format(o % 7)) for o in range(N_ORDERS)])
    fleet.load("lineitem", [
        (o, o * ITEMS_PER_ORDER + j, (o + j) % 17)
        for o in range(N_ORDERS) for j in range(ITEMS_PER_ORDER)])
    return fleet


def keys_of_shard(fleet, index):
    """The order keys the fleet places on shard ``index``."""
    return [o for o in range(N_ORDERS)
            if fleet.shard_map.shard_of_key(o) == index]


def drive_ops(fleet, keys, ops):
    """``ops`` co-partitioned transactions (1 literal-key write + 1
    keyed lookup each) through the coordinator; returns ops/s."""
    started = time.perf_counter()
    for n in range(ops):
        key = keys[n % len(keys)]
        fleet.exec('+lineitem({0}, {1}, 1).'.format(key, 100000 + n))
        fleet.query(
            "q(l, v) <- lineitem({}, l, v).".format(key))
    elapsed = time.perf_counter() - started
    return ops / elapsed if elapsed else 0.0


def run_shard_scaling():
    baseline_fleet = build(1)
    try:
        # warm, then measure: every key "owns" shard 0 in a 1-shard map
        drive_ops(baseline_fleet, list(range(N_ORDERS)), 2)
        baseline = drive_ops(baseline_fleet, list(range(N_ORDERS)), OPS)
    finally:
        baseline_fleet.close()

    fleet = build(N_SHARDS)
    try:
        per_shard = []
        for index in range(N_SHARDS):
            keys = keys_of_shard(fleet, index)
            drive_ops(fleet, keys, 2)
            per_shard.append(drive_ops(fleet, keys, OPS))
        aggregate = sum(per_shard)
        outcome = {
            "baseline_ops": baseline,
            "per_shard_ops": per_shard,
            "aggregate_ops": aggregate,
            "scaling": aggregate / baseline if baseline else 0.0,
            "estimator": "isolated-sum",
        }
        if (os.cpu_count() or 1) >= 4:
            # enough cores to timeslice honestly: three coordinators
            # (one per thread, each one-thread-at-a-time by contract)
            # over the SAME shard services, each thread driving the
            # keys one shard owns
            backends = [fleet._pool.backend(i) for i in range(N_SHARDS)]
            counts = [0] * N_SHARDS
            stop = threading.Event()

            def worker(index):
                side = ShardedWorkspace(
                    backends, fleet.shard_map, owns_backends=False)
                side._blocks = dict(fleet._blocks)
                side._analysis = fleet._analysis
                keys = keys_of_shard(fleet, index)
                n = 0
                try:
                    while not stop.is_set():
                        key = keys[n % len(keys)]
                        side.exec('+lineitem({0}, {1}, 1).'.format(
                            key, 200000 + index * 100000 + n))
                        side.query(
                            "q(l, v) <- lineitem({}, l, v).".format(key))
                        counts[index] += 1
                        n += 1
                finally:
                    side.close()

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(N_SHARDS)]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            time.sleep(0.25 if SMOKE else 1.5)
            stop.set()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - started
            outcome["concurrent_ops"] = sum(counts) / elapsed
        return outcome
    finally:
        fleet.close()


def test_shard_commit_query_scaling(benchmark):
    outcome = pedantic(benchmark, run_shard_scaling, rounds=1)
    benchmark.extra_info.update(
        shards=N_SHARDS,
        orders=N_ORDERS,
        ops=OPS,
        estimator=outcome["estimator"],
        baseline_ops=round(outcome["baseline_ops"], 1),
        per_shard_ops=[round(q, 1) for q in outcome["per_shard_ops"]],
        aggregate_ops=round(outcome["aggregate_ops"], 1),
        scaling_vs_single=round(outcome["scaling"], 3),
        concurrent_ops=round(outcome.get("concurrent_ops", 0.0), 1),
        scaling_gate=SCALING_GATE,
    )
    # the tentpole's promise: three shards beat one on a co-partitioned
    # commit+query workload
    assert outcome["scaling"] >= SCALING_GATE, outcome
