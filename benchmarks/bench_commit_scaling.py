"""One-tuple commit latency vs. database size (paper §2.2.1, §3.2).

Integrity constraints are checked with the same incremental machinery
as views: a commit checks only the LHS bindings its deltas touch, the
sensitivity indices are refrozen only where the commit recorded, and
functional dependencies are checked only for the keys it added.  A
one-tuple commit should therefore cost about the same at 32 rows as at
4,096.

The schema is the one of the ``oltp_inventory`` workload in
``perfbench``: a typed, non-negative inventory with a foreign key into
``price``, plus a derived ``value`` view and a ``total_value``
aggregate.  Each commit decrements one item, through an in-process
:class:`Workspace` and through a :class:`TransactionService` session.

Two gates:

* **count gate** (smoke mode too): the LHS bindings pushed through the
  constraint probe per commit (``constraints.bindings_checked``) are
  identical at every size, and no constraint takes the full walk;
* **latency gate** (full size only): p50 commit latency at 4,096 rows is
  at most 2x the p50 at 32 rows, on each surface.

Emits ``BENCH_commit_scaling.json`` with p50/p90 latency, bindings and
full walks per commit for every (surface, rows) pair.
"""

import statistics
import time

import pytest

from repro import Workspace
from repro.service import TransactionService
from conftest import SMOKE, pedantic, sizes

ROWS = sizes([32, 512, 4096], [32, 128])
COMMITS = sizes(80, 8)
LATENCY_GATE = 2.0

SCHEMA = """
    inventory[s] = v -> string(s), int(v).
    price[s] = p -> string(s), int(p).
    inventory[s] = v -> v >= 0.
    inventory[s] = v -> price[s] = _.
    value[s] = x <- inventory[s] = v, price[s] = p, x = v * p.
    total_value[] = u <- agg<<u = sum(x)>> value[s] = x.
"""

COMMIT = '^inventory["{0}"] = v - 1 <- inventory@start["{0}"] = v.'

#: (surface, rows) -> outcome of the last run, for the gates below
RESULTS = {}


def _data(rows):
    keys = ["sku{:05d}".format(i) for i in range(rows)]
    price = [(key, 1 + i % 97) for i, key in enumerate(keys)]
    stock = [(key, 5000 + i % 4999) for i, key in enumerate(keys)]
    # a fixed stride spreads the commits over the key space
    order = [keys[(i * 7919) % rows] for i in range(COMMITS)]
    return price, stock, order


def _outcome(latencies, counters):
    latencies = sorted(latencies)
    return {
        "commits": len(latencies),
        "p50_ms": statistics.median(latencies) * 1e3,
        "p90_ms": latencies[int(0.9 * (len(latencies) - 1))] * 1e3,
        "bindings_per_commit":
            counters.get("constraints.bindings_checked", 0) / len(latencies),
        "full_checks_per_commit":
            counters.get("constraints.full_checks", 0) / len(latencies),
    }


def run_workspace(rows):
    price, stock, order = _data(rows)
    ws = Workspace()
    ws.addblock(SCHEMA, name="schema")
    ws.load("price", price)
    ws.load("inventory", stock)
    ws.reset_engine_stats()
    latencies = []
    for key in order:
        started = time.perf_counter()
        ws.exec(COMMIT.format(key))
        latencies.append(time.perf_counter() - started)
    return _outcome(latencies, ws.engine_stats())


def run_service(rows):
    price, stock, order = _data(rows)
    service = TransactionService()
    with service:
        service.addblock(SCHEMA, name="schema")
        service.load("price", price)
        service.load("inventory", stock)
        session = service.session(name="writer")
        before = service.service_stats()
        latencies = []
        for key in order:
            started = time.perf_counter()
            session.exec(COMMIT.format(key))
            latencies.append(time.perf_counter() - started)
        after = service.service_stats()
    counters = {
        key: after[key] - before.get(key, 0)
        for key in ("constraints.bindings_checked", "constraints.full_checks")
        if key in after
    }
    return _outcome(latencies, counters)


SURFACES = {"workspace": run_workspace, "service": run_service}


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_commit_scaling(benchmark, surface, rows):
    outcome = pedantic(benchmark, SURFACES[surface], rows, rounds=1)
    RESULTS[surface, rows] = outcome
    benchmark.extra_info.update(
        surface=surface,
        rows=rows,
        p50_ms=round(outcome["p50_ms"], 3),
        p90_ms=round(outcome["p90_ms"], 3),
        bindings_per_commit=outcome["bindings_per_commit"],
        full_checks_per_commit=outcome["full_checks_per_commit"],
    )


@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_bindings_checked_gate(surface):
    """Count gate: constraint work per commit does not grow with size."""
    runs = [RESULTS.get((surface, rows)) for rows in ROWS]
    assert all(runs), "commit scaling benchmarks did not run"
    per_commit = [run["bindings_per_commit"] for run in runs]
    print("\n{}: bindings checked per commit {}".format(surface, per_commit))
    assert per_commit[0] > 0
    assert per_commit == [per_commit[0]] * len(per_commit)
    assert all(run["full_checks_per_commit"] == 0 for run in runs)


@pytest.mark.skipif(SMOKE, reason="smoke mode checks crashes, not scaling")
@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_latency_gate(surface):
    """Latency gate: p50 at the largest size <= 2x p50 at the smallest."""
    small = RESULTS.get((surface, ROWS[0]))
    large = RESULTS.get((surface, ROWS[-1]))
    assert small and large, "commit scaling benchmarks did not run"
    ratio = large["p50_ms"] / small["p50_ms"]
    print("\n{}: p50 {:.2f} ms at {} rows, {:.2f} ms at {} rows ({:.2f}x)".format(
        surface, small["p50_ms"], ROWS[0], large["p50_ms"], ROWS[-1], ratio))
    assert ratio <= LATENCY_GATE, (
        "one-tuple commit grew {:.2f}x from {} to {} rows (gate {}x)".format(
            ratio, ROWS[0], ROWS[-1], LATENCY_GATE))
