"""Per-workspace engine_stats(): reset round-trips and scope isolation."""

import threading

from repro import Workspace
from repro import stats as global_stats

SCHEMA = (
    "edge(x, y) -> int(x), int(y).\n"
    "path(x, y) <- edge(x, y).\n"
    "path(x, z) <- path(x, y), edge(y, z).\n"
)

EDGES = [(i, i + 1) for i in range(30)] + [(i, i + 5) for i in range(20)]


def run_workload(ws):
    ws.load("edge", EDGES)
    ws.query("_(x, y) <- path(x, y), edge(y, x).")
    ws.exec("+edge(100, 101).")


def scalar(counters):
    return {k: v for k, v in counters.items() if isinstance(v, (int, float))}


class TestResetRoundTrip:
    def test_reset_zeroes_the_window(self):
        ws = Workspace()
        ws.addblock(SCHEMA)
        run_workload(ws)
        assert scalar(ws.engine_stats())  # something was counted
        ws.reset_engine_stats()
        assert scalar(ws.engine_stats()) == {}

    def test_window_resumes_after_reset(self):
        ws = Workspace()
        ws.addblock(SCHEMA)
        ws.load("edge", EDGES)
        ws.reset_engine_stats()
        ws.exec("+edge(200, 201).")
        window = scalar(ws.engine_stats())
        assert window.get("ivm.applies", 0) == 1
        # a second reset opens another clean window
        ws.reset_engine_stats()
        assert scalar(ws.engine_stats()) == {}

    def test_global_counters_unaffected_by_workspace_reset(self):
        ws = Workspace()
        ws.addblock(SCHEMA)
        run_workload(ws)
        before = global_stats.get("ivm.applies")
        ws.reset_engine_stats()
        assert global_stats.get("ivm.applies") == before


class TestWorkspaceIsolation:
    def test_two_workspaces_do_not_cross_contaminate(self):
        """Two workspaces running identical workloads concurrently on
        separate threads must each report exactly their own work."""
        results = {}
        errors = []
        barrier = threading.Barrier(2)

        def worker(name):
            try:
                ws = Workspace()
                ws.addblock(SCHEMA)
                barrier.wait(timeout=30)
                run_workload(ws)
                ws.reset_engine_stats()
                run_workload(ws)
                results[name] = scalar(ws.engine_stats())
            except Exception as error:  # surface in the main thread
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # identical workloads -> identical deltas; contamination would
        # double some counters on whichever thread ran second
        assert results["a"] == results["b"]
        assert results["a"].get("ivm.applies", 0) == 2

    def test_columnar_join_setups_are_per_workspace(self):
        """Equal data in two workspaces: each builds its own columnar
        join setup, so its counters never depend on the other's work."""
        counts = []
        for _ in range(2):
            ws = Workspace(engine="columnar")
            ws.addblock(SCHEMA)
            ws.load("edge", EDGES)
            ws.reset_engine_stats()
            ws.query("_(x, y) <- edge(x, y), x < y.")
            ws.query("_(x, y) <- edge(x, y), x < y.")
            stats = ws.engine_stats()
            counts.append((stats.get("join.columnar_setups", 0),
                           stats.get("join.columnar_setup_hits", 0)))
        assert counts == [(1, 1), (1, 1)]

    def test_sequential_workspaces_count_independently(self):
        ws1 = Workspace()
        ws1.addblock(SCHEMA)
        run_workload(ws1)
        first = scalar(ws1.engine_stats())
        ws2 = Workspace()
        ws2.addblock(SCHEMA)
        run_workload(ws2)
        # ws2's activity must not have leaked into ws1's window
        assert scalar(ws1.engine_stats()) == first


class TestStatsScope:
    def test_scope_routes_external_engine_work(self):
        ws = Workspace()
        ws.addblock(SCHEMA)
        ws.reset_engine_stats()
        with ws.stats_scope():
            global_stats.bump("stats_scope.test_probe")
        assert ws.engine_stats().get("stats_scope.test_probe") == 1

    def test_scope_is_reentrant(self):
        ws = Workspace()
        with ws.stats_scope():
            with ws.stats_scope():
                global_stats.bump("stats_scope.reentrant_probe")
        assert ws.engine_stats().get("stats_scope.reentrant_probe") == 1
