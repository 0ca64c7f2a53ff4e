"""Shared helpers for the benchmark suite.

Each module regenerates one paper artifact (see DESIGN.md §4 and
EXPERIMENTS.md).  Benchmarks assert the *shape* of the paper's results
(who wins, scaling exponents, crossovers), not absolute numbers: the
substrate here is a pure-Python engine, not the authors' C++ testbed.

Every run additionally emits one machine-readable result file per
benchmark module — ``benchmarks/results/BENCH_<name>.json`` holding the
workload parameters, wall times, and engine counters — so the perf
trajectory can be tracked across PRs.

``BENCH_SMOKE=1`` shrinks every workload to tiny sizes (CI smoke mode:
catch crashes on the perf path, don't measure).
"""

import json
import os
import platform
from pathlib import Path

import pytest

from repro import obs
from repro import stats as engine_stats

#: Smoke mode: tiny inputs, one round — crash detection, not measurement.
SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: result-file aliases: module stem (minus ``bench_``) -> BENCH_<name>
RESULT_ALIASES = {"service_throughput": "service", "net_throughput": "net"}

#: module stem -> (engine counters, histograms, span totals) of that
#: module's own run, written into its BENCH_<name>.json at session end
_MODULE_STATS = {}


def sizes(full, smoke):
    """Pick the workload size list for the current mode."""
    return smoke if SMOKE else full


def pedantic(benchmark, fn, *args, rounds=3, **kwargs):
    """Run a benchmark with a fixed small round count (the workloads
    are big enough that calibration noise is irrelevant)."""
    if SMOKE:
        rounds = 1
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=rounds,
                              iterations=1, warmup_rounds=0)


def _numpy_version():
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def _engine_backend():
    from repro.engine.columnar import resolve_backend

    return resolve_backend()


def _json_safe(value):
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _bench_entry(bench):
    stats = getattr(bench, "stats", None)
    timing = {}
    if stats is not None:
        for field in ("min", "max", "mean", "stddev", "rounds"):
            timing[field] = _json_safe(getattr(stats, field, None))
    return {
        "test": bench.name,
        "params": _json_safe(getattr(bench, "params", None) or {}),
        "wall_time_s": timing,
        "extra_info": _json_safe(dict(getattr(bench, "extra_info", {}) or {})),
    }


@pytest.fixture(scope="module", autouse=True)
def _module_stats(request):
    """Count each benchmark module in its own window: counters,
    histograms and span totals start from zero when the module starts
    and are captured when it ends, so no artifact carries another
    module's counters."""
    engine_stats.reset()
    obs.reset_span_totals()
    yield
    _MODULE_STATS[request.path.stem] = (
        engine_stats.snapshot(), engine_stats.histograms(), obs.span_totals()
    )


def pytest_sessionfinish(session, exitstatus):
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not bench_session.benchmarks:
        return
    by_module = {}
    for bench in bench_session.benchmarks:
        module = Path(bench.fullname.split("::")[0]).stem
        by_module.setdefault(module, []).append(_bench_entry(bench))
    RESULTS_DIR.mkdir(exist_ok=True)
    for module, entries in sorted(by_module.items()):
        name = module[len("bench_"):] if module.startswith("bench_") else module
        name = RESULT_ALIASES.get(name, name)
        counters, histograms, trace = _MODULE_STATS.get(module, ({}, {}, {}))
        payload = {
            "benchmark": module,
            "smoke": SMOKE,
            "python": platform.python_version(),
            "numpy": _numpy_version(),
            "engine_backend": _engine_backend(),
            "cpu_count": os.cpu_count(),
            "engine_stats": counters,
            "histograms": histograms,
            "trace": trace,
            "results": entries,
        }
        path = RESULTS_DIR / "BENCH_{}.json".format(name)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
