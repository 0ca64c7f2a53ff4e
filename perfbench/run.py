"""The repo benchmark: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, run from the root of a checkout.

Starts the real server (``python -m repro.net.server``, or two shard
servers) as subprocesses, sets each up from the seed, drives the
workload as a closed loop over TCP, checks the final state, and prints
the metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 1`` the servers run under the traced launcher and the metrics
are the per-layer ones.  See README.md beside this file.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import layers  # noqa: E402

SETUP_REPEATS = 3
WARMUP_S = 2.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(workload_cls):
    import numpy

    from repro.engine.columnar import resolve_backend

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "backend": resolve_backend(None),
        "workload": workload_cls.name,
    }


def labels_for(workload, rep):
    if workload.shards:
        return ["r{}-shard-{}".format(rep, i) for i in range(workload.shards)]
    return ["r{}-server-0".format(rep)]


def start(workload, workdir, reps, traced=False):
    """Start ``reps`` sets of the workload's servers, all spawned before
    any is waited for; returns them grouped by set."""
    labels = [labels_for(workload, rep) for rep in range(reps)]
    servers = harness.start_servers(
        workdir, [label for group in labels for label in group],
        lambda label: workload.server_args(workdir, label), spans=traced)
    per_set = len(labels[0])
    return [servers[i:i + per_set] for i in range(0, len(servers), per_set)]


def timed_setups(workload, sets):
    """Set up every server set; returns the setup times and the admin
    session of the last set (the one the workload runs on).  Every
    other set is stopped."""
    times = []
    admin = None
    for index, servers in enumerate(sets):
        session = workload.connect([s.endpoint for s in servers])
        started = time.perf_counter()
        workload.setup(session)
        times.append(time.perf_counter() - started)
        if index == len(sets) - 1:
            admin = session
        else:
            session.close()
            for server in servers:
                server.stop()
    return times, admin


def run(args, workdir):
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit("unknown workload {!r}; choose from {}".format(
            args.workload, ", ".join(WORKLOADS)))
    workload_cls = WORKLOADS[args.workload]
    workload = workload_cls(args.seed)
    env = environment(workload_cls)
    reps = 1 if args.trace else SETUP_REPEATS
    sets = start(workload, workdir, reps, traced=bool(args.trace))
    servers = sets[-1]
    sessions = []
    try:
        setup_times, admin = timed_setups(workload, sets)
        sessions = [admin] + [
            workload.connect([s.endpoint for s in servers])
            for _ in range(workload.clients - 1)]
        streams = workload.streams(sessions)
        typed = layers.typed_errors()
        # one continuous loop: restarting the clients after a warm-up
        # would start them in step, and two writers in step share commit
        # batches for a while, which runs in a different regime
        if args.trace:
            report = layers.traced_run(servers, streams, WARMUP_S,
                                       args.seconds, typed)
            records = report.records
            window = (report.untraced_window[0], report.traced_window[1])
        else:
            records, t0 = harness.closed_loop(
                streams, WARMUP_S + args.seconds, typed)
            window = (t0 + WARMUP_S, t0 + WARMUP_S + args.seconds)
        errors = workload.check(admin, records)
    finally:
        for session in sessions:
            session.close()
        for group in sets:
            for server in group:
                server.stop()
    unexpected = [r.error for r in records
                  if not r.ok and r.error.startswith("unexpected:")]
    if unexpected:
        errors.append("{} unexpected errors, first: {}".format(
            len(unexpected), unexpected[0]))
    measured = harness.started_in(records, *window)
    if args.trace:
        metrics, table = report.metrics(servers), None
    else:
        table = layers.end_to_end_table(records, window, setup_times,
                                         workload.primary)
        metrics = layers.contract_metrics(table)
    return env, errors, measured, metrics, table


def _terminate(signum, frame):
    # unwind through the finally blocks that stop the servers
    sys.exit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    root = os.path.dirname(HERE)
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        print("perfbench: no program sources at {}".format(
            os.path.join(root, "src", "repro")), file=sys.stderr)
        return 2
    for name in harness.SCRUBBED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, os.path.join(root, "src"))
    work_root = os.path.join(root, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        env, errors, measured, metrics, table = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    print("environment: " + json.dumps(env, sort_keys=True))
    if table is not None:
        for line in layers.format_table(table):
            print(line)
    else:
        for name, (value, unit) in metrics.items():
            print("layer {:<42} {:>14.4f} {}".format(name, value, unit))
    for error in errors:
        print("CHECK FAILED: " + error)
    failed = sum(1 for r in measured if not r.ok)
    print(json.dumps({
        "correct": not errors,
        "attempted": len(measured),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
