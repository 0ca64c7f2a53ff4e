"""Metric definitions: the end-to-end table and the traced per-layer run."""

import math
import time

import harness
import tracing

WRITE_KINDS = ("commit", "delete_commit", "cross_commit")
QUERY_KINDS = ("read", "join_query", "scan_query")

#: The end-to-end metrics every workload reports in its result line (the
#: ``end_to_end`` list of BENCHMARK.json).  The full table printed
#: before the result line has every metric that applies.
CONTRACT = ("setup_s", "ops_per_s", "primary_op_p50_ms")

#: The per-layer metrics of a traced run (the ``per_layer`` list of
#: BENCHMARK.json): name, unit, which direction is better.
PER_LAYER = (
    ("runtime.constraints.check_ms_per_commit", "ms", "lower"),
    ("runtime.constraints.join_runs_per_commit", "count", "lower"),
    ("runtime.query.evaluate_ms_per_query", "ms", "lower"),
    ("engine.ivm.apply_ms_per_commit", "ms", "lower"),
    ("engine.dred.maintain_ms_per_commit", "ms", "lower"),
    ("engine.join.run_ms_per_query", "ms", "lower"),
    ("engine.join.runs_per_op", "count", "lower"),
    ("engine.optimizer.ms_per_query", "ms", "lower"),
    ("engine.plancache.hit_ratio", "ratio", "higher"),
    ("logiql.compile_ms_per_op", "ms", "lower"),
    ("txn.execute_ms_per_commit", "ms", "lower"),
    ("txn.correct_ms_per_commit", "ms", "lower"),
    ("service.wait_ms_per_commit", "ms", "lower"),
    ("service.batch_size_mean", "count", "higher"),
    ("service.prepare_cache.hit_ratio", "ratio", "higher"),
    ("service.repairs_per_commit", "count", "lower"),
    ("service.retries_per_commit", "count", "lower"),
    ("storage.pager.checkpoint_ms", "ms", "lower"),
    ("storage.pager.checkpoint_share", "ratio", "lower"),
    ("storage.pager.bytes_written_per_commit", "bytes", "lower"),
    ("net.client_overhead_ms", "ms", "lower"),
    ("net.bytes_per_op", "bytes", "lower"),
    ("net.codec_ms_per_op", "ms", "lower"),
    ("shard.prepare_ms", "ms", "lower"),
    ("shard.repair_ms", "ms", "lower"),
    ("shard.commit_ms", "ms", "lower"),
    ("shard.round_trips_per_cross_commit", "count", "lower"),
    ("shard.single_shard_share", "ratio", "higher"),
    ("trace.unattributed_ms_per_op", "ms", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def typed_errors():
    """The errors a client is told to expect under load: they count as
    failed ops, not as a broken run."""
    from repro.runtime.errors import ConflictError, Overloaded, TxnTimeout
    return (Overloaded, ConflictError, TxnTimeout)


# -- end to end ---------------------------------------------------------------


def _latencies_ms(records, kinds):
    """Latencies of ops of ``kinds``; a failed op misses every limit, so
    it enters as infinity."""
    return [r.latency * 1e3 if r.ok else math.inf
            for r in records if r.kind in kinds]


def completed_rate(records, window, kinds=WRITE_KINDS + QUERY_KINDS):
    """``(ops/s, n)`` over the ``n`` successful ops of ``kinds`` that
    completed within ``window``: the rate between the first and the last
    completion, which is not quantized to whole ops per window."""
    start, end = window
    ends = sorted(r.end for r in records
                  if r.ok and r.kind in kinds and start <= r.end < end)
    n = len(ends)
    if n > 1 and ends[-1] > ends[0]:
        return (n - 1) / (ends[-1] - ends[0]), n
    return n / (end - start), n


def end_to_end_table(records, window, setup_times, primary):
    """``{name: (value, unit, samples)}`` for every metric that applies
    to the ops of ``records`` in ``window``: rates count ops completed
    in it, latencies are of ops sent in it.  A p90 is listed only with
    at least ten samples beyond it.  ``primary`` is the op kind the
    workload exists to measure."""
    table = {"setup_s": (harness.median(setup_times), "s", len(setup_times))}
    sent = harness.started_in(records, *window)

    def rate(name, kinds):
        value, n = completed_rate(records, window, kinds)
        if n:
            table[name] = (value, "1/s", n)

    def quantiles(prefix, kinds, tail=True):
        samples = _latencies_ms(sent, kinds)
        if not samples:
            return
        table[prefix + "_p50_ms"] = (
            harness.percentile(samples, 0.5), "ms", len(samples))
        if tail and harness.tail_ok(len(samples), 0.9):
            table[prefix + "_p90_ms"] = (
                harness.percentile(samples, 0.9), "ms", len(samples))

    rate("ops_per_s", WRITE_KINDS + QUERY_KINDS)
    quantiles("primary_op", (primary,))
    rate("commits_per_s", WRITE_KINDS)
    quantiles("commit", WRITE_KINDS)
    quantiles("cross_commit", ("cross_commit",), tail=False)
    quantiles("read", ("read",))
    rate("queries_per_s", QUERY_KINDS)
    quantiles("join_query", ("join_query",), tail=False)
    quantiles("scan_query", ("scan_query",), tail=False)
    table["failed_op_share"] = (harness.failed_share(sent), "ratio",
                                len(sent))
    return table


def contract_metrics(table):
    return {name: table[name][:2] for name in CONTRACT}


def format_table(table):
    return ["metric {:<22} {:>14.4f} {:<6} n={}".format(name, value, unit, n)
            for name, (value, unit, n) in table.items()]


# -- traced run ---------------------------------------------------------------


class TracedRun:
    """A ``--trace 1`` run: after the warm-up, half the time untraced,
    then half traced."""

    def __init__(self):
        self.records = None
        self.untraced = self.traced = None
        self.untraced_window = self.traced_window = None
        self.bench = tracing.Recorder()
        self.before = self.after = None
        self.bench_before = self.bench_after = None

    def metrics(self, servers):
        spans, counts = [], {}
        start, end = (int(t * 1e9) for t in self.traced_window)
        for index, server in enumerate(servers):
            dump = server.spans()
            # CLOCK_MONOTONIC is shared by every process on the host
            for span in dump["spans"]:
                if start <= span["start"] < end:
                    # span ids are per process: qualify them by server
                    span["sid"] = (index, span["sid"])
                    if span["parent"] is not None:
                        span["parent"] = (index, span["parent"])
                    spans.append(span)
            _merge_counts(counts, dump["counts"])
        return per_layer(self, spans, counts, len(servers))


def _merge_counts(into, counts):
    for name, (calls, ns) in counts.items():
        entry = into.setdefault(name, [0, 0])
        entry[0] += calls
        entry[1] += ns


def _wrap_bench(recorder):
    """Spans around the coordinator's shard calls and the client codec,
    in this process."""
    from repro.net import client, protocol

    for verb in ("shard_prepare", "shard_repair", "shard_commit",
                 "shard_abort", "shard_apply"):
        tracing.wrap_method(recorder, client.NetSession, verb,
                            "shard." + verb[len("shard_"):])
    tracing.wrap_function(recorder, protocol, "encode_frame", "net.codec",
                          counted=True)
    tracing.wrap_function(recorder, protocol, "decode_frame_body",
                          "net.codec", counted=True)


def _server_counters(probes):
    """Summed counters and histograms over every server."""
    counters, hists = {}, {}
    for probe in probes:
        tel = probe.telemetry(ring_tail=0)
        for key, value in tel["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for key, entry in tel["histograms"].items():
            acc = hists.setdefault(key, [0, 0.0])
            acc[0] += entry["count"]
            acc[1] += entry["sum"]
    return counters, hists


def traced_run(servers, streams, warmup, seconds, typed):
    """One continuous closed loop: warm-up, ``seconds / 2`` untraced,
    then the servers' recorders and this process's are switched on for
    the rest."""
    import repro
    from repro import stats

    run = TracedRun()
    _wrap_bench(run.bench)
    probes = [repro.connect(s.url) for s in servers]
    switched = []

    def switch_on():
        run.before = _server_counters(probes)
        run.bench_before = stats.snapshot()
        for server in servers:
            server.set_tracing(True)
        run.bench.enabled = True
        switched.append(time.perf_counter())

    try:
        run.records, t0 = harness.closed_loop(
            streams, warmup + seconds, typed,
            actions=[(warmup + seconds / 2, switch_on)])
        run.bench.enabled = False
        for server in servers:
            server.set_tracing(False)
        run.bench_after = stats.snapshot()
        run.after = _server_counters(probes)
    finally:
        for probe in probes:
            probe.close()
    end = t0 + warmup + seconds
    run.untraced_window = (t0 + warmup, t0 + warmup + seconds / 2)
    run.traced_window = (switched[0], end)
    run.untraced = harness.started_in(run.records, *run.untraced_window)
    run.traced = harness.started_in(run.records, *run.traced_window)
    return run


def _ratio(num, den):
    return num / den if den else 0.0


def union_ns(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def per_layer(run, spans, counts, n_servers):
    """``{name: (value, unit)}`` for every per-layer metric."""
    records = run.traced
    ops = len(records)
    ok = [r for r in records if r.ok]
    commits = sum(1 for r in ok if r.kind in WRITE_KINDS)
    cross = sum(1 for r in ok if r.kind == "cross_commit")
    queries = sum(1 for r in ok if r.kind in QUERY_KINDS)
    tot = tracing.totals(spans)
    bench_dump = run.bench.dump()
    bench_tot = tracing.totals(bench_dump["spans"])

    def ms(name, table=tot):
        return table.get(name, {}).get("total_ns", 0) / 1e6

    def calls(name, table=tot):
        return table.get(name, {}).get("calls", 0)

    c0, h0 = run.before
    c1, h1 = run.after

    def delta(key):
        return c1.get(key, 0) - c0.get(key, 0)

    def hist_mean(key):
        n = h1.get(key, [0, 0])[0] - h0.get(key, [0, 0])[0]
        return _ratio(h1.get(key, [0, 0])[1] - h0.get(key, [0, 0])[1], n)

    batch_cover_ms = sum(
        (s["end"] - s["start"]) / 1e6 * (s["attrs"] or {}).get("writes", 0)
        for s in spans if s["name"] == "service.batch")
    verbs = [(s["start"], s["end"]) for s in spans
             if s["name"].startswith("service.verb.")]
    # one server: its verb spans, summed (two clients' requests overlap);
    # several shards: the union, as the one coordinator's calls to the
    # shards run in parallel
    verb_ms = (union_ns(verbs) if n_servers > 1
               else sum(end - start for start, end in verbs)) / 1e6
    envelope_self_ms = sum(
        v["self_ns"] for k, v in tot.items()
        if k.startswith("service.verb.") or k == "service.batch") / 1e6
    client_ms = sum(r.latency for r in records) * 1e3
    results = [r.result[1] for r in ok if r.kind in WRITE_KINDS]
    repairs = sum(getattr(t, "repairs", 0) or 0 for t in results)
    retries = sum(max(0, (getattr(t, "attempts", 1) or 1) - 1)
                  for t in results)
    codec_ns = counts.get("net.codec", [0, 0])[1] + bench_dump["counts"].get(
        "net.codec", [0, 0])[1]
    plan_hits, plan_misses = delta("plan_cache.hits"), delta(
        "plan_cache.misses")
    bench_delta = {k: run.bench_after.get(k, 0) - run.bench_before.get(k, 0)
                   for k in run.bench_after}
    shard_calls = sum(v["calls"] for k, v in bench_tot.items()
                      if k.startswith("shard."))
    untraced_rate = completed_rate(run.records, run.untraced_window)[0]
    traced_rate = completed_rate(run.records, run.traced_window)[0]

    values = {
        "runtime.constraints.check_ms_per_commit": _ratio(
            ms("runtime.constraints.check"), commits),
        "runtime.constraints.join_runs_per_commit": _ratio(
            tracing.counted_within(spans, "runtime.constraints.check")[0],
            commits),
        "runtime.query.evaluate_ms_per_query": _ratio(
            ms("runtime.query.evaluate"), queries),
        "engine.ivm.apply_ms_per_commit": _ratio(
            ms("engine.ivm.apply"), commits),
        "engine.dred.maintain_ms_per_commit": _ratio(
            ms("engine.dred.maintain"), commits),
        "engine.join.run_ms_per_query": _ratio(
            tracing.counted_within(spans, "runtime.query.evaluate")[1] / 1e6,
            queries),
        "engine.join.runs_per_op": _ratio(
            counts.get("engine.join.run", [0, 0])[0], ops),
        "engine.optimizer.ms_per_query": _ratio(
            ms("engine.optimizer"), queries),
        "engine.plancache.hit_ratio": _ratio(
            plan_hits, plan_hits + plan_misses),
        "logiql.compile_ms_per_op": _ratio(ms("logiql.compile"), ops),
        "txn.execute_ms_per_commit": _ratio(ms("txn.execute"), commits),
        "txn.correct_ms_per_commit": _ratio(ms("txn.correct"), commits),
        "service.wait_ms_per_commit": _ratio(
            ms("service.await") - batch_cover_ms, commits),
        "service.batch_size_mean": hist_mean("service.batch.size"),
        "service.prepare_cache.hit_ratio": _ratio(
            delta("service.prepare_cache.hits"), calls("service.prepare")),
        "service.repairs_per_commit": _ratio(repairs, commits),
        "service.retries_per_commit": _ratio(retries, commits),
        "storage.pager.checkpoint_ms": _ratio(
            ms("storage.pager.checkpoint"), calls("storage.pager.checkpoint")),
        "storage.pager.checkpoint_share": _ratio(
            ms("storage.pager.checkpoint") / 1e3,
            run.traced_window[1] - run.traced_window[0]),
        "storage.pager.bytes_written_per_commit": _ratio(
            delta("pager.bytes_written"), commits),
        "net.client_overhead_ms": _ratio(client_ms - verb_ms, ops),
        "net.bytes_per_op": _ratio(
            delta("net.bytes_in") + delta("net.bytes_out"), ops),
        "net.codec_ms_per_op": _ratio(codec_ns / 1e6, ops),
        "shard.prepare_ms": _ratio(ms("shard.prepare", bench_tot), cross),
        "shard.repair_ms": _ratio(ms("shard.repair", bench_tot), cross),
        "shard.commit_ms": _ratio(ms("shard.commit", bench_tot), cross),
        "shard.round_trips_per_cross_commit": _ratio(shard_calls, cross),
        "shard.single_shard_share": _ratio(
            bench_delta.get("shard.single_shard_execs", 0), commits),
        "trace.unattributed_ms_per_op": _ratio(envelope_self_ms, ops),
        "trace.overhead": _ratio(untraced_rate, traced_rate),
    }
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}
