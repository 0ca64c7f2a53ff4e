"""Traced server launcher: ``python perfbench/launcher.py SPANS_OUT -- ARGS``.

Wraps the layers' public callables with :mod:`tracing` recorders, then
runs ``repro.net.server.main(ARGS)`` unchanged.  Recording starts off;
``SIGUSR1`` turns it on and ``SIGUSR2`` off again, each touching
``SPANS_OUT + ".on"`` / ``".off"`` so the benchmark knows it took
effect.  When the server exits (``SIGTERM``),
the spans and call tallies are written to ``SPANS_OUT`` as JSON.
"""

import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def _batch_writes(args, kwargs):
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    return {"writes": sum(1 for item in batch if hasattr(item, "txn"))}


def install(recorder):
    """Wrap every traced callable of the program; returns nothing."""
    from repro.engine import dred, ivm, lftj, optimizer
    from repro.engine.columnar import ColumnarTrieJoin
    from repro.logiql import compiler
    from repro.net import protocol
    import repro.net.server  # noqa: F401  (loads the modules to patch)
    from repro.runtime import constraints, workspace
    from repro.service import service
    from repro.storage import pager
    from repro.txn import repair

    span = tracing.wrap_method
    span(recorder, constraints.ConstraintChecker, "check",
         "runtime.constraints.check")
    span(recorder, ivm.IncrementalEngine, "apply", "engine.ivm.apply")
    tracing.wrap_function(recorder, dred, "maintain_recursive_stratum",
                          "engine.dred.maintain")
    span(recorder, lftj.LeapfrogTrieJoin, "run", "engine.join.run",
         counted=True)
    span(recorder, ColumnarTrieJoin, "run", "engine.join.run", counted=True)
    span(recorder, optimizer.SamplingOptimizer, "__call__",
         "engine.optimizer")
    tracing.wrap_function(recorder, compiler, "compile_program",
                          "logiql.compile")
    tracing.wrap_function(recorder, workspace, "evaluate_query",
                          "runtime.query.evaluate")
    span(recorder, repair.PreparedTransaction, "execute", "txn.execute")
    span(recorder, repair.PreparedTransaction, "correct", "txn.correct")
    span(recorder, pager.CheckpointStore, "checkpoint",
         "storage.pager.checkpoint")
    tracing.wrap_function(recorder, protocol, "encode_frame", "net.codec",
                          counted=True)
    tracing.wrap_function(recorder, protocol, "decode_frame_body",
                          "net.codec", counted=True)
    # the service verbs are the envelopes whose uncovered self time is
    # the "unattributed" share; the committer's wait and batch spans
    # split an exec's latency into queueing and commit work
    svc = service.TransactionService
    for verb in ("exec", "query_result", "rows", "load", "addblock",
                 "shard_prepare", "shard_repair", "shard_commit",
                 "shard_abort", "shard_apply"):
        span(recorder, svc, verb, "service.verb." + verb)
    span(recorder, svc, "_await", "service.await")
    span(recorder, svc, "_process_batch", "service.batch",
         attrs=_batch_writes)
    span(recorder, svc, "_prepare", "service.prepare")


def main(argv):
    spans_out = argv[0]
    if len(argv) < 2 or argv[1] != "--":
        raise SystemExit("usage: launcher.py SPANS_OUT -- SERVER_ARGS...")
    recorder = tracing.Recorder()
    install(recorder)

    def _toggle(signum, frame):
        recorder.enabled = signum == signal.SIGUSR1
        with open(spans_out + (".on" if recorder.enabled else ".off"), "w"):
            pass

    signal.signal(signal.SIGUSR1, _toggle)
    signal.signal(signal.SIGUSR2, _toggle)
    from repro.net import server
    try:
        return server.main(argv[2:])
    finally:
        recorder.enabled = False
        with open(spans_out + ".tmp", "w") as fh:
            json.dump(recorder.dump(), fh)
        os.replace(spans_out + ".tmp", spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
