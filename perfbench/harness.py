"""Server subprocesses, the closed-loop load generator, and latency
statistics."""

import json
import os
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Environment overrides that would make a server measure something
#: other than the program's defaults.
SCRUBBED_ENV = ("REPRO_ENGINE", "REPRO_TRACE", "REPRO_SLOW_TXN_S")

_START_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 30.0


def scrubbed_env():
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = SRC
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Server:
    """One ``repro.net.server`` subprocess on an OS-chosen port.

    ``spans_out`` starts it through the traced launcher instead; the
    launcher writes its spans there when the server stops.
    """

    def __init__(self, workdir, label, extra_args=(), spans_out=None):
        self.label = label
        self.spans_out = spans_out
        args = ["--port", "0", "--telemetry-interval", "0"]
        args += list(extra_args)
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro.net.server"] + args
        else:
            cmd = [sys.executable, os.path.join(HERE, "launcher.py"),
                   spans_out, "--"] + args
        self.log_path = os.path.join(workdir, label + ".log")
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._log, text=True,
            env=scrubbed_env(), cwd=workdir)
        self.port = None

    def wait_ready(self):
        """Block until the server prints its address; returns self."""
        result = {}

        def read():
            result["line"] = self.proc.stdout.readline()

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(_START_TIMEOUT_S)
        line = result.get("line", "")
        if "serving on" not in line:
            raise RuntimeError("server {} did not start: {!r} (log {})".format(
                self.label, line, self.log_path))
        self.port = int(line.strip().rsplit(":", 1)[1])
        return self

    @property
    def endpoint(self):
        return "127.0.0.1:{}".format(self.port)

    @property
    def url(self):
        return "tcp://" + self.endpoint

    def set_tracing(self, on):
        """Turn the traced launcher's recording on or off and wait until
        it has taken effect."""
        marker = self.spans_out + (".on" if on else ".off")
        self.proc.send_signal(signal.SIGUSR1 if on else signal.SIGUSR2)
        deadline = time.monotonic() + 10.0
        while not os.path.exists(marker):
            if time.monotonic() > deadline:
                raise RuntimeError("launcher did not acknowledge the signal")
            time.sleep(0.005)

    def stop(self):
        """SIGTERM, wait for exit (kill past the budget), close pipes.
        Stopping a stopped server does nothing."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()

    def spans(self):
        with open(self.spans_out) as fh:
            return json.load(fh)


def start_servers(workdir, labels, args_for, spans=False):
    """Start one server per label, with ``args_for(label)`` as extra
    arguments (all spawned before any is awaited); returns them ready,
    or stops them all and re-raises."""
    servers = []
    try:
        for label in labels:
            spans_out = os.path.join(workdir, label + ".spans.json") \
                if spans else None
            servers.append(Server(workdir, label, args_for(label), spans_out))
        for server in servers:
            server.wait_ready()
    except BaseException:
        for server in servers:
            server.stop()
        raise
    return servers


# -- closed loop --------------------------------------------------------------


class Record:
    """One attempted operation as the client saw it (times in seconds
    of ``time.perf_counter``)."""

    __slots__ = ("kind", "start", "end", "ok", "error", "result")

    def __init__(self, kind, start, end, ok, error=None, result=None):
        self.kind = kind
        self.start = start
        self.end = end
        self.ok = ok
        self.error = error
        self.result = result

    @property
    def latency(self):
        return self.end - self.start


def closed_loop(clients, seconds, typed_errors, actions=(),
                clock=time.perf_counter):
    """Drive each ``(session, ops)`` in its own thread for ``seconds``:
    each thread sends its next op only after the previous one returned,
    and sends none after the deadline.  ``ops`` is an iterator of
    ``(kind, call)`` where ``call(session)`` performs the op.  An op
    raising one of ``typed_errors`` is a failed op; any other exception
    is recorded as an unexpected error.

    ``actions`` are ``(offset_s, fn)`` pairs that this thread runs, in
    order, ``offset_s`` after the start while the clients keep going.
    Returns ``(records, started)``, records in per-thread order.
    """
    per_thread = [[] for _ in clients]
    started = clock()
    deadline = started + seconds

    def worker(index, session, ops):
        out = per_thread[index]
        for kind, call in ops:
            t0 = clock()
            if t0 >= deadline:
                return
            try:
                result = call(session)
            except typed_errors as exc:
                out.append(Record(kind, t0, clock(), False,
                                  type(exc).__name__))
            except Exception as exc:  # counted, then reported by the run
                out.append(Record(kind, t0, clock(), False,
                                  "unexpected:{}:{}".format(
                                      type(exc).__name__, exc)))
            else:
                out.append(Record(kind, t0, clock(), True, result=result))

    threads = [threading.Thread(target=worker, args=(i, s, ops),
                                name="perfbench-client-{}".format(i))
               for i, (s, ops) in enumerate(clients)]
    for thread in threads:
        thread.start()
    try:
        for offset, action in actions:
            time.sleep(max(0.0, started + offset - clock()))
            action()
    finally:
        for thread in threads:
            thread.join()
    return [r for records in per_thread for r in records], started


def started_in(records, start, end):
    """The records of ops sent within ``[start, end)``."""
    return [r for r in records if start <= r.start < end]


# -- statistics ---------------------------------------------------------------


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values, q):
    """Nearest-rank ``q``-quantile (0 < q < 1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, -(-int(round(q * 1000)) * len(ordered) // 1000))
    return ordered[min(len(ordered), rank) - 1]


def tail_ok(n, q, beyond=10):
    """Whether ``n`` samples leave at least ``beyond`` above the
    nearest-rank ``q``-quantile — the rule for reporting a tail."""
    rank = -(-int(round(q * 1000)) * n // 1000)
    return n - rank >= beyond


def failed_share(records):
    """Failed (typed or unexpected) ops over ops attempted."""
    if not records:
        return 0.0
    return sum(1 for r in records if not r.ok) / len(records)
