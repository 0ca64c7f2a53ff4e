"""The blocking client library: ``repro.connect("tcp://host:port")``.

A :class:`NetSession` is the network twin of the in-process
:class:`~repro.service.session.Session` — the *same verb surface*
(``exec`` / ``query`` / ``query_result`` / ``addblock`` /
``removeblock`` / ``load`` / ``rows`` / ``checkpoint`` / ``close``,
context-manager lifecycle) returning the *same shapes*
(:class:`~repro.runtime.result.TxnResult` with real
:class:`~repro.storage.relation.Delta` objects, plain row lists for
``query``), so code written against a local session runs unchanged
against a server:

    import repro

    session = repro.connect("tcp://db.example.com:7411")
    session.addblock("inventory[s] = v -> string(s), int(v).")
    session.exec('^inventory["widget"] = 5.')
    print(session.query("_(s, v) <- inventory[s] = v."))
    session.close()

Error fidelity: server-side failures arrive as typed error frames and
re-raise as the *same* :class:`~repro.runtime.errors.ReproError`
subclass with the same message and payload attributes (``preds`` on a
:class:`ConflictError`, ``retry_after_s`` on :class:`Overloaded`, ...),
so retry logic written for local sessions works over the wire.

Reconnect policy: the HELLO handshake hands the client the *service's*
backoff policy (max retries, base, cap).  Which verbs may transparently
reconnect and retry is not hard-coded here: it is derived from the
single verb registry in :mod:`repro.net.protocol` — read verbs
(``query`` / ``rows`` / ``stats`` / the sync ops / ...) retry under
that policy when the transport fails; write verbs (``exec``, DDL,
``load``) never auto-retry across a transport failure — the commit
status is unknown — and raise a typed
:class:`~repro.net.protocol.ConnectionLost` instead of hanging.

Consistency: every response is stamped with the server's **commit
watermark** (the sequence number of the last committed write the
serving checkpoint reflects), and the session tracks the highest
watermark it has ever observed in :attr:`NetSession.watermark`.  Under
the default ``consistency="session"`` a data read answered *below* the
session's own watermark — a replica that has not yet caught up to this
client's last write, or a leader restarted from an old checkpoint —
raises a typed :class:`~repro.net.protocol.StaleRead` rather than
silently returning stale rows (read-your-writes).  ``"eventual"``
accepts any watermark; ``"strong"`` additionally refuses data reads
answered by a non-leader.  The cluster client
(:class:`repro.net.cluster.ClusterSession`) builds its replica routing
and stale-retry policy on exactly these primitives.

Threading: like local sessions, one ``NetSession`` per thread.
"""

import itertools
import socket
import time

from repro import obs as _obs
from repro import stats as _stats
from repro.net.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    DEFAULT_PORT,
    F_CHUNK,
    F_ERROR,
    F_GOODBYE,
    F_HELLO,
    F_REQUEST,
    F_RESPONSE,
    CONSISTENCY_MODES,
    PROTOCOL_VERSION,
    ConnectionLost,
    FrameDecoder,
    ProtocolError,
    StaleRead,
    deltas_from_wire,
    deltas_to_wire,
    encode_frame,
    error_from_wire,
    result_from_wire,
    verb_spec,
)
from repro.runtime.errors import ReproError

_session_counter = itertools.count(1)

#: the data-read verbs the consistency mode guards; control verbs
#: (``ping`` / ``status`` / ``watch`` / the sync feed) always answer
#: from whatever the peer has — they are *how* staleness is measured
_CONSISTENT_READS = frozenset(("query", "rows", "explain"))

#: fallback reconnect policy until the server's HELLO supplies one
_DEFAULT_POLICY = {
    "max_retries": 5,
    "backoff_base_s": 0.05,
    "backoff_cap_s": 1.0,
}


class NetSession:
    """One client's blocking connection to a :class:`ReproServer`.

    Mirrors the local :class:`~repro.service.session.Session` verb
    surface; every verb blocks until its response (or typed error)
    frame arrives.  Requests carry ids, so the transport supports
    pipelining — this synchronous client simply doesn't overlap its
    own calls.
    """

    def __init__(self, host="127.0.0.1", port=DEFAULT_PORT, *, name=None,
                 timeout=None, consistency="session", connect_timeout_s=5.0,
                 socket_timeout_s=60.0,
                 max_frame_bytes=DEFAULT_MAX_FRAME_BYTES):
        if consistency not in CONSISTENCY_MODES:
            raise ValueError(
                "consistency must be one of {}, got {!r}".format(
                    "/".join(CONSISTENCY_MODES), consistency))
        self.host = host
        self.port = port
        self.name = name or "net-session-{}".format(next(_session_counter))
        self.timeout = timeout
        self.consistency = consistency
        self.connect_timeout_s = connect_timeout_s
        self.socket_timeout_s = socket_timeout_s
        self.max_frame_bytes = max_frame_bytes
        self.policy = dict(_DEFAULT_POLICY)
        self._server_trace = False
        #: highest commit watermark this session has ever *observed* in
        #: a response — monotone, survives reconnects, the anchor of
        #: session consistency (read-your-writes)
        self.watermark = 0
        #: watermark stamped on the most recent response (None before
        #: the first verb); unlike :attr:`watermark` this can go *down*
        #: when a later read lands on a laggier server
        self.last_watermark = None
        #: role / watermark the connected server advertised in HELLO
        self.server_role = None
        self.server_watermark = 0
        #: ``{"index": i, "count": n}`` when the server is a member of
        #: a sharded fleet (advertised in HELLO), else ``None``
        self.server_shard = None
        self._sock = None
        self._decoder = None
        self._inbox = []
        self._ids = itertools.count(1)
        self._closed = False
        self._connect()

    # -- transport -------------------------------------------------------------

    def _connect(self):
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout_s)
        except OSError as exc:
            raise ConnectionLost(
                "cannot connect to {}:{}: {}".format(
                    self.host, self.port, exc)) from exc
        sock.settimeout(self.socket_timeout_s)
        self._sock = sock
        self._decoder = FrameDecoder(max_frame_bytes=self.max_frame_bytes)
        self._inbox = []
        _stats.bump("net.client.connects")
        self._send_raw(encode_frame(F_HELLO, {
            "proto": PROTOCOL_VERSION, "client": self.name}))
        ftype, payload = self._next_frame()
        if ftype == F_ERROR:
            raise error_from_wire(payload.get("error") or {})
        if ftype != F_HELLO:
            raise ProtocolError(
                "expected HELLO from server, got {}".format(ftype))
        policy = payload.get("policy") or {}
        self.policy = {**_DEFAULT_POLICY, **policy}
        # only servers that advertise the capability ever see trace_ctx,
        # so connecting to an old peer degrades to untraced requests
        self._server_trace = bool(payload.get("trace"))
        self.server_role = payload.get("role", "leader")
        # the server's HELLO watermark is advertisement, not history:
        # it must NOT raise self.watermark, or a fresh session against
        # a current leader would flag every replica read as stale
        self.server_watermark = int(payload.get("watermark") or 0)
        self.server_shard = payload.get("shard")

    def _drop_connection(self):
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass
        self._sock = None
        self._decoder = None
        self._inbox = []

    def _send_raw(self, data):
        try:
            self._sock.sendall(data)
            _stats.bump("net.client.bytes_out", len(data))
        except OSError as exc:
            raise ConnectionLost(
                "send failed to {}:{}: {}".format(
                    self.host, self.port, exc)) from exc

    def _next_frame(self):
        if self._inbox:
            return self._inbox.pop(0)
        while True:
            try:
                data = self._sock.recv(65536)
            except socket.timeout as exc:
                raise ConnectionLost(
                    "no response from {}:{} within {}s".format(
                        self.host, self.port, self.socket_timeout_s)) from exc
            except OSError as exc:
                raise ConnectionLost(
                    "recv failed from {}:{}: {}".format(
                        self.host, self.port, exc)) from exc
            if not data:
                if self._decoder.buffered:
                    _stats.bump("net.client.torn_frames")
                    raise ConnectionLost(
                        "connection to {}:{} closed mid-frame ({} bytes of "
                        "a partial frame buffered)".format(
                            self.host, self.port, self._decoder.buffered))
                raise ConnectionLost(
                    "connection to {}:{} closed by server".format(
                        self.host, self.port))
            _stats.bump("net.client.bytes_in", len(data))
            frames = self._decoder.feed(data)
            if frames:
                self._inbox.extend(frames[1:])
                return frames[0]

    # -- request/response ------------------------------------------------------

    def _call(self, op, **args):
        self._check_open()
        # retryability is the registry's call, not per-call-site flags:
        # read verbs reconnect-and-retry, write verbs never do
        idempotent = verb_spec(op).retryable
        with _obs.span("net.call", op=op) as span_:
            return self._call_inner(op, idempotent, args, span_)

    def _call_inner(self, op, idempotent, args, span_):
        attempt = 0
        while True:
            attempt += 1
            try:
                if self._sock is None:
                    self._connect()
                outcome = self._roundtrip(op, args)
                if span_ is not None:
                    span_.attrs["attempts"] = attempt
                return outcome
            except (ConnectionLost, ProtocolError) as exc:
                self._drop_connection()
                max_retries = self.policy["max_retries"]
                if not idempotent or attempt > max_retries:
                    if isinstance(exc, ProtocolError):
                        raise
                    raise ConnectionLost(
                        "{} (op {}{})".format(
                            exc, op,
                            "" if idempotent else
                            "; not retried: commit status unknown")) from exc
                _stats.bump("net.client.reconnects")
                self._backoff(attempt)

    def _roundtrip(self, op, args):
        rid = next(self._ids)
        request = {"id": rid, "op": op, "args": args}
        if self._server_trace:
            ctx = _obs.trace_context()
            if ctx is not None:
                request["trace_ctx"] = ctx
        self._send_raw(encode_frame(
            F_REQUEST, request, max_frame_bytes=self.max_frame_bytes))
        _stats.bump("net.client.requests")
        rows = []
        while True:
            ftype, payload = self._next_frame()
            if ftype == F_CHUNK and payload.get("id") == rid:
                rows.extend(payload.get("rows") or ())
                continue
            if ftype == F_RESPONSE and payload.get("id") == rid:
                trace = payload.get("trace")
                if trace is not None:
                    # stitch the server's span tree under our net.call
                    # span: one client transaction, one trace
                    _obs.graft(trace, origin="server")
                self._observe_watermark(op, payload.get("watermark"))
                return payload.get("result") or {}, rows
            if ftype == F_ERROR:
                if payload.get("id") in (rid, None):
                    raise error_from_wire(payload.get("error") or {})
                continue  # stale error for an abandoned request id
            if ftype == F_GOODBYE:
                # server draining: the socket will close; surface it as
                # a transport failure so idempotent verbs reconnect
                raise ConnectionLost(
                    "server {}:{} is draining".format(self.host, self.port))
            raise ProtocolError(
                "unexpected frame {} for request {}".format(ftype, rid))

    def _backoff(self, attempt):
        base = self.policy["backoff_base_s"] * (2 ** (attempt - 1))
        time.sleep(min(self.policy["backoff_cap_s"], base))

    def _observe_watermark(self, op, wm):
        """Session-consistency bookkeeping on every stamped response.

        A data read below the session's own watermark is refused
        *before* the result reaches the caller; the error is typed
        (:class:`StaleRead`) so the cluster client can route the retry
        instead of surfacing stale rows.
        """
        if wm is None:  # pre-watermark peer: nothing to enforce
            return
        wm = int(wm)
        self.last_watermark = wm
        if op in _CONSISTENT_READS:
            if self.consistency == "strong" and self.server_role not in (
                    None, "leader"):
                _stats.bump("net.client.stale_reads")
                raise StaleRead(
                    "strong-consistency read answered by {} {}:{} "
                    "(watermark {}); route it to the leader".format(
                        self.server_role, self.host, self.port, wm))
            if self.consistency != "eventual" and wm < self.watermark:
                _stats.bump("net.client.stale_reads")
                raise StaleRead(
                    "read answered at watermark {} but this session has "
                    "observed {}; {}:{} is behind".format(
                        wm, self.watermark, self.host, self.port))
        if wm > self.watermark:
            self.watermark = wm

    # -- verbs (the Session surface) -------------------------------------------

    def exec(self, source, *, timeout=None):
        """Submit a write transaction; blocks until committed/aborted."""
        result, _ = self._call(
            "exec", source=source, timeout=self._timeout(timeout),
            name="{}/txn".format(self.name))
        return result_from_wire(result["txn"])

    def query(self, source, *, answer=None):
        """Lock-free read returning plain rows (evaluated on the server's
        head snapshot; large answers stream back in bounded chunks)."""
        return self.query_result(source, answer=answer).rows

    def query_result(self, source, *, answer=None):
        """Lock-free read returning the structured :class:`TxnResult`."""
        result, rows = self._call("query", source=source, answer=answer)
        return result_from_wire(result["txn"], rows=rows)

    def addblock(self, source, *, name=None, timeout=None):
        """Install logic (serialized with the server's write stream)."""
        result, _ = self._call(
            "addblock", source=source, name=name,
            timeout=self._timeout(timeout))
        return result_from_wire(result["txn"])

    def removeblock(self, name, *, timeout=None):
        """Remove a block (serialized with the write stream)."""
        result, _ = self._call(
            "removeblock", name=str(name), timeout=self._timeout(timeout))
        return result_from_wire(result["txn"])

    def load(self, pred, tuples, remove=(), *, timeout=None):
        """Bulk load (serialized with the write stream)."""
        result, _ = self._call(
            "load", pred=pred, tuples=[tuple(t) for t in tuples],
            remove=[tuple(t) for t in remove],
            timeout=self._timeout(timeout))
        return result_from_wire(result["txn"])

    def rows(self, pred):
        """Current rows of a predicate at the server's head snapshot."""
        result, _ = self._call("rows", pred=pred)
        return result["rows"]

    def checkpoint(self, *, timeout=None):
        """Ask the server to write a durable checkpoint now; returns the
        pager's counter dict (requires the server to be configured with
        a checkpoint path)."""
        result, _ = self._call(
            "checkpoint", timeout=self._timeout(timeout))
        return result["counters"]

    def stats(self):
        """The server's service counters (admission window, commits,
        queue depth, ...)."""
        result, _ = self._call("stats")
        return result["stats"]

    def telemetry(self, *, ring_tail=32):
        """The server's live telemetry snapshot (counters, gauges,
        histogram quantiles, span totals, slow-transaction log, and the
        last ``ring_tail`` snapshot-ring entries)."""
        result, _ = self._call("telemetry", ring_tail=ring_tail)
        return result["telemetry"]

    def explain(self, source, *, answer=None):
        """EXPLAIN ANALYZE on the server: returns an
        :class:`~repro.obs.ExplainReport` pairing the optimizer's
        estimated per-rule join cost with the executed join's actual
        movement counts."""
        result, _ = self._call(
            "explain", source=source, answer=answer)
        return _obs.ExplainReport.from_dict(result["explain"])

    def ping(self):
        """Round-trip latency in seconds."""
        started = time.perf_counter()
        self._call("ping")
        return time.perf_counter() - started

    # -- fleet surface (roles, watermarks, heartbeat) --------------------------

    def status(self):
        """The server's fleet status: ``role`` (leader/replica),
        ``watermark`` (last committed write it reflects),
        ``checkpoint_seq`` / ``checkpoint_watermark`` (the durable
        frontier), and ``endpoint``."""
        result, _ = self._call("status")
        return result["status"]

    def watch(self, seq=0, *, timeout_s=10.0):
        """Long-poll until the server owns a checkpoint with sequence
        number above ``seq``, or ``timeout_s`` elapses (the server
        clamps it to its ``net_watch_cap_s``); returns the server's
        :meth:`status` either way.  One blocked round-trip doubles as
        change notification *and* liveness heartbeat — this is how
        replicas follow the leader without fixed-interval polling."""
        result, _ = self._call("watch", seq=seq, timeout_s=timeout_s)
        return result["status"]

    def promote(self):
        """Promote the peer to leader (idempotent on an existing
        leader); returns its post-promotion :meth:`status`."""
        result, _ = self._call("promote")
        return result["status"]

    # -- replica feed (used by repro.net.replica) ------------------------------

    def sync_manifest(self):
        """The leader's committed checkpoint manifest."""
        result, _ = self._call("sync_manifest")
        return result["manifest"]

    def sync_records(self, addrs):
        """Fetch content-addressed records by address; returns
        ``[(addr, payload), ...]`` for the addresses the leader holds."""
        result, _ = self._call("sync_records", addrs=list(addrs))
        return result["records"]

    # -- cross-shard commit circuit (used by repro.shard) ----------------------

    def shard_prepare(self, source, *, name=None, partition=None,
                      shard_index=None, shard_count=None, preflight=True,
                      timeout=None):
        """Execute a transaction on the shard's snapshot and park it;
        returns ``{"token", "effects", "foreign", "watermark"}`` with
        the deltas decoded back into :class:`Delta` maps."""
        result, _ = self._call(
            "shard_prepare", source=source, name=name, partition=partition,
            shard_index=shard_index, shard_count=shard_count,
            preflight=preflight, timeout=self._timeout(timeout))
        return {
            "token": result["token"],
            "effects": deltas_from_wire(result["effects"]),
            "foreign": deltas_from_wire(result["foreign"]),
            "watermark": result["watermark"],
        }

    def shard_repair(self, token, corrections, *, partition=None,
                     shard_index=None, shard_count=None):
        """Repair a parked shard transaction against sibling shards'
        corrections; returns its re-split effects."""
        result, _ = self._call(
            "shard_repair", token=token,
            corrections=deltas_to_wire(corrections or {}),
            partition=partition,
            shard_index=shard_index, shard_count=shard_count)
        return {
            "effects": deltas_from_wire(result["effects"]),
            "foreign": deltas_from_wire(result["foreign"]),
            "repairs": result["repairs"],
        }

    def shard_commit(self, token, deltas, *, timeout=None):
        """Commit a parked shard transaction with the coordinator's
        final composed deltas."""
        result, _ = self._call(
            "shard_commit", token=token,
            deltas=deltas_to_wire(deltas or {}),
            timeout=self._timeout(timeout))
        return result_from_wire(result["txn"])

    def shard_abort(self, token):
        """Drop a parked shard transaction (idempotent)."""
        result, _ = self._call("shard_abort", token=token)
        return result

    def shard_apply(self, deltas, *, timeout=None):
        """Apply raw deltas on the shard (serialized with its write
        stream; IVM + constraint checked)."""
        result, _ = self._call(
            "shard_apply", deltas=deltas_to_wire(deltas or {}),
            timeout=self._timeout(timeout))
        return result_from_wire(result["txn"])

    # -- lifecycle -------------------------------------------------------------

    def close(self):
        """Close the connection (a GOODBYE, then the socket)."""
        if self._closed:
            return
        self._closed = True
        if self._sock is not None:
            try:
                self._send_raw(encode_frame(F_GOODBYE, {"client": self.name}))
            except ConnectionLost:
                pass
            self._drop_connection()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def _check_open(self):
        if self._closed:
            raise ReproError("session {} is closed".format(self.name))

    def _timeout(self, timeout):
        return timeout if timeout is not None else self.timeout

    def __repr__(self):
        return "NetSession({}:{}, {}, {})".format(
            self.host, self.port, self.name,
            "closed" if self._closed else "open")
