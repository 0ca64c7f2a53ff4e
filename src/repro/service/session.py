"""Client sessions: the user-facing handle onto a transaction service.

``repro.connect()`` is the one-line entry point::

    import repro

    session = repro.connect()
    session.addblock("inventory[s] = v -> string(s), int(v).")
    session.load("inventory", [("widget", 50)])
    session.exec('^inventory["widget"] = x <- '
                 'inventory@start["widget"] = y, x = y - 1.')
    print(session.query("_(s, v) <- inventory[s] = v."))
    session.close()

Many sessions can share one service (``service.session()`` or
``connect(service=...)``); each carries its own name (stamped onto
transaction names for tracing) and default timeout.  A session opened
by ``connect()`` *owns* its service and closes it with the session.
"""

import itertools

_session_counter = itertools.count(1)


class Session:
    """One client's handle onto a :class:`TransactionService`.

    Thin by design: sessions add naming, default deadlines, and
    lifecycle; all scheduling lives in the service.  Safe to use from
    the owning thread; open one session per client thread.
    """

    def __init__(self, service, *, name=None, timeout=None,
                 consistency="session", owns_service=False):
        self.service = service
        self.name = name or "session-{}".format(next(_session_counter))
        self.timeout = timeout
        #: accepted for surface parity with the tcp:// and cluster://
        #: transports; a single local service serves every read from
        #: the committed head, so all three modes are trivially honored
        self.consistency = consistency
        self._owns_service = owns_service
        self._txns = itertools.count(1)
        self._closed = False

    @property
    def watermark(self):
        """The service's commit watermark — the sequence number of the
        last committed write.  Local reads always see it (a single
        service has no replication lag), so this is the same
        read-your-writes anchor the network sessions track."""
        return getattr(self.service, "commit_watermark", 0)

    # -- verbs (all return TxnResult, except query which returns rows) --------

    def exec(self, source, *, timeout=None):
        """Submit a write transaction; blocks until committed/aborted."""
        self._check_open()
        return self.service.exec(
            source,
            timeout=self._timeout(timeout),
            name="{}/txn-{}".format(self.name, next(self._txns)),
        )

    def query(self, source, *, answer=None):
        """Lock-free read returning plain rows."""
        self._check_open()
        return self.service.query(source, answer=answer)

    def query_result(self, source, *, answer=None):
        """Lock-free read returning the structured :class:`TxnResult`."""
        self._check_open()
        return self.service.query_result(source, answer=answer)

    def addblock(self, source, *, name=None, timeout=None):
        """Install logic (serialized with the write stream)."""
        self._check_open()
        return self.service.addblock(
            source, name=name, timeout=self._timeout(timeout))

    def removeblock(self, name, *, timeout=None):
        """Remove a block (serialized with the write stream)."""
        self._check_open()
        return self.service.removeblock(name, timeout=self._timeout(timeout))

    def load(self, pred, tuples, remove=(), *, timeout=None):
        """Bulk load (serialized with the write stream)."""
        self._check_open()
        return self.service.load(
            pred, tuples, remove, timeout=self._timeout(timeout))

    def rows(self, pred):
        """Current rows of a predicate at the head snapshot."""
        self._check_open()
        return self.service.rows(pred)

    def checkpoint(self, *, timeout=None):
        """Write a durable checkpoint now (serialized with the write
        stream).  Requires the service to be configured with a
        ``checkpoint_path`` — e.g. ``repro.connect(checkpoint_path=p)``,
        which also recovers that path's state on startup."""
        self._check_open()
        return self.service.checkpoint(timeout=self._timeout(timeout))

    def telemetry(self, *, ring_tail=32):
        """Live telemetry snapshot (counters, gauges, histogram
        quantiles, span totals, the slow-transaction log, and the last
        ``ring_tail`` snapshot-ring entries) — served without touching
        the committer."""
        self._check_open()
        return self.service.telemetry(ring_tail=ring_tail)

    def explain(self, source, *, answer=None):
        """EXPLAIN ANALYZE for a query: returns an
        :class:`~repro.obs.ExplainReport` pairing the sampling
        optimizer's estimated per-rule join cost against the executed
        join's actual movement counts."""
        self._check_open()
        return self.service.explain(source, answer=answer)

    # -- lifecycle -------------------------------------------------------------

    def close(self):
        """Close the session (and its service, when it owns one)."""
        if self._closed:
            return
        self._closed = True
        if self._owns_service:
            self.service.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def _check_open(self):
        if self._closed:
            from repro.runtime.errors import ReproError

            raise ReproError("session {} is closed".format(self.name))

    def _timeout(self, timeout):
        return timeout if timeout is not None else self.timeout

    def __repr__(self):
        return "Session({}, {})".format(self.name,
                                        "closed" if self._closed else "open")


def connect(target=None, *, service=None, name=None, timeout=None,
            consistency="session", **config):
    """Open a session — the one entry point for every transport.

    ``target`` selects where the session lands; the verb surface is
    the same on all of them:

    * ``connect()`` — fresh in-memory workspace, fresh service (owned
      by the returned session: closing the session closes the service).
    * ``connect("/var/lib/repro/db")`` — durable local service: the
      path is the checkpoint directory, recovered on startup and
      checkpointed back on close.
    * ``connect("tcp://host:7411")`` — network session onto one
      :class:`~repro.net.server.ReproServer`
      (:class:`~repro.net.client.NetSession`).
    * ``connect("cluster://leader:7411,r1:7412,r2:7413")`` — cluster
      session over a replica fleet
      (:class:`~repro.net.cluster.ClusterSession`): writes routed to
      the leader, reads fanned out across replicas.
    * ``connect("shards://s0:7411,s1:7412,s2:7413", partition={...})``
      — coordinator over a horizontally sharded fleet
      (:class:`~repro.shard.ShardedWorkspace`): partitioned EDB
      predicates hash-fragmented across the shards, co-partitioned
      programs pushed shard-local, cross-shard writes committed by the
      repair circuit.  Endpoint order is shard order; each server's
      HELLO shard advertisement is checked against it.
    * ``connect(workspace)`` — fresh service over an existing
      :class:`~repro.runtime.workspace.Workspace`.
    * ``connect(service=svc)`` — another session on a shared service.

    ``consistency`` (``"strong"`` / ``"session"`` / ``"eventual"``) is
    honored by every transport: it governs which commit watermarks a
    read may be served from (see :mod:`repro.net.cluster`); a single
    local service serves every read from the committed head, so all
    modes hold there trivially.

    Extra keyword arguments go to the transport: ServiceConfig fields
    for local sessions (e.g. ``connect(max_pending=8, max_retries=10)``,
    ``connect(checkpoint_path=p)``), constructor options for the
    network sessions (timeouts, frame limits, failover policy).
    """
    from repro.net.protocol import CONSISTENCY_MODES

    if consistency not in CONSISTENCY_MODES:
        raise ValueError(
            "consistency must be one of {}, got {!r}".format(
                "/".join(CONSISTENCY_MODES), consistency))
    if isinstance(target, str):
        if service is not None:
            raise TypeError(
                "pass either a target url/path or service=, not both")
        if target.startswith("tcp://"):
            from repro.net.client import NetSession

            host, _, port = target[len("tcp://"):].rpartition(":")
            if not host or not port.isdigit():
                raise ValueError(
                    "tcp target must be tcp://host:port, got {!r}".format(
                        target))
            return NetSession(host, int(port), name=name, timeout=timeout,
                              consistency=consistency, **config)
        if target.startswith("cluster://"):
            from repro.net.cluster import ClusterSession

            endpoints = [
                e for e in target[len("cluster://"):].split(",") if e.strip()]
            return ClusterSession(endpoints, name=name, timeout=timeout,
                                  consistency=consistency, **config)
        if target.startswith("shards://"):
            from repro.shard import ShardedWorkspace

            endpoints = [
                e for e in target[len("shards://"):].split(",") if e.strip()]
            if not endpoints:
                raise ValueError(
                    "shards target must list endpoints: "
                    "shards://h1:p1,h2:p2,...")
            return ShardedWorkspace.connect(endpoints, **config)
        # a plain string is a local checkpoint directory
        config.setdefault("checkpoint_path", target)
        target = None

    from repro.service.config import ServiceConfig
    from repro.service.service import TransactionService

    owns = service is None
    if service is None:
        cfg = ServiceConfig(**config)
        service = TransactionService(target, config=cfg)
    elif config:
        raise TypeError(
            "config kwargs {} ignored when an existing service is passed".format(
                sorted(config)))
    return Session(service, name=name, timeout=timeout,
                   consistency=consistency, owns_service=owns)
