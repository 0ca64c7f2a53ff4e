"""repro.net — serve a repro workspace over TCP.

The network layer has five pieces, one module each:

* :mod:`repro.net.protocol` — the length-prefixed, versioned binary
  wire format.  Frames carry values in the pager's canonical codec
  (the same deterministic encoding checkpoints use), and server-side
  failures travel as *typed error frames* that reconstruct the exact
  :class:`~repro.runtime.errors.ReproError` subclass client-side.
* :mod:`repro.net.server` — an asyncio TCP server fronting a
  :class:`~repro.service.TransactionService`: per-connection sessions,
  request pipelining with per-connection bounds, chunked streaming of
  large query results, and graceful drain on SIGTERM.  Run one with
  ``python -m repro.net.server --checkpoint-path DIR``.
* :mod:`repro.net.client` — the blocking client:
  ``repro.connect("tcp://host:port")`` returns a :class:`NetSession`
  with the same verb surface and result shapes as an in-process
  :class:`~repro.service.session.Session`, every response stamped
  with the serving commit watermark.
* :mod:`repro.net.replica` — checkpoint-shipping read replicas:
  a :class:`Replica` Merkle-delta-syncs the leader's durable
  checkpoints (fetching only the O(log n) records a small change
  perturbs), serves reads over the *same* TCP surface as the leader,
  follows via long-poll heartbeats, and can be promoted to leader on
  failover.
* :mod:`repro.net.cluster` — the fleet client:
  ``repro.connect("cluster://leader,replica1,replica2")`` returns a
  :class:`ClusterSession` routing writes to the leader and fanning
  reads across replicas with session-consistency (read-your-writes)
  enforced from the watermark stamps.
"""

from repro.net.client import NetSession
from repro.net.cluster import ClusterSession
from repro.net.protocol import (
    DEFAULT_PORT,
    PROTOCOL_VERSION,
    ConnectionLost,
    LeaderUnavailable,
    NetError,
    ProtocolError,
    ReplicaReadOnly,
    StaleRead,
)
from repro.net.replica import Replica
from repro.net.server import ReproServer

__all__ = [
    "DEFAULT_PORT",
    "PROTOCOL_VERSION",
    "ClusterSession",
    "ConnectionLost",
    "LeaderUnavailable",
    "NetError",
    "NetSession",
    "ProtocolError",
    "Replica",
    "ReplicaReadOnly",
    "ReproServer",
    "StaleRead",
]
