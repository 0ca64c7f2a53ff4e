"""The uniform transaction result (the redesigned verb surface).

Every transaction verb — ``Workspace.exec`` / ``load`` / ``addblock`` /
``removeblock`` / ``query_result``, and the service commit path — now
returns one :class:`TxnResult` carrying:

* ``status`` — ``"committed"`` (the only status a Workspace verb can
  return; aborts raise) or, through the service, the terminal status of
  a scheduled transaction;
* ``kind`` — which verb produced it;
* ``deltas`` — the applied base-predicate deltas (``{pred: Delta}``);
* ``rows`` — the answer rows for query-shaped verbs, else ``None``;
* ``stats`` — the engine counters bumped inside this transaction's
  window (plan-cache hits, join movement, IVM work, ...);
* ``span_id`` — the id of the transaction's root tracing span when
  tracing was on, else ``None``;
* ``block`` — the block name for ``addblock``/``removeblock``;
* ``attempts`` / ``repairs`` — service-path scheduling metadata (how
  many executions were needed, how many repair merges were absorbed).
"""

from dataclasses import dataclass, field


@dataclass(eq=False)
class TxnResult:
    """Structured outcome of one committed transaction."""

    status: str = "committed"
    kind: str = "exec"
    deltas: dict = field(default_factory=dict)
    rows: list = None
    stats: dict = field(default_factory=dict)
    span_id: int = None
    block: str = None
    attempts: int = 1
    repairs: int = 0
    latency_s: float = None

    @property
    def committed(self):
        """True when the transaction reached the head."""
        return self.status == "committed"

    def changed_predicates(self):
        """Sorted names of the base predicates this transaction moved."""
        return sorted(self.deltas)

    def to_dict(self):
        """JSON-safe summary (deltas reduced to per-predicate counts)."""
        return {
            "status": self.status,
            "kind": self.kind,
            "deltas": {
                pred: {"added": len(d.added), "removed": len(d.removed)}
                for pred, d in self.deltas.items()
            },
            "rows": len(self.rows) if self.rows is not None else None,
            "span_id": self.span_id,
            "block": self.block,
            "attempts": self.attempts,
            "repairs": self.repairs,
            "latency_s": self.latency_s,
        }

    def __repr__(self):
        bits = ["status={!r}".format(self.status), "kind={!r}".format(self.kind)]
        if self.block is not None:
            bits.append("block={!r}".format(self.block))
        if self.deltas:
            bits.append("deltas=[{}]".format(", ".join(sorted(self.deltas))))
        if self.rows is not None:
            bits.append("rows={}".format(len(self.rows)))
        if self.attempts != 1:
            bits.append("attempts={}".format(self.attempts))
        if self.repairs:
            bits.append("repairs={}".format(self.repairs))
        return "TxnResult({})".format(", ".join(bits))
