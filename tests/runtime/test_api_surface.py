"""Snapshot of the public API surface.

These tests pin the names exported from ``repro`` / ``repro.service``,
the :class:`TxnResult` field set, and the error taxonomy, so accidental
surface changes fail loudly instead of breaking clients."""

import dataclasses

import pytest

import repro
from repro import (
    ConflictError,
    ConstraintViolation,
    Overloaded,
    ReproError,
    TransactionAborted,
    TxnResult,
    TxnTimeout,
    UnknownPredicate,
    Workspace,
)


class TestExports:
    def test_top_level_all(self):
        assert set(repro.__all__) == {
            "Workspace",
            "Workbook",
            "connect",
            "TxnResult",
            "ReproError",
            "TransactionAborted",
            "ConstraintViolation",
            "ConflictError",
            "TxnTimeout",
            "Overloaded",
            "UnknownPredicate",
            "__version__",
        }

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_service_exports(self):
        import repro.service as service

        assert set(service.__all__) == {
            "TransactionService",
            "ServiceConfig",
            "Session",
            "connect",
            "AdmissionController",
            "Ticket",
            "FaultInjector",
            "InjectedCrash",
        }
        for name in service.__all__:
            assert getattr(service, name) is not None

    def test_connect_is_the_session_entry_point(self):
        session = repro.connect()
        try:
            assert type(session).__name__ == "Session"
        finally:
            session.close()


class TestErrorTaxonomy:
    def test_hierarchy(self):
        assert issubclass(TransactionAborted, ReproError)
        assert issubclass(ConstraintViolation, TransactionAborted)
        assert issubclass(ConflictError, TransactionAborted)
        assert issubclass(TxnTimeout, TransactionAborted)
        assert issubclass(Overloaded, ReproError)
        assert issubclass(UnknownPredicate, ReproError)

    def test_compat_mixins(self):
        # pre-0.2 client code caught stdlib types; keep that working
        assert issubclass(TransactionAborted, RuntimeError)
        assert issubclass(Overloaded, RuntimeError)
        assert issubclass(UnknownPredicate, KeyError)

    def test_payloads(self):
        assert ConflictError("c", preds=["p"]).preds == ["p"]
        assert TxnTimeout("t", deadline_s=1.5).deadline_s == 1.5
        error = Overloaded("o", depth=9, limit=8)
        assert (error.depth, error.limit) == (9, 8)


class TestTxnResult:
    def test_field_snapshot(self):
        fields = {f.name for f in dataclasses.fields(TxnResult)}
        assert fields == {
            "status",
            "kind",
            "deltas",
            "rows",
            "stats",
            "span_id",
            "block",
            "attempts",
            "repairs",
            "latency_s",
        }

    def test_workspace_verbs_return_results(self):
        ws = Workspace()
        added = ws.addblock("p(x) -> int(x).", name="b1")
        assert isinstance(added, TxnResult)
        assert added.kind == "addblock" and added.block == "b1"
        loaded = ws.load("p", [(1,)])
        assert isinstance(loaded, TxnResult) and loaded.committed
        result = ws.exec("+p(2).")
        assert isinstance(result, TxnResult)
        assert result.kind == "exec" and result.status == "committed"
        assert "p" in result.deltas
        assert result.changed_predicates() == ["p"]
        assert result.latency_s is not None and result.latency_s >= 0

    def test_query_result(self):
        ws = Workspace()
        ws.addblock("p(x) -> int(x).", name="b1")
        ws.load("p", [(1,), (2,)])
        result = ws.query_result("_(x) <- p(x).")
        assert isinstance(result, TxnResult)
        assert result.kind == "query"
        assert sorted(result.rows) == [(1,), (2,)]
        # plain query still returns bare rows
        assert sorted(ws.query("_(x) <- p(x).")) == [(1,), (2,)]

    def test_old_delta_dict_shape_is_gone(self):
        ws = Workspace()
        ws.addblock("p(x) -> int(x).", name="b1")
        result = ws.exec("+p(1).")
        with pytest.raises(TypeError):
            "p" in result
        with pytest.raises(TypeError):
            result["p"]

    def test_old_block_name_shape_is_gone(self):
        ws = Workspace()
        added = ws.addblock("p(x) -> int(x).", name="b7")
        assert (added == "b7") is False
        removed = ws.removeblock(added.block)
        assert removed.kind == "removeblock" and removed.block == "b7"

    def test_to_dict(self):
        ws = Workspace()
        ws.addblock("p(x) -> int(x).", name="b1")
        result = ws.exec("+p(1).")
        snapshot = result.to_dict()
        assert snapshot["status"] == "committed"
        assert snapshot["kind"] == "exec"
        assert "p" in snapshot["deltas"]


class TestNetSessionSurface:
    """The network session mirrors the local session: same verbs, same
    result shapes, so code written against one runs against the other."""

    SESSION_VERBS = (
        "exec", "query", "query_result", "addblock", "removeblock",
        "load", "rows", "checkpoint", "close", "__enter__", "__exit__",
    )

    def test_net_exports(self):
        import repro.net as net

        assert set(net.__all__) == {
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
        }
        for name in net.__all__:
            assert getattr(net, name) is not None

    def test_every_transport_has_every_session_verb(self):
        from repro.net import ClusterSession, NetSession
        from repro.service.session import Session

        for verb in self.SESSION_VERBS:
            assert callable(getattr(Session, verb)), verb
            assert callable(getattr(NetSession, verb)), verb
            assert callable(getattr(ClusterSession, verb)), verb

    def test_every_transport_tracks_a_watermark(self):
        # the session-consistency anchor is part of the surface: all
        # three transports expose the highest observed commit watermark
        from repro.net import ClusterSession

        with repro.connect() as session:
            assert session.watermark == 0
            session.addblock("p(x) -> int(x).")
            assert session.watermark > 0  # local writes advance it
        with ClusterSession(["127.0.0.1:7411"]) as cluster:
            assert cluster.watermark == 0  # nothing observed yet

    def test_net_errors_are_repro_errors(self):
        from repro.net import (
            ConnectionLost,
            LeaderUnavailable,
            NetError,
            ProtocolError,
            ReplicaReadOnly,
            StaleRead,
        )

        assert issubclass(NetError, ReproError)
        assert issubclass(ProtocolError, NetError)
        assert issubclass(ReplicaReadOnly, NetError)
        assert issubclass(ConnectionLost, NetError)
        assert issubclass(ConnectionLost, ConnectionError)
        assert issubclass(StaleRead, NetError)
        assert issubclass(LeaderUnavailable, NetError)

    def test_same_shapes_against_a_live_server(self):
        import repro.net
        from repro.service import TransactionService

        service = TransactionService()
        server = service.serve()
        local = repro.connect()
        try:
            remote = repro.connect(
                "tcp://{}:{}".format(server.host, server.port))
            for session in (local, remote):
                added = session.addblock("p(x) -> int(x).", name="b1")
                assert isinstance(added, TxnResult)
                assert added.kind == "addblock" and added.block == "b1"
                loaded = session.load("p", [(1,)])
                assert isinstance(loaded, TxnResult) and loaded.committed
                result = session.exec("+p(2).")
                assert isinstance(result, TxnResult)
                assert result.kind == "exec" and result.status == "committed"
                assert result.changed_predicates() == ["p"]
                assert sorted(result.deltas["p"].added) == [(2,)]
                assert result.latency_s is not None and result.latency_s >= 0
                qr = session.query_result("_(x) <- p(x).")
                assert isinstance(qr, TxnResult) and qr.kind == "query"
                assert sorted(qr.rows) == [(1,), (2,)]
                assert sorted(session.query("_(x) <- p(x).")) == [(1,), (2,)]
                assert sorted(session.rows("p")) == [(1,), (2,)]
                removed = session.removeblock("b1")
                assert removed.kind == "removeblock" and removed.block == "b1"
                session.close()
        finally:
            local.close()
            server.stop()
            service.close()


class TestUnifiedConnect:
    """``repro.connect`` is the one entry point for every transport:
    a workspace path, ``tcp://host:port``, or ``cluster://a,b,c`` —
    with the consistency keyword honored by all of them."""

    def test_no_target_is_a_local_session(self):
        with repro.connect() as session:
            assert type(session).__name__ == "Session"
            assert session.consistency == "session"

    def test_path_target_is_a_durable_local_session(self, tmp_path):
        path = str(tmp_path / "db")
        with repro.connect(path) as session:
            assert type(session).__name__ == "Session"
            assert session.service.config.checkpoint_path == path
            session.addblock("p(x) -> int(x).")
            session.load("p", [(7,)])
            session.checkpoint()
        # the path *is* the database: reconnecting recovers it
        with repro.connect(path) as session:
            assert session.rows("p") == [(7,)]

    def test_tcp_target_is_a_net_session(self):
        from repro.net import NetSession
        from repro.service import TransactionService

        service = TransactionService()
        server = service.serve()
        try:
            url = "tcp://{}:{}".format(server.host, server.port)
            with repro.connect(url, consistency="eventual") as session:
                assert isinstance(session, NetSession)
                assert session.consistency == "eventual"
                assert session.server_role == "leader"
        finally:
            server.stop()
            service.close()

    def test_cluster_target_is_a_cluster_session(self):
        from repro.net import ClusterSession

        # membership is lazy: no sockets open until the first verb
        url = "cluster://127.0.0.1:7411,127.0.0.1:7412,127.0.0.1:7413"
        with repro.connect(url) as session:
            assert isinstance(session, ClusterSession)
            assert session.endpoints() == [
                "127.0.0.1:7411", "127.0.0.1:7412", "127.0.0.1:7413"]
            assert session.consistency == "session"

    def test_consistency_is_validated_up_front(self):
        with pytest.raises(ValueError):
            repro.connect(consistency="serializable-ish")
        with pytest.raises(ValueError):
            repro.connect("cluster://127.0.0.1:7411", consistency="nope")

    def test_old_net_connect_is_gone(self):
        import repro.net

        assert not hasattr(repro.net, "connect")


class TestKeywordOnlyConstructors:
    def test_workspace_flags_are_keyword_only(self):
        with pytest.raises(TypeError):
            Workspace(True)

    def test_removed_options_are_rejected(self, tmp_path):
        from repro.net import Replica

        with pytest.raises(TypeError):
            Workspace(parallel=object())
        replica = Replica(path=str(tmp_path / "replica"))
        try:
            with pytest.raises(TypeError):
                replica.follow(poll_s=1)
        finally:
            replica.close()

    def test_evaluator_flags_are_keyword_only(self):
        from repro.engine.evaluator import Evaluator, RuleSet

        with pytest.raises(TypeError):
            Evaluator(RuleSet([]), None)

    def test_service_flags_are_keyword_only(self):
        from repro.service import ServiceConfig, TransactionService

        with pytest.raises(TypeError):
            TransactionService(None, ServiceConfig())

    def test_service_config_rejects_unknown_mode(self):
        from repro.service import ServiceConfig

        # the occ baseline and the group_commit switch are gone: the
        # service always repairs and always commits in groups
        for removed in ({"mode": "occ"}, {"group_commit": False}):
            with pytest.raises(TypeError):
                ServiceConfig(**removed)
