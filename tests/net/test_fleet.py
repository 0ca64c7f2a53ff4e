"""The read-serving replica fleet: watermark stamps, session
consistency (read-your-writes), replica serving endpoints, election
and promotion after a leader crash, and the cluster client's routing.

Everything runs in-process: one leader service + N serving replicas,
each on its own kernel-chosen port, all sharing tmp_path checkpoint
directories — the same topology the CI fleet job runs as subprocesses.
"""

import os
import threading
import time

import pytest

import repro
from repro.net import (
    ClusterSession,
    LeaderUnavailable,
    NetSession,
    Replica,
    ReplicaReadOnly,
    StaleRead,
)
from repro.net.server import ReproServer
from repro.service import FaultInjector, ServiceConfig, TransactionService

BLOCK = "kv[k] = v -> int(k), int(v).\n"


def start_leader(tmp_path, *, faults=None):
    service = TransactionService(
        config=ServiceConfig(
            checkpoint_path=os.path.join(str(tmp_path), "leader"),
            # fleets checkpoint eagerly: the checkpoint stream *is*
            # the replication channel
            checkpoint_every_n_commits=1,
        ),
        faults=faults,
    )
    server = service.serve()
    session = NetSession(server.host, server.port)
    session.addblock(BLOCK)
    session.load("kv", [(1, 10), (2, 20)])
    # a commit is acknowledged before its auto-checkpoint lands, and
    # replicas bootstrap from checkpoints: wait until one holds the load
    deadline = time.monotonic() + 10.0
    while service.status()["checkpoint_watermark"] < service.commit_watermark:
        assert time.monotonic() < deadline, "leader never checkpointed the load"
        time.sleep(0.005)
    return service, server, session


def start_replica(tmp_path, server, name, **kwargs):
    replica = Replica(
        server.host, server.port, os.path.join(str(tmp_path), name),
        name=name, **kwargs)
    while replica.sync()["ingested"]:  # one checkpoint per call: drain
        pass
    replica.serve()
    return replica


@pytest.fixture
def fleet(tmp_path):
    service, server, admin = start_leader(tmp_path)
    replicas = [start_replica(tmp_path, server, "r{}".format(i))
                for i in range(2)]
    try:
        yield service, server, admin, replicas
    finally:
        admin.close()
        for replica in replicas:
            replica.close()
        server.stop()
        service.close()


def endpoints(server, replicas):
    return ["{}:{}".format(*server.address)] + [r.endpoint for r in replicas]


# -- watermark semantics -------------------------------------------------------


def test_responses_carry_the_commit_watermark(fleet):
    service, server, admin, replicas = fleet
    assert admin.last_watermark is None or admin.last_watermark >= 0
    admin.exec("^kv[1] = 11.")
    # the write's response is stamped with the post-commit watermark
    assert admin.last_watermark == service.commit_watermark
    assert admin.watermark == service.commit_watermark
    assert admin.server_role == "leader"


def test_watermark_is_monotone_across_reconnects(fleet):
    service, server, admin, replicas = fleet
    admin.exec("^kv[1] = 12.")
    seen = admin.watermark
    assert seen > 0
    # tear the transport; the next (idempotent) verb reconnects
    admin._drop_connection()
    admin.query("_(v) <- kv[1] = v.")
    assert admin.watermark >= seen


def test_replica_serves_reads_with_its_watermark(fleet):
    service, server, admin, replicas = fleet
    wm = service.commit_watermark
    replica = replicas[0]
    assert replica.sync()["ingested"] is False  # already current
    assert replica.watermark == wm
    with NetSession(*replica.endpoint.split(":")[:1],
                    int(replica.endpoint.split(":")[1])) as session:
        assert session.server_role == "replica"
        assert sorted(session.query("_(k, v) <- kv[k] = v.")) == \
            sorted(admin.query("_(k, v) <- kv[k] = v."))
        assert session.last_watermark == wm


def test_replica_endpoint_refuses_writes_with_typed_error(fleet):
    service, server, admin, replicas = fleet
    host, port = replicas[0].endpoint.split(":")
    with NetSession(host, int(port)) as session:
        with pytest.raises(ReplicaReadOnly) as excinfo:
            session.exec("^kv[1] = 99.")
        # the refusal names the leader so clients can reroute
        assert "leader" in str(excinfo.value)
        # reads still answer on the same connection
        assert session.rows("kv")


def test_stale_session_read_raises_typed_error(fleet):
    service, server, admin, replicas = fleet
    host, port = replicas[0].endpoint.split(":")
    with NetSession(host, int(port), consistency="session") as session:
        # simulate history observed elsewhere (e.g. via the leader):
        # the replica cannot serve at/above it
        session.watermark = replicas[0].watermark + 1000
        with pytest.raises(StaleRead):
            session.query("_(v) <- kv[1] = v.")
        # eventual consistency takes the same answer happily
    with NetSession(host, int(port), consistency="eventual") as session:
        session.watermark = replicas[0].watermark + 1000
        assert session.query("_(v) <- kv[1] = v.")


def test_watch_long_poll_returns_on_new_checkpoint(fleet):
    service, server, admin, replicas = fleet
    before = admin.status()
    results = {}

    def watcher():
        results["status"] = admin2.watch(
            seq=before["checkpoint_seq"], timeout_s=10.0)

    admin2 = NetSession(server.host, server.port)
    thread = threading.Thread(target=watcher)
    thread.start()
    time.sleep(0.05)
    admin.exec("^kv[2] = 21.")  # checkpoint_every_n_commits=1
    thread.join(timeout=10.0)
    admin2.close()
    assert not thread.is_alive()
    assert results["status"]["checkpoint_seq"] > before["checkpoint_seq"]


def test_watch_times_out_with_current_status(fleet):
    service, server, admin, replicas = fleet
    status = admin.watch(seq=10 ** 9, timeout_s=0.2)
    assert status["role"] == "leader"
    assert status["checkpoint_seq"] <= 10 ** 9


# -- cluster client ------------------------------------------------------------


def test_cluster_routes_writes_to_leader_and_reads_to_replicas(fleet):
    service, server, admin, replicas = fleet
    for replica in replicas:
        replica.follow(heartbeat_s=0.2)
    with ClusterSession(endpoints(server, replicas)) as cluster:
        result = cluster.exec("^kv[1] = 42.")
        assert result.committed
        assert cluster.watermark == service.commit_watermark
        # session consistency: the read must reflect our own write,
        # whether a replica caught up or the leader answered
        assert cluster.query("_(v) <- kv[1] = v.") == [(42,)]
        roles = {m["role"] for m in cluster.fleet_stats()["members"].values()
                 if m["role"]}
        assert "leader" in roles


def test_cluster_read_your_writes_with_stale_replicas(fleet):
    service, server, admin, replicas = fleet
    # replicas are NOT following: they stay pinned at the old
    # checkpoint, so every replica read after the write is stale
    with ClusterSession(endpoints(server, replicas),
                        stale_wait_s=0.01) as cluster:
        cluster.exec("^kv[2] = 77.")
        assert cluster.query("_(v) <- kv[2] = v.") == [(77,)]
        stats = cluster.fleet_stats()
        assert stats["watermark"] == service.commit_watermark


def test_cluster_eventual_mode_accepts_stale_replica_answers(fleet):
    service, server, admin, replicas = fleet
    with ClusterSession(endpoints(server, replicas),
                        consistency="eventual") as cluster:
        cluster.exec("^kv[2] = 88.")
        rows = cluster.query("_(v) <- kv[2] = v.")
        # a non-following replica answers with the pre-write value;
        # eventual mode explicitly allows that
        assert rows in ([(20,)], [(77,)], [(88,)])


def test_cluster_strong_mode_reads_from_leader_only(fleet):
    service, server, admin, replicas = fleet
    with ClusterSession(endpoints(server, replicas),
                        consistency="strong") as cluster:
        cluster.exec("^kv[1] = 55.")
        assert cluster.query("_(v) <- kv[1] = v.") == [(55,)]
        # only the leader member ever opened a session
        stats = cluster.fleet_stats()
        touched = [ep for ep, m in stats["members"].items() if m["role"]]
        assert touched == ["{}:{}".format(*server.address)]


def test_cluster_survives_full_replica_outage(fleet):
    service, server, admin, replicas = fleet
    for replica in replicas:
        replica.close()
    with ClusterSession(endpoints(server, replicas),
                        exclude_s=30.0) as cluster:
        assert sorted(cluster.query("_(k, v) <- kv[k] = v.")) == \
            sorted(admin.query("_(k, v) <- kv[k] = v."))


def test_leader_unavailable_is_typed(tmp_path):
    with ClusterSession(["127.0.0.1:1", "127.0.0.1:2"],
                        leader_wait_s=0.3) as cluster:
        with pytest.raises(LeaderUnavailable):
            cluster.exec("^kv[1] = 1.")


# -- promotion and failover ----------------------------------------------------


def test_promotion_is_watermark_monotone(fleet):
    service, server, admin, replicas = fleet
    admin.exec("^kv[1] = 13.")
    wm_before = service.commit_watermark
    replica = replicas[0]
    deadline = time.monotonic() + 10.0
    while replica.watermark < wm_before and time.monotonic() < deadline:
        if not replica.sync()["ingested"]:
            time.sleep(0.05)
    assert replica.watermark == wm_before
    status = replica.promote()
    assert status["role"] == "leader"
    assert status["watermark"] == wm_before
    # the promoted endpoint accepts writes on the SAME socket surface
    host, port = replica.endpoint.split(":")
    with NetSession(host, int(port)) as session:
        assert session.server_role == "leader"
        result = session.exec("^kv[1] = 14.")
        assert result.committed
        # commit sequence numbers continue, never restart
        assert session.watermark > wm_before
        assert session.query("_(v) <- kv[1] = v.") == [(14,)]


def test_promotion_is_idempotent(fleet):
    service, server, admin, replicas = fleet
    replica = replicas[0]
    first = replica.promote()
    second = replica.promote()
    assert first["role"] == second["role"] == "leader"


def test_election_is_deterministic_on_injected_leader_crash(tmp_path):
    faults = FaultInjector()
    service, server, admin = start_leader(tmp_path, faults=faults)
    replicas = [
        start_replica(tmp_path, server, "e{}".format(i))
        for i in range(2)
    ]
    try:
        # both replicas are equally caught up, so the tie-break
        # (smallest endpoint string) decides — compute it up front
        peers = [r.endpoint for r in replicas]
        for replica, other in zip(replicas, reversed(replicas)):
            replica.peers = [other.endpoint]
        assert replicas[0].watermark == replicas[1].watermark
        expected = min(peers)
        for replica in replicas:
            replica.follow(heartbeat_s=0.2, leader_timeout_s=0.8)
        # the injected crash: the leader drops every frame it would
        # send, so heartbeats fail while the process is still "up"
        faults.script("net_send", "drop", times=10000)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if any(r.promoted is not None for r in replicas):
                break
            time.sleep(0.1)
        promoted = [r for r in replicas if r.promoted is not None]
        assert len(promoted) == 1, "exactly one replica must win"
        assert promoted[0].endpoint == expected
        # the loser re-pointed its follow loop at the new leader
        loser = next(r for r in replicas if r.promoted is None)
        winner_host, winner_port = expected.split(":")
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if (loser.host, loser.port) == (winner_host, int(winner_port)):
                break
            time.sleep(0.1)
        assert (loser.host, loser.port) == (winner_host, int(winner_port))
    finally:
        admin.close()
        for replica in replicas:
            replica.close()
        server.stop()
        service.close()


def test_cluster_client_fails_over_writes_after_promotion(fleet):
    service, server, admin, replicas = fleet
    eps = endpoints(server, replicas)
    with ClusterSession(eps, leader_wait_s=10.0,
                        retry_writes_on_failover=True) as cluster:
        cluster.exec("^kv[1] = 70.")
        # the leader dies; a replica is promoted (externally here —
        # the election test covers replica-side detection)
        server.stop()
        service.close()
        replicas[0].promote()
        result = cluster.exec("^kv[1] = 71.")
        assert result.committed
        assert cluster.query("_(v) <- kv[1] = v.") == [(71,)]
        assert cluster.fleet_stats()["members"][
            replicas[0].endpoint]["role"] == "leader"


# -- unified entry point -------------------------------------------------------


def test_repro_connect_cluster_url_end_to_end(fleet):
    service, server, admin, replicas = fleet
    url = "cluster://" + ",".join(endpoints(server, replicas))
    with repro.connect(url) as cluster:
        assert isinstance(cluster, ClusterSession)
        cluster.exec("^kv[2] = 99.")
        assert cluster.query("_(v) <- kv[2] = v.") == [(99,)]


# -- lag-based self-exclusion --------------------------------------------------


def test_replica_advertises_staleness_bound(fleet, tmp_path):
    _, server, _, _ = fleet
    bounded = start_replica(
        tmp_path, server, "bounded", max_staleness_s=5.0)
    try:
        status = bounded.status()
        assert status["max_staleness_s"] == 5.0
        assert status["staleness_s"] >= 0.0
        assert status["staleness_s"] < 5.0  # just synced
    finally:
        bounded.close()


def test_cluster_excludes_replica_past_its_staleness_bound(fleet, tmp_path):
    service, server, admin, replicas = fleet
    # a replica that promises 1ms freshness and is not following: its
    # self-advertised staleness blows the bound almost immediately
    laggard = start_replica(
        tmp_path, server, "laggard", max_staleness_s=0.001)
    try:
        time.sleep(0.05)
        eps = ["{}:{}".format(*server.address), laggard.endpoint]
        with ClusterSession(eps, consistency="eventual",
                            lag_probe_s=0.0001) as cluster:
            for _ in range(6):
                time.sleep(0.002)
                assert cluster.query("_(v) <- kv[1] = v.") == [(10,)]
            stats = cluster.fleet_stats()
            lagging = [ep for ep, m in stats["members"].items()
                       if m["lag_excluded"]]
            assert lagging == [laggard.endpoint]
    finally:
        laggard.close()


def test_cluster_keeps_fresh_replicas_in_rotation(fleet):
    service, server, admin, replicas = fleet
    # default replicas advertise no bound: lag exclusion never trips
    with ClusterSession(endpoints(server, replicas),
                        consistency="eventual",
                        lag_probe_s=0.0001) as cluster:
        for _ in range(4):
            assert cluster.query("_(v) <- kv[1] = v.") == [(10,)]
        stats = cluster.fleet_stats()
        assert not any(
            m["lag_excluded"] for m in stats["members"].values())
