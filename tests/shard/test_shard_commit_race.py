"""A local commit racing a parked cross-shard transaction, on real
in-process shard services: ``shard_commit`` must refuse (``ConflictError``)
when the head moved under the prepared snapshot in a way that touches
the transaction's reads or the predicates it writes, and must commit
when the local write is unrelated."""

import pytest

from repro.runtime.errors import ConflictError
from repro.shard import ShardedWorkspace

SCHEMA = (
    "price[k] = v -> string(k), int(v).\n"
    "acct[k] = v -> string(k), int(v).\n"
    "log(k, v) -> string(k), int(v).\n"
)
# reads price["a"], writes log
TXN = '+log("a", p) <- price["a"] = p.'


@pytest.fixture
def shard():
    sharded = ShardedWorkspace.local(2, {"acct": 0})
    with sharded:
        sharded.addblock(SCHEMA, name="schema")
        sharded.load("price", [("a", 1), ("b", 2)])
        sharded.load("acct", [("x", 0)])
        yield sharded._pool.backend(0)


def prepare(service):
    prepared = service.shard_prepare(TXN, shard_index=0, shard_count=2)
    assert sorted(prepared["effects"]["log"].added) == [("a", 1)]
    return prepared


def test_local_write_to_a_read_row_conflicts(shard):
    prepared = prepare(shard)
    shard.exec('^price["a"] = 5.')
    with pytest.raises(ConflictError):
        shard.shard_commit(prepared["token"], prepared["effects"])
    assert sorted(shard.rows("price")) == [("a", 5), ("b", 2)]
    assert shard.rows("log") == []


def test_local_write_to_a_written_predicate_conflicts(shard):
    prepared = prepare(shard)
    shard.exec('+log("z", 9).')
    with pytest.raises(ConflictError):
        shard.shard_commit(prepared["token"], prepared["effects"])
    assert shard.rows("log") == [("z", 9)]


def test_unrelated_local_write_commits(shard):
    prepared = prepare(shard)
    shard.exec('^price["b"] = 7.')
    shard.exec('^acct["x"] = 3.')
    result = shard.shard_commit(prepared["token"], prepared["effects"])
    assert result.committed
    assert sorted(shard.rows("price")) == [("a", 1), ("b", 7)]
    assert shard.rows("log") == [("a", 1)]
    assert shard.commit_history()[-1]["preds"] == ["log"]


def test_traced_commit_grafts_the_committer_span(shard):
    from repro import obs

    prepared = prepare(shard)
    with obs.Profile() as prof:
        shard.shard_commit(prepared["token"], prepared["effects"])
    root = next(r for r in prof.roots if r.name == "shard.commit")
    grafted = [s for s in root.walk() if s.attrs.get("origin") == "committer"]
    assert [s.name for s in grafted] == ["service.barrier"]
    assert grafted[0].attrs["kind"] == "shard_commit"
