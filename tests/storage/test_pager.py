"""Durable checkpoint/restore: round-trip fidelity and incrementality.

The contract under test (paper §3: unique representation makes
durability log-free): ``Workspace.checkpoint`` → ``Workspace.open``
reproduces the workspace bit-identically — relation contents AND treap
structure (structural hashes), support counts, aggregation state,
sensitivity-driven IVM behavior, installed blocks, and the version-DAG
skeleton — while repeated checkpoints write only the nodes that
changed.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.ds.pmap import PMap
from repro.ds.pset import PSet
from repro.engine.aggregates import MultisetState, SumState
from repro.runtime.workspace import Workspace
from repro.storage.datum import BOTTOM, TOP
from repro.storage.pager import (
    CheckpointStore,
    _recorder_payload,
    decode_value,
    encode_value,
    has_checkpoint,
    read_manifest,
)

RETAIL = """
Product(p) -> string(p).
Stock[p] = v -> string(p), float(v).
inStock(p) <- Product(p), Stock[p] = v, v > 0.0.
totalShelf[] = u <- agg<<u = sum(v)>> Stock[p] = v.
"""


@pytest.fixture
def retail():
    ws = Workspace()
    ws.addblock(RETAIL, name="retail")
    ws.load("Product", [("a",), ("b",), ("c",)])
    ws.load("Stock", [("a", 4.0), ("b", 8.0), ("c", 0.0)])
    return ws


def reopened(ws, path):
    ws.checkpoint(str(path))
    return Workspace.open(str(path))


class TestCodec:
    def test_value_round_trip(self):
        values = [
            None, True, False, 0, 1, -1, 2**70, -(2**70), 0.5, -2.5,
            "", "héllo", b"\x00\xff", (1, "a", (2.0, None)), [1, [2], 3],
            {"k": 1, 2: "v"}, BOTTOM, TOP,
        ]
        for value in values:
            assert decode_value(encode_value(value)) == value

    def test_encoding_canonical(self):
        assert encode_value((1, "a")) == encode_value((1, "a"))
        assert encode_value(1) != encode_value(1.0)
        assert encode_value(True) != encode_value(1)

    def test_agg_states(self):
        out = decode_value(encode_value(SumState(12.5, 3)))
        assert (out.total, out.count) == (12.5, 3)
        ms = MultisetState(PMap.from_dict({1.0: 2, 3.0: 1}), 3)
        out = decode_value(encode_value(ms))
        assert out.count == 3
        assert list(out.values.items()) == [(1.0, 2), (3.0, 1)]

    def test_unencodable_rejected(self):
        with pytest.raises(TypeError):
            encode_value(object())


class TestRoundTrip:
    def test_rows_and_structure_bit_identical(self, retail, tmp_path):
        ws2 = reopened(retail, tmp_path)
        for pred in ("Product", "Stock", "inStock", "totalShelf"):
            assert retail.rows(pred) == ws2.rows(pred)
            assert (
                retail.relation(pred).structural_hash()
                == ws2.relation(pred).structural_hash()
            )

    def test_support_counts_restored(self, retail, tmp_path):
        ws2 = reopened(retail, tmp_path)
        for pred, state in retail.state.materialization.states.items():
            restored = ws2.state.materialization.states[pred]
            assert restored.kind == state.kind
            assert restored.agg_fn == state.agg_fn
            assert list(restored.counts.items()) == list(state.counts.items())
            assert list(restored.groups) == list(state.groups)

    def test_blocks_restored(self, retail, tmp_path):
        ws2 = reopened(retail, tmp_path)
        assert ws2.blocks() == retail.blocks()

    def test_meta_state_restored(self, retail, tmp_path):
        ws2 = reopened(retail, tmp_path)
        meta1 = retail.state.meta_state
        meta2 = ws2.state.meta_state
        assert meta2.block_facts == meta1.block_facts
        for pred in ("lang_edb", "lang_idb", "need_frame"):
            assert meta2.rows(pred) == meta1.rows(pred)

    def test_branches_restored(self, retail, tmp_path):
        retail.create_branch("scratch")
        retail.switch("scratch")
        retail.load("Product", [("d",)])
        retail.switch("main")
        ws2 = reopened(retail, tmp_path)
        assert ws2.branches() == ["main", "scratch"]
        assert ws2.branch == "main"
        assert ws2.rows("Product") == [("a",), ("b",), ("c",)]
        ws2.switch("scratch")
        assert ws2.rows("Product") == [("a",), ("b",), ("c",), ("d",)]

    def test_version_dag_skeleton_restored(self, retail, tmp_path):
        head = retail.version()
        ws2 = reopened(retail, tmp_path)
        head2 = ws2.version()
        assert head2.id == head.id
        chain = [v.id for v in head.ancestors()]
        chain2 = [v.id for v in head2.ancestors()]
        assert chain2 == chain

    def test_new_versions_do_not_collide(self, retail, tmp_path):
        ws2 = reopened(retail, tmp_path)
        restored_ids = {v.id for v in ws2.version().ancestors()}
        ws2.load("Product", [("z",)])
        assert ws2.version().id not in restored_ids

    def test_ivm_works_after_restore(self, retail, tmp_path):
        # incremental maintenance (not re-derivation) must continue
        # correctly from the restored support counts and sensitivities
        ws2 = reopened(retail, tmp_path)
        for ws in (retail, ws2):
            ws.exec('^Stock["c"] = 5.0 <- .')
            ws.exec('-Product("a").')
        assert ws2.rows("inStock") == retail.rows("inStock")
        assert ws2.rows("totalShelf") == retail.rows("totalShelf")
        assert (
            ws2.relation("inStock").structural_hash()
            == retail.relation("inStock").structural_hash()
        )

    def test_addblock_works_after_restore(self, retail, tmp_path):
        ws2 = reopened(retail, tmp_path)
        for ws in (retail, ws2):
            ws.addblock("lowStock(p) <- Stock[p] = v, v < 5.0.", name="low")
        assert ws2.rows("lowStock") == retail.rows("lowStock")

    def test_empty_workspace_round_trips(self, tmp_path):
        ws2 = reopened(Workspace(), tmp_path)
        assert ws2.branches() == ["main"]
        assert ws2.blocks() == []


class TestIncrementality:
    def test_unchanged_recheckpoint_writes_nothing(self, retail, tmp_path):
        first = retail.checkpoint(str(tmp_path))
        second = retail.checkpoint(str(tmp_path))
        assert first["nodes_written"] > 0
        assert second["nodes_written"] == 0
        assert second["bytes_written"] == 0

    def test_small_delta_writes_small(self, retail, tmp_path):
        first = retail.checkpoint(str(tmp_path))
        retail.exec('+Product("zz").')
        third = retail.checkpoint(str(tmp_path))
        assert 0 < third["nodes_written"] < first["nodes_written"]

    def test_shared_subtrees_written_once(self, retail, tmp_path):
        # a branch shares all its structure with its parent: the branch
        # itself must cost zero node writes
        retail.checkpoint(str(tmp_path))
        retail.create_branch("twin")
        result = retail.checkpoint(str(tmp_path))
        assert result["nodes_written"] == 0

    def test_fresh_store_still_incremental_after_open(self, retail, tmp_path):
        # the memo is rebuilt during restore, so the first checkpoint
        # from a reopened workspace is a no-op too
        ws2 = reopened(retail, tmp_path)
        result = ws2.checkpoint(str(tmp_path))
        assert result["nodes_written"] == 0


INVENTORY = """
inventory[s] = v -> string(s), int(v).
price[s] = p -> string(s), int(p).
inventory[s] = v -> price[s] = _.
value[s] = x <- inventory[s] = v, price[s] = p, x = v * p.
total_value[] = u <- agg<<u = sum(x)>> value[s] = x.
"""


class TestSensitivityGrowth:
    def test_repeated_commits_to_one_key_keep_recorders_stable(self, tmp_path):
        ws = Workspace()
        ws.addblock(INVENTORY, name="inventory")
        keys = ["sku{:03d}".format(i) for i in range(256)]
        ws.load("price", [(k, 3) for k in keys])
        ws.load("inventory", [(k, 1000) for k in keys])
        samples = []
        for _ in range(12):
            ws.exec('^inventory["sku007"] = v - 1 <- '
                    'inventory@start["sku007"] = v.')
            ws.checkpoint(str(tmp_path))
            recorders = ws.state.materialization.rule_recorders
            manifest = read_manifest(str(tmp_path))
            head = manifest["states"][str(manifest["branches"]["main"])]
            samples.append((
                sum(len(intervals)
                    for recorder in recorders.values()
                    for levels in recorder.coalesced().values()
                    for contexts in levels.values()
                    for intervals in contexts.values()),
                sum(len(encode_value(_recorder_payload(recorder)))
                    for recorder in recorders.values()),
                head["recorders"],
            ))
        # the first commits explore new regions; repeats add nothing
        assert samples[2:] == [samples[2]] * len(samples[2:])


class TestManifest:
    def test_crash_before_first_manifest_leaves_nothing(self, tmp_path):
        assert not has_checkpoint(str(tmp_path))
        with pytest.raises(FileNotFoundError):
            CheckpointStore(str(tmp_path)).restore_into(Workspace())

    def test_manifest_names_packs_and_roots(self, retail, tmp_path):
        retail.checkpoint(str(tmp_path))
        manifest = read_manifest(str(tmp_path))
        assert manifest["seq"] == 1
        assert manifest["packs"] == ["nodes-000001.pack"]
        for name in manifest["packs"]:
            assert os.path.exists(os.path.join(str(tmp_path), name))
        state = manifest["states"][str(manifest["branches"]["main"])]
        assert set(state["base"]) == {"Product", "Stock"}
        assert "inStock" in state["relations"]
        assert "retail" in state["blocks"]

    def test_unsupported_format_rejected(self, retail, tmp_path):
        retail.checkpoint(str(tmp_path))
        manifest_path = os.path.join(str(tmp_path), "MANIFEST.json")
        with open(manifest_path) as fh:
            text = fh.read()
        with open(manifest_path, "w") as fh:
            fh.write(text.replace('"format": 1', '"format": 99'))
        with pytest.raises(ValueError, match="format"):
            read_manifest(str(tmp_path))

    def test_corrupt_record_detected(self, retail, tmp_path):
        retail.checkpoint(str(tmp_path))
        pack = os.path.join(str(tmp_path), "nodes-000001.pack")
        with open(pack, "r+b") as fh:
            fh.seek(25)
            byte = fh.read(1)
            fh.seek(25)
            fh.write(bytes((byte[0] ^ 0xFF,)))
        with pytest.raises(ValueError, match="digest mismatch"):
            Workspace.open(str(tmp_path))


class TestCrossProcess:
    def test_restore_in_fresh_interpreter(self, retail, tmp_path):
        """The real durability claim: a different process (different
        PYTHONHASHSEED) restores identical contents and structure."""
        retail.checkpoint(str(tmp_path))
        script = textwrap.dedent("""
            import sys
            from repro.runtime.workspace import Workspace
            ws = Workspace.open(sys.argv[1])
            print(ws.rows("inStock"))
            print(ws.rows("totalShelf"))
            print(ws.relation("Product").structural_hash())
            ws.exec('+Product("zz").')
            print(ws.checkpoint(sys.argv[1])["nodes_written"])
        """)
        out = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONHASHSEED="12345"),
        ).stdout.splitlines()
        assert out[0] == repr(retail.rows("inStock"))
        assert out[1] == repr(retail.rows("totalShelf"))
        assert out[2] == repr(retail.relation("Product").structural_hash())
        # the child's post-delta checkpoint was incremental, and this
        # process can restore what the child wrote
        assert 0 < int(out[3]) < 20
        ws3 = Workspace.open(str(tmp_path))
        assert ("zz",) in ws3.relation("Product")
