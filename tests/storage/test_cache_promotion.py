"""Index/array cache promotion across relation versions.

`Relation.apply` must carry its parent's secondary indexes and sorted
arrays into the child version (incrementally maintained), so unchanged
or lightly-edited versions never pay a rebuild.
"""

import pytest

from repro import stats as global_stats
from repro.storage.relation import Delta, Relation, _merge_sorted

SWAP = (1, 0)


def rel(n=50, step=3):
    return Relation.from_iter(2, [(i, (i * step) % n) for i in range(n)])


def expected_flat(relation, perm):
    return sorted(tuple(t[i] for i in perm) for t in relation)


def test_apply_promotes_secondary_index():
    relation = rel()
    relation.index_root(SWAP)  # build + cache the permuted index
    before = global_stats.snapshot()
    child = relation.apply(Delta.from_iters([(999, 1)], [(0, 0)]))
    bumped = global_stats.delta_since(before)
    assert bumped.get("relation.index_promotions", 0) == 1
    # the child answers permuted lookups without a rebuild
    before = global_stats.snapshot()
    child.index_root(SWAP)
    bumped = global_stats.delta_since(before)
    assert bumped.get("relation.index_hits", 0) == 1
    assert bumped.get("relation.index_misses", 0) == 0


def test_promoted_index_content_is_correct():
    relation = rel()
    relation.index_root(SWAP)
    child = relation.apply(Delta.from_iters([(999, 1), (998, 2)], [(3, 9), (6, 18)]))
    promoted = child._indexes[SWAP]
    assert list(promoted) == expected_flat(child, SWAP)


def test_apply_promotes_flat_array():
    relation = rel(128)
    relation.flat(SWAP)
    child = relation.apply(Delta.from_iters([(999, 7)], [(1, 3)]))
    assert child.has_flat(SWAP)
    assert child._flat[SWAP] == expected_flat(child, SWAP)


def test_flat_promotion_handles_add_and_remove_of_same_tuple():
    # `apply` semantics: removal first, re-insertion wins
    relation = rel(64)
    relation.flat(SWAP)
    relation.flat((0, 1))
    delta = Delta.from_iters([(0, 0), (500, 5)], [(0, 0)])
    child = relation.apply(delta)
    assert (0, 0) in child
    assert (500, 5) in child
    assert child._flat[SWAP] == expected_flat(child, SWAP)
    assert child._flat[(0, 1)] == expected_flat(child, (0, 1))


def test_huge_delta_drops_flat_cache_instead_of_merging():
    relation = rel(20)
    relation.flat(SWAP)
    big = Delta.from_iters([(1000 + i, i) for i in range(200)])
    child = relation.apply(big)
    assert not child.has_flat(SWAP)  # dropped, rebuilt lazily on demand
    assert child.flat(SWAP) == expected_flat(child, SWAP)


def test_union_promotes_receiver_caches():
    left = rel(100)
    left.index_root(SWAP)
    left.flat(SWAP)
    right = Relation.from_iter(2, [(2000, 1), (2001, 2)])
    merged = left.union(right)
    assert merged.has_flat(SWAP)
    assert merged._flat[SWAP] == expected_flat(merged, SWAP)
    assert list(merged._indexes[SWAP]) == expected_flat(merged, SWAP)


def test_union_with_empty_is_identity():
    relation = rel()
    assert relation.union(Relation.empty(2)) is relation
    assert Relation.empty(2).union(relation) is relation


def test_subtract_promotes_and_short_circuits():
    relation = rel(80)
    relation.flat(SWAP)
    assert relation.subtract(Relation.empty(2)) is relation
    smaller = relation.subtract(Relation.from_iter(2, [(0, 0), (1, 3)]))
    assert smaller.has_flat(SWAP)
    assert smaller._flat[SWAP] == expected_flat(smaller, SWAP)


def test_apply_noop_delta_returns_same_version():
    relation = rel()
    assert relation.apply(Delta()) is relation
    # delta that changes nothing (removing absent, adding present)
    assert relation.apply(Delta.from_iters([(0, 0)], [(7777, 1)])) is relation


@pytest.mark.parametrize(
    "rows, added, removed",
    [
        ([], [], set()),
        ([], [(1,), (2,)], set()),
        ([(1,), (3,)], [(2,)], set()),
        ([(1,), (2,), (3,)], [], {(2,)}),
        ([(1,), (2,)], [(2,)], {(2,)}),  # re-insertion wins over removal
        ([(1,), (2,), (5,)], [(0,), (3,), (9,)], {(1,), (5,)}),
    ],
)
def test_merge_sorted_matches_set_semantics(rows, added, removed):
    expected = sorted((set(rows) - removed) | set(added))
    assert _merge_sorted(rows, sorted(added), removed) == expected


def test_merge_sorted_large_edit_takes_linear_pass():
    rows = [(i,) for i in range(0, 200, 2)]
    added = [(i,) for i in range(1, 120, 3)]
    removed = {(i,) for i in range(0, 80, 4)} | {(1,)}
    expected = sorted((set(rows) - removed) | set(added))
    assert _merge_sorted(rows, added, removed) == expected
