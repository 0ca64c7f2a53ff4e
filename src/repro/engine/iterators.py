"""Linear and trie iterators (paper §3.2).

The paper's iterator contract:

* linear: ``key() / next() / seek(v) / at_end()`` with O(log N) seeks
  and amortized O(1 + log(N/m)) ascending scans;
* trie: additionally ``open()`` (descend to the first child) and
  ``up()`` (return to the parent), presenting an n-ary relation as a
  trie whose levels are argument positions.

Two interchangeable backends implement the contract over a relation:

* :class:`TreapTrieIterator` navigates the persistent treap directly
  (seek = O(log N) root descent).  Fresh versions produced by small
  deltas are iterable immediately — nothing is re-materialized, which
  the incremental-maintenance cost model depends on.
* :class:`ArrayTrieIterator` runs over a cached sorted array with
  bisect (C-speed comparisons); the evaluator requests it for full,
  non-incremental runs over large static relations.

Both expose *levels* through :class:`TrieLevel` handles so the leapfrog
loops never care which backend they drive.
"""

from bisect import bisect_left

from repro.storage.datum import TOP


class TreapTrieIterator:
    """Trie navigation over a treap of lexicographically sorted tuples.

    ``fixed_prefix`` pre-binds leading columns to constants (the
    planner permutes constant arguments to the front, the moral
    equivalent of the paper's virtual ``Const`` predicates).
    """

    __slots__ = ("_root", "arity", "_prefix", "_values", "_at_end", "_fixed")

    def __init__(self, root, arity, fixed_prefix=()):
        self._root = root
        self.arity = arity
        self._fixed = tuple(fixed_prefix)
        self._values = []  # current value at each open depth
        self._at_end = False

    @property
    def depth(self):
        """Number of currently open levels (0 = at root)."""
        return len(self._values)

    def _lower_bound(self, key):
        """First stored tuple >= ``key``, or ``None``."""
        node = self._root
        best = None
        while node is not None:
            if node.key < key:
                node = node.right
            else:
                best = node.key
                node = node.left
        return best

    def _position(self, seek_key):
        """Move the current level to the first value whose full prefix
        extends ``seek_key``; sets the at-end flag otherwise."""
        depth = len(self._fixed) + len(self._values) - 1
        found = self._lower_bound(seek_key)
        context = seek_key[:depth]
        if found is None or found[:depth] != context:
            self._at_end = True
            self._values[-1] = None
        else:
            self._at_end = False
            self._values[-1] = found[depth]

    def open(self):
        """Descend to the first value at the next level."""
        context = self._fixed + tuple(self._values)
        self._values.append(None)
        self._position(context)

    def up(self):
        """Return to the parent level (its position is unchanged)."""
        self._values.pop()
        self._at_end = False

    def at_end(self):
        """True when the current level is exhausted."""
        return self._at_end

    def key(self):
        """Value at the current level position."""
        return self._values[-1]

    def next(self):
        """Advance to the next distinct value at the current level."""
        context = self._fixed + tuple(self._values[:-1])
        self._position(context + (self._values[-1], TOP))

    def seek(self, value):
        """Least-upper-bound seek at the current level."""
        context = self._fixed + tuple(self._values[:-1])
        self._position(context + (value,))

    def context(self):
        """Permuted prefix under which the current level is explored
        (fixed constants plus values bound at earlier levels)."""
        return self._fixed + tuple(self._values[:-1])

    def check_fixed_prefix(self):
        """True iff a tuple with the fixed constant prefix exists."""
        if not self._fixed:
            return self._root is not None
        found = self._lower_bound(self._fixed)
        return found is not None and found[: len(self._fixed)] == self._fixed


class ArrayTrieIterator:
    """Same contract as :class:`TreapTrieIterator` over a sorted list."""

    __slots__ = ("_rows", "arity", "_fixed", "_values", "_at_end")

    def __init__(self, rows, arity, fixed_prefix=()):
        self._rows = rows
        self.arity = arity
        self._fixed = tuple(fixed_prefix)
        self._values = []
        self._at_end = False

    @property
    def depth(self):
        """Number of currently open levels (0 = at root)."""
        return len(self._values)

    def _position(self, seek_key):
        depth = len(self._fixed) + len(self._values) - 1
        rows = self._rows
        index = bisect_left(rows, seek_key)
        if index >= len(rows):
            self._at_end = True
            self._values[-1] = None
            return
        found = rows[index]
        if found[:depth] != seek_key[:depth]:
            self._at_end = True
            self._values[-1] = None
        else:
            self._at_end = False
            self._values[-1] = found[depth]

    def open(self):
        """Descend to the first value at the next level."""
        context = self._fixed + tuple(self._values)
        self._values.append(None)
        self._position(context)

    def up(self):
        """Return to the parent level (its position is unchanged)."""
        self._values.pop()
        self._at_end = False

    def at_end(self):
        """True when the current level is exhausted."""
        return self._at_end

    def key(self):
        """Value at the current level position."""
        return self._values[-1]

    def next(self):
        """Advance to the next distinct value at the current level."""
        context = self._fixed + tuple(self._values[:-1])
        self._position(context + (self._values[-1], TOP))

    def seek(self, value):
        """Least-upper-bound seek at the current level."""
        context = self._fixed + tuple(self._values[:-1])
        self._position(context + (value,))

    def context(self):
        """Permuted prefix under which the current level is explored
        (fixed constants plus values bound at earlier levels)."""
        return self._fixed + tuple(self._values[:-1])

    def check_fixed_prefix(self):
        """True iff a tuple with the fixed constant prefix exists."""
        if not self._fixed:
            return bool(self._rows)
        index = bisect_left(self._rows, self._fixed)
        if index >= len(self._rows):
            return False
        return self._rows[index][: len(self._fixed)] == self._fixed


class SingletonIterator:
    """A virtual one-value linear iterator.

    Serves computed bindings (``z = x - y`` once ``x, y`` are bound) and
    constant variables — the paper's virtual, non-materialized
    predicates accessed "through the same trie-iterator interface".
    """

    __slots__ = ("_value", "_at_end")

    def __init__(self, value):
        self._value = value
        self._at_end = False

    def at_end(self):
        """True once advanced past the single value."""
        return self._at_end

    def key(self):
        """The single value."""
        return self._value

    def next(self):
        """Exhausts the iterator."""
        self._at_end = True

    def seek(self, value):
        """Positions at the value when ``value`` <= it, else at end."""
        if self._value < value:
            self._at_end = True


class RangeIterator:
    """A virtual linear iterator over ``range(start, stop)`` integers.

    Used by virtual arithmetic predicates such as ``int:range`` and in
    tests; demonstrates that any monotone generator fits the contract.
    """

    __slots__ = ("_current", "_stop")

    def __init__(self, start, stop):
        self._current = start
        self._stop = stop

    def at_end(self):
        """True when past the last integer."""
        return self._current >= self._stop

    def key(self):
        """Current integer."""
        return self._current

    def next(self):
        """Advance by one."""
        self._current += 1

    def seek(self, value):
        """Jump forward to ``value``."""
        if value > self._current:
            self._current = value


def trie_iterator(relation, perm, fixed_prefix=(), prefer_array=False):
    """Build the best trie iterator for ``relation`` permuted by ``perm``.

    Uses the array backend when it is already materialized (or when the
    caller asks for it); otherwise navigates the treap directly.
    """
    perm = tuple(perm)
    if prefer_array or relation.has_flat(perm):
        return ArrayTrieIterator(relation.flat(perm), relation.arity, fixed_prefix)
    return TreapTrieIterator(relation.index_root(perm), relation.arity, fixed_prefix)
