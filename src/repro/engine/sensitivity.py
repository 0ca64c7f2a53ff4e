"""Sensitivity intervals and indices (paper §3.2).

As LFTJ runs, every ``seek``/``next`` skips a region of each input
predicate; a change landing inside a skipped region *cannot* affect the
result, while a change inside a recorded *sensitivity interval* may.
The recorded intervals — per atom occurrence, per trie level, under the
*context* of the values bound at earlier levels — serve two purposes:

* incremental maintenance: a rule whose sensitivity index is untouched
  by a delta needs no re-evaluation at all (§3.2); and
* transaction repair: intersecting one transaction's *effects* with
  another's *sensitivities* detects conflicts without locks (§3.4).
"""

from bisect import bisect_right

from repro.storage.datum import BOTTOM, TOP


class _Tracker:
    """Sink for one (occurrence, level, context); appends raw intervals."""

    __slots__ = ("intervals",)

    def __init__(self, intervals):
        self.intervals = intervals

    def record(self, low, high):
        """Record that changes within ``[low, high]`` may matter."""
        self.intervals.append((low, high))


class _NullTracker:
    """Sink for virtual predicates that carry no sensitivity."""

    __slots__ = ()

    def record(self, low, high):
        """Ignore the interval."""


_NULL_TRACKER = _NullTracker()


def canonical_pred(name):
    """Map delta-pass predicate names back to their real predicate.

    Incremental passes rename atoms to ``@new:P`` / ``@old:P``; their
    sensitivities belong to ``P``.  Purely virtual inputs (``@delta``,
    ``@cand``, ``@bound:x``) carry no user-visible sensitivity and map
    to ``None``.
    """
    if name.startswith("@new:") or name.startswith("@old:"):
        name = name.split(":", 1)[1]
    if name.startswith("@"):
        return None
    if name.endswith("@start"):
        name = name[: -len("@start")]
    return name


class SensitivityRecorder:
    """Collects sensitivity intervals during one evaluation run.

    Organized as ``occurrence -> level -> context -> [(low, high)]``
    where an *occurrence* identifies one atom of one rule body together
    with the storage permutation of its columns, and *context* is the
    permuted prefix (constants included) under which the level was
    explored.  Trackers append raw intervals; :meth:`freeze` coalesces
    the lists touched since the previous freeze, so the stored data
    stays bounded by the distinct regions ever explored.
    """

    __slots__ = ("_data", "_frozen", "_dirty")

    def __init__(self):
        self._data = {}  # (pred, perm) -> {level: {context: [intervals]}}
        self._frozen = None  # last SensitivityIndex built
        # (occurrence, level, context) -> its interval list, for every
        # site handed out since the last freeze
        self._dirty = {}

    def tracker(self, pred, perm, level, context):
        """A ``record(low, high)`` sink for the given site."""
        pred = canonical_pred(pred)
        if pred is None:
            return _NULL_TRACKER
        key = (pred, tuple(perm))
        context = tuple(context)
        contexts = self._data.setdefault(key, {}).setdefault(level, {})
        intervals = contexts.get(context)
        if intervals is None:
            intervals = contexts[context] = []
        self._dirty[(key, level, context)] = intervals
        return _Tracker(intervals)

    def record_point(self, pred, tup):
        """Record a point sensitivity on a full tuple (negation /
        functional-lookup checks): both inserting and deleting ``tup``
        may change the result."""
        arity = len(tup)
        perm = tuple(range(arity))
        level = arity - 1 if arity else 0
        context = tup[:-1] if arity else ()
        self.tracker(pred, perm, level, context).record(
            tup[-1] if arity else BOTTOM, tup[-1] if arity else TOP
        )

    def record_prefix(self, pred, perm, prefix):
        """Record point sensitivity on a bound prefix under ``perm``
        (existence probes: any change below the prefix may matter)."""
        if not prefix:
            self.record_everything(pred)
            return
        self.tracker(pred, perm, len(prefix) - 1, prefix[:-1]).record(
            prefix[-1], prefix[-1]
        )

    def record_everything(self, pred):
        """Record total sensitivity on ``pred`` (conservative fallback,
        e.g. for aggregations that scan whole groups)."""
        pred = canonical_pred(pred)
        if pred is None:
            return
        self.tracker(pred, (0,), 0, ()).record(BOTTOM, TOP)

    def predicates(self):
        """Names of predicates with recorded sensitivities."""
        return {pred for pred, _ in self._data}

    def freeze(self):
        """The queryable :class:`SensitivityIndex` (cached until the
        next recording).

        Only the sites touched since the previous freeze are coalesced;
        the new index shares every other entry with the previous one,
        which stays valid for whoever holds it.
        """
        if self._frozen is None:
            # first freeze (or data restored from a checkpoint): every
            # site is new to the index
            self._dirty = {
                (key, level, context): intervals
                for key, levels in self._data.items()
                for level, contexts in levels.items()
                for context, intervals in contexts.items()
            }
        if self._frozen is None or self._dirty:
            self._frozen = SensitivityIndex.updated(self._frozen, self._dirty)
            self._dirty = {}
        return self._frozen

    def coalesced(self):
        """The recorded data with every interval list coalesced:
        ``{(pred, perm): {level: {context: [(low, high), ...]}}}``
        (what checkpoints persist).  Read-only."""
        self.freeze()
        return self._data

    def merge_from(self, other):
        """Fold another recorder's raw data into this one."""
        for key, levels in other._data.items():
            my_levels = self._data.setdefault(key, {})
            for level, contexts in levels.items():
                my_contexts = my_levels.setdefault(level, {})
                for context, intervals in contexts.items():
                    mine = my_contexts.setdefault(context, [])
                    mine.extend(intervals)
                    self._dirty[(key, level, context)] = mine


def _merge_intervals(intervals):
    """Sort, deduplicate, and coalesce strictly-overlapping intervals.

    Touching intervals (``[6,8]`` and ``[8,10]``) stay separate — the
    paper reports them that way — and the bisect-based containment test
    remains correct for them because lookups pick the last interval
    whose low endpoint does not exceed the probed value.
    """
    if not intervals:
        return [], []
    ordered = sorted(
        set(intervals),
        key=lambda iv: (_interval_sort_key(iv), _high_sort_key(iv)),
    )
    merged = [ordered[0]]
    for low, high in ordered[1:]:
        last_low, last_high = merged[-1]
        if _strictly_less(low, last_high):  # true overlap
            if _strictly_less(last_high, high):
                merged[-1] = (last_low, high)
        else:
            merged.append((low, high))
    lows = [_interval_sort_key(interval) for interval in merged]
    return lows, merged


def _coalesce(old, intervals):
    """The ``(lows, merged)`` entry for ``intervals``, whose first
    ``len(old[1])`` items are ``old``'s merged intervals (or all raw
    when ``old`` is ``None``).  Returns ``old`` itself when every
    later interval already lies inside one of its merged intervals."""
    if old is None:
        return _merge_intervals(intervals)
    lows, merged = old
    pending = intervals[len(merged):]
    for low, high in pending:
        position = bisect_right(lows, _interval_sort_key((low, None)))
        if position == 0:
            break
        cover_low, cover_high = merged[position - 1]
        if _strictly_less(low, cover_low) or _strictly_less(cover_high, high):
            break
    else:
        return old
    return _merge_intervals(list(merged) + pending)


def _strictly_less(a, b):
    if a is BOTTOM:
        return b is not BOTTOM
    if b is TOP:
        return a is not TOP
    if a is TOP or b is BOTTOM:
        return False
    return a < b


def _interval_sort_key(interval):
    low, _ = interval
    if low is BOTTOM:
        return (0, 0)
    return (1, low)


def _high_sort_key(interval):
    _, high = interval
    if high is TOP:
        return (2, 0)
    if high is BOTTOM:
        return (0, 0)
    return (1, high)


class SensitivityIndex:
    """Frozen, queryable sensitivity intervals of one evaluation run."""

    __slots__ = ("_index", "_total")

    def __init__(self, raw):
        # (pred, perm) -> {level: {context: (lows, merged_intervals)}}
        self._index = {}
        self._total = set()  # predicates with blanket sensitivity
        owned = set()
        for (pred, perm), levels in raw.items():
            for level, contexts in levels.items():
                for context, intervals in contexts.items():
                    self._set(pred, perm, level, context,
                              _merge_intervals(intervals), owned)

    @classmethod
    def updated(cls, previous, sites):
        """``previous`` (or an empty index) with the entries of
        ``sites`` — ``{(occurrence, level, context): intervals}`` —
        re-coalesced.  Untouched entries are shared, not copied, and
        ``previous`` is left as it was — and returned as it is when no
        site recorded anything new.  Each site's interval list must
        start with the entry ``previous`` holds for it; the list is
        replaced in place by its coalesced form.
        """
        index = cls.__new__(cls)
        if previous is None:
            index._index, index._total = {}, set()
        else:
            index._index, index._total = dict(previous._index), set(previous._total)
        owned = set()
        for ((pred, perm), level, context), intervals in sites.items():
            old = None
            if previous is not None:
                old = previous._index.get((pred, perm), {}).get(level, {}).get(context)
            entry = _coalesce(old, intervals)
            intervals[:] = entry[1]
            if entry is not old:
                index._set(pred, perm, level, context, entry, owned)
        if previous is not None and not owned:
            return previous
        return index

    def _set(self, pred, perm, level, context, entry, owned):
        """Store one entry.  Copy-on-write: a dict possibly shared with
        another index is copied the first time it changes, and its key
        joins ``owned``."""
        key = (pred, perm)
        levels = self._index.get(key)
        if key not in owned:
            levels = self._index[key] = dict(levels or {})
            owned.add(key)
        contexts = levels.get(level)
        if (key, level) not in owned:
            contexts = levels[level] = dict(contexts or {})
            owned.add((key, level))
        contexts[context] = entry
        # a blanket interval absorbs all others but a (BOTTOM, BOTTOM)
        if level == 0 and any(
            low is BOTTOM and high is TOP for low, high in entry[1][:2]
        ):
            self._total.add(pred)

    @staticmethod
    def _contains(lows, merged, value):
        position = bisect_right(lows, _interval_sort_key((value, None)))
        if position == 0:
            return False
        low, high = merged[position - 1]
        if low is not BOTTOM and value < low:
            return False
        return high is TOP or not high < value

    def predicates(self):
        """Names of predicates this run is sensitive to."""
        return {pred for pred, _ in self._index} | set(self._total)

    def tuple_affects(self, pred, tup):
        """May inserting or deleting ``tup`` in ``pred`` change the run?"""
        pred = canonical_pred(pred)
        if pred is None:
            return False
        if pred in self._total:
            return True
        for (name, perm), levels in self._index.items():
            if name != pred:
                continue
            permuted = tuple(tup[i] for i in perm) if perm != tuple(range(len(tup))) else tup
            for level, contexts in levels.items():
                if level >= len(permuted):
                    continue
                entry = contexts.get(permuted[:level])
                if entry is None:
                    continue
                lows, merged = entry
                if self._contains(lows, merged, permuted[level]):
                    return True
        return False

    def delta_affects(self, pred, delta):
        """May the given :class:`Delta` on ``pred`` change the run?"""
        for tup in delta.added:
            if self.tuple_affects(pred, tup):
                return True
        for tup in delta.removed:
            if self.tuple_affects(pred, tup):
                return True
        return False

    def intervals_for(self, pred, perm=None):
        """Raw merged intervals for inspection/testing.

        Returns ``{level: {context: [(low, high), ...]}}``; with
        ``perm=None`` the first recorded permutation for ``pred``.
        """
        for (name, recorded_perm), levels in sorted(
            self._index.items(), key=lambda kv: (kv[0][0], kv[0][1])
        ):
            if name != pred:
                continue
            if perm is not None and tuple(perm) != recorded_perm:
                continue
            return {
                level: {context: merged for context, (lows, merged) in contexts.items()}
                for level, contexts in levels.items()
            }
        return {}
