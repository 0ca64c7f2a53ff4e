"""Vectorized (columnar) leapfrog triejoin — the raw-speed backend.

The pure-Python :class:`~repro.engine.lftj.LeapfrogTrieJoin` pays
interpreter overhead on every ``seek``/``next``; this module executes
the same plans over the dictionary-encoded column arrays of
:mod:`repro.storage.columnar`, replacing per-tuple seeks with *batched*
binary searches (``numpy.searchsorted``) over whole frontiers of
partial bindings at once — the batched-seek formulation of Veldhuizen's
LFTJ paper (arXiv 1210.0481), executed level by level as in generic
worst-case-optimal join: at each variable the smallest participant
enumerates candidates and every other participant intersects them with
one vectorized lower-bound search.

Each permuted relation becomes a *columnar trie*: run boundaries of
equal prefixes mark the trie nodes per depth; a node's key is an
``int64`` dictionary code, and per-depth ``parent * |domain| + key``
composites are globally sorted, so "seek key ``v`` under this node"
for an entire frontier is a single ``searchsorted``.

Per-rule specialization: for filter-free conjunctive plans (the hot
path) the join loop is *generated* from the plan — participants,
depths, and driver branches unrolled into straight-line numpy code with
no per-level dynamic dispatch — compiled once and cached per plan
shape.  Plans with comparison filters, negations, or assignments run
on the generic vectorized interpreter, which shares every helper with
the generated code.  A comparison between variables and constants over
homogeneous numeric domains (all int64 or all float) is one numpy
comparison over the frontier; other filters run row-wise.

Equivalence contract: bit-identical rows, in the pure executor's
enumeration order (codes are order-preserving, so ascending code order
is ascending value order).  Runs that must record sensitivity
intervals, joins whose columnar setup is not paid for (see
:func:`setup_is_paid`), and relations whose values do not
dictionary-encode run on the pure executor — the oracle the
backend-equivalence property test checks against.
"""

import os
import threading
from bisect import bisect_left

from repro import stats as global_stats
from repro.engine.ir import CompareAtom, Const, Var
from repro.engine.lftj import LeapfrogTrieJoin
from repro.storage.columnar import HAVE_NUMPY, ColumnarUnsupported, numeric_domain
from repro.storage.datum import TOP

if HAVE_NUMPY:
    import numpy as np
else:  # pragma: no cover - numpy is part of the baked toolchain
    np = None

#: Recognized engine backends (the ``REPRO_ENGINE`` values).
BACKENDS = ("pure", "columnar")

#: Flip to False to force the generic interpreter (tests exercise both).
CODEGEN = True


def resolve_backend(explicit=None):
    """The engine backend to use: an explicit choice, the
    ``REPRO_ENGINE`` environment override, or ``"columnar"``."""
    backend = explicit or os.environ.get("REPRO_ENGINE") or "columnar"
    if backend not in BACKENDS:
        raise ValueError(
            "unknown engine backend {!r}; expected one of {}".format(
                backend, "/".join(BACKENDS)
            )
        )
    if backend == "columnar" and not HAVE_NUMPY:
        global_stats.bump("join.columnar_unavailable")
        return "pure"
    return backend


def make_join(
    plan,
    relations,
    recorder=None,
    prefer_array=True,
    stats=None,
    backend="pure",
    setups=None,
):
    """Build the best executor for one planned join.

    The columnar executor is used when the backend asks for it, no
    sensitivity recorder is attached (incremental passes stay on the
    pure path), its setup is paid for (:func:`setup_is_paid`, or a hit
    in the ``setups`` cache), and every participating relation
    dictionary-encodes; otherwise the pure executor runs.  A join the
    setup rule turns away bumps ``join.columnar_declined``.  Both
    executors honour the same ``run()`` contract.
    """
    if backend == "columnar" and recorder is None and HAVE_NUMPY:
        if setup_is_paid(plan, relations) or (
            setups is not None
            and setups.setup(_setup_key(plan, relations)) is not None
        ):
            try:
                return ColumnarTrieJoin(
                    plan, relations, prefer_array=prefer_array, stats=stats,
                    setups=setups,
                )
            except ColumnarUnsupported:
                global_stats.bump("join.columnar_fallbacks")
        else:
            global_stats.bump("join.columnar_declined")
    return LeapfrogTrieJoin(plan, relations, recorder, prefer_array, stats=stats)


def setup_is_paid(plan, relations):
    """True when building the columnar layouts this join lacks costs no
    more than the rows it enumerates anyway.

    Every participating relation without a cached layout for its
    permutation must hold at most as many rows as the smallest level-0
    participant, where a participant with a constant prefix counts as 0
    rows.  So whole-relation scans run columnar (and leave their layouts
    behind), while point lookups, seeks into a relation a commit just
    replaced, and small delta passes over large relations stay pure.
    """
    first = plan.participants[0] if plan.var_order else ()
    budget = min(
        (
            0 if plan.atom_plans[atom_index].const_prefix
            else len(relations[plan.atom_plans[atom_index].pred])
            for atom_index, _ in first
        ),
        default=0,
    )
    for atom_plan in plan.atom_plans:
        relation = relations[atom_plan.pred]
        if len(relation) > budget and not relation.has_columnar(atom_plan.perm):
            return False
    return True


# -- join setup: per (plan, relation versions) columnar tries ----------------


class _AtomArrays:
    """Columnar trie of one atom's permuted relation, join-ready.

    Per own-depth ``d``: ``keys[d]`` holds each trie node's key as a
    *level-global* dictionary code, and ``comp[d]`` the sorted
    ``parent_node * level_domain_size + key`` composites that make
    per-node seeks a single global ``searchsorted``.  ``child_lo`` /
    ``child_cnt`` map a node to its children's index range one depth
    down.
    """

    __slots__ = ("keys", "comp", "child_lo", "child_cnt", "r0", "n_levels")

    def __init__(self, atom_plan, layout, lo, hi, value_index, sizes):
        n_const = len(atom_plan.const_prefix)
        n_levels = len(atom_plan.levels)
        starts = [
            layout.run_starts(n_const + depth, lo, hi)
            for depth in range(n_levels)
        ]
        self.n_levels = n_levels
        self.r0 = len(starts[0])
        self.keys = []
        self.comp = []
        self.child_lo = []
        self.child_cnt = []
        for depth in range(n_levels):
            level = atom_plan.levels[depth]
            level_size = sizes[level]
            local_domain = layout.domains[n_const + depth]
            index = value_index[level]
            remap = np.fromiter(
                (index[value] for value in local_domain),
                np.int64,
                count=len(local_domain),
            )
            keys = remap[layout.codes[n_const + depth][starts[depth]]]
            self.keys.append(keys)
            if depth == 0:
                self.comp.append(keys)
            else:
                if len(starts[depth - 1]) * (level_size + 1) >= 2**62:
                    raise ColumnarUnsupported("composite seek keys overflow")
                parent = (
                    np.searchsorted(starts[depth - 1], starts[depth], side="right")
                    - 1
                )
                self.comp.append(parent * level_size + keys)
        for depth in range(n_levels - 1):
            child_lo = np.searchsorted(starts[depth + 1], starts[depth]).astype(
                np.int64
            )
            child_cnt = np.empty(len(child_lo), np.int64)
            child_cnt[:-1] = child_lo[1:] - child_lo[:-1]
            child_cnt[-1] = len(starts[depth + 1]) - child_lo[-1]
            self.child_lo.append(child_lo)
            self.child_cnt.append(child_cnt)


class _JoinSetup:
    """Everything the vectorized loops need for one (plan, versions)."""

    __slots__ = ("atoms", "domains", "domain_arrays", "value_index", "sizes",
                 "numeric", "empty")

    def __init__(self, atoms, domains, value_index, sizes, numeric, empty=False):
        self.atoms = atoms
        self.domains = domains  # per level: sorted value list | None
        self.value_index = value_index  # per level: {value: code} | None
        self.sizes = sizes  # per level: len(domain) or 1
        # per level: the domain as an int64/float64 array when a
        # vectorizable comparison reads it and it is homogeneous
        self.numeric = numeric
        self.empty = empty
        self.domain_arrays = [None] * len(domains)

    def domain_array(self, level):
        """The level's decode table as an object ndarray (cached)."""
        array = self.domain_arrays[level]
        if array is None:
            domain = self.domains[level]
            array = np.empty(len(domain), object)
            array[:] = domain
            self.domain_arrays[level] = array
        return array


def _plan_signature(plan):
    return (
        plan.var_order,
        tuple(
            (ap.pred, ap.perm, ap.const_prefix, ap.levels)
            for ap in plan.atom_plans
        ),
    )


def _plan_shape(plan):
    """The plan signature minus constant values: generated join loops
    depend on how many constants prefix an atom, not on which."""
    return (
        plan.var_order,
        tuple(
            (ap.pred, ap.perm, len(ap.const_prefix), ap.levels)
            for ap in plan.atom_plans
        ),
    )


_NP_COMPARE = {
    "=": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
} if HAVE_NUMPY else {}


def _vector_compare_levels(plan):
    """Levels read by a comparison whose two sides are each a variable
    or a constant (the comparisons :meth:`ColumnarTrieJoin._vector_compare`
    may evaluate as one numpy operation)."""
    level_of = {name: level for level, name in enumerate(plan.var_order)}
    levels = set()
    for entries in plan.filters.values():
        for entry in entries:
            if not isinstance(entry, CompareAtom):
                continue
            sides = (entry.left, entry.right)
            if all(isinstance(side, (Var, Const)) for side in sides):
                levels.update(
                    level_of[side.name] for side in sides if isinstance(side, Var)
                )
    return levels


def _build_setup(plan, relations):
    """Columnar tries + per-variable dictionaries for one join."""
    n_levels = len(plan.var_order)
    layouts = []
    for atom_plan in plan.atom_plans:
        relation = relations[atom_plan.pred]
        layout = relation.columnar(atom_plan.perm)  # may raise Unsupported
        if atom_plan.const_prefix:
            rows = relation.flat(atom_plan.perm)
            lo = bisect_left(rows, atom_plan.const_prefix)
            hi = bisect_left(rows, atom_plan.const_prefix + (TOP,))
        else:
            lo, hi = 0, layout.n_rows
        if lo >= hi:
            return _JoinSetup((), [None] * n_levels, [None] * n_levels,
                              [1] * n_levels, [None] * n_levels, empty=True)
        layouts.append((atom_plan, layout, lo, hi))

    # per-variable dictionaries: the ordered union of every participating
    # column's domain.  The first participant's representative wins for
    # values that compare equal across atoms, mirroring first-atom
    # iterator order in the pure leapfrog.
    level_values = [None] * n_levels
    for atom_plan, layout, _, _ in layouts:
        n_const = len(atom_plan.const_prefix)
        for depth, level in enumerate(atom_plan.levels):
            seen = level_values[level]
            if seen is None:
                seen = level_values[level] = ({}, [])
            index, ordered = seen
            for value in layout.domains[n_const + depth]:
                if value not in index:
                    index[value] = True
                    ordered.append(value)
    domains = [None] * n_levels
    value_index = [None] * n_levels
    sizes = [1] * n_levels
    numeric = [None] * n_levels
    compared = _vector_compare_levels(plan)
    for level in range(n_levels):
        if level_values[level] is None:
            continue  # assign-only level: raw values, no dictionary
        try:
            merged = sorted(level_values[level][1])
        except TypeError as exc:
            raise ColumnarUnsupported(
                "join key values do not merge-sort: {}".format(exc)
            )
        domains[level] = merged
        value_index[level] = {value: code for code, value in enumerate(merged)}
        sizes[level] = len(merged) or 1
        if level in compared and merged:
            numeric[level] = numeric_domain(merged)

    atoms = tuple(
        _AtomArrays(atom_plan, layout, lo, hi, value_index, sizes)
        for atom_plan, layout, lo, hi in layouts
    )
    return _JoinSetup(atoms, domains, value_index, sizes, numeric)


def _setup_key(plan, relations):
    preds = sorted({ap.pred for ap in plan.atom_plans})
    return (
        _plan_signature(plan),
        tuple((pred, relations[pred].structural_hash()) for pred in preds),
    )


def _setup_for(plan, relations, setups):
    """The join setup, from the ``setups`` cache (a
    :class:`~repro.engine.plancache.PlanCache`) when one is given."""
    key = setup = None
    if setups is not None:
        key = _setup_key(plan, relations)
        setup = setups.setup(key)
    if setup is not None:
        global_stats.bump("join.columnar_setup_hits")
        return setup
    global_stats.bump("join.columnar_setups")
    setup = _build_setup(plan, relations)
    if setups is not None:
        setups.store_setup(key, setup)
    return setup


# -- shared vectorized primitives -------------------------------------------


def _range_concat(lo, cnt, total):
    """Concatenate ``arange(lo[i], lo[i] + cnt[i])`` for every ``i``."""
    ends = cnt.cumsum()
    return np.arange(total, dtype=np.int64) + np.repeat(lo - (ends - cnt), cnt)


def _code_of(index, value):
    """Dictionary code of a runtime-computed value (-1 = not joinable)."""
    try:
        code = index.get(value, -1)
    except TypeError:  # unhashable computed value: matches nothing
        return -1
    return code


# -- the executor ------------------------------------------------------------


class ColumnarTrieJoin:
    """Vectorized drop-in for :class:`LeapfrogTrieJoin` (no recorder).

    ``run()`` yields exactly the pure executor's tuples in exactly its
    order.  Construction raises :class:`ColumnarUnsupported` when the
    join cannot be vectorized (the :func:`make_join` factory then falls
    back to the pure executor).
    """

    def __init__(
        self,
        plan,
        relations,
        recorder=None,
        prefer_array=True,
        stats=None,
        setups=None,
    ):
        if recorder is not None:
            raise ColumnarUnsupported("sensitivity recording is a pure-path run")
        self.plan = plan
        self.relations = relations
        self.prefer_array = prefer_array
        self.stats = stats
        self._setup = _setup_for(plan, relations, setups)

    # -- counters ---------------------------------------------------------

    def _count_batch(self, n_probes):
        stats = self.stats
        if stats is not None:
            stats["vector_seeks"] = stats.get("vector_seeks", 0) + n_probes
            stats["batches"] = stats.get("batches", 0) + 1
        global_stats.bump("join.vector_seeks", n_probes)
        global_stats.observe("join.batch_sizes", n_probes)

    def _count_steps(self, n_rows):
        stats = self.stats
        if stats is not None:
            stats["steps"] = stats.get("steps", 0) + n_rows

    # -- vectorized building blocks ---------------------------------------

    def _enumerate(self, arrays, depth, cur, frontier):
        """All candidate (frontier row, node) pairs of the driver atom."""
        if depth == 0:
            r0 = arrays.r0
            rows = np.repeat(np.arange(frontier, dtype=np.int64), r0)
            nodes = np.tile(np.arange(r0, dtype=np.int64), frontier)
        else:
            lo = arrays.child_lo[depth - 1][cur]
            cnt = arrays.child_cnt[depth - 1][cur]
            total = int(cnt.sum())
            rows = np.repeat(np.arange(frontier, dtype=np.int64), cnt)
            nodes = _range_concat(lo, cnt, total)
        return rows, arrays.keys[depth][nodes], nodes

    def _member(self, arrays, depth, cur, rows, vals, level_size):
        """Batched seek: for every candidate, the matching node of this
        atom under its current trie position (ok=False where absent)."""
        comp = arrays.comp[depth]
        if depth == 0:
            target = vals
        else:
            target = cur[rows] * level_size + vals
        pos = np.searchsorted(comp, target)
        pos = np.minimum(pos, len(comp) - 1)
        self._count_batch(len(target))
        return comp[pos] == target, pos

    # -- filter / assign support (row-wise, shared with pure semantics) ----

    def _decode_column(self, level, column):
        tag, array = column
        if tag == "raw":
            return array
        return self._setup.domain_array(level)[array]

    def _bindings_rows(self, columns, upto):
        """Per-row bindings dicts for variables bound at levels < upto."""
        names = self.plan.var_order
        decoded = [
            self._decode_column(level, columns[level]) for level in range(upto)
        ]
        if not decoded:
            return [{} for _ in range(1)]
        frontier = len(decoded[0])
        return [
            {names[level]: decoded[level][row] for level in range(upto)}
            for row in range(frontier)
        ]

    def _apply_filters(self, adapter, filters, columns, level):
        """Filter mask over the frontier, filters taken in plan order.

        A comparison between numeric variables and constants is one
        numpy comparison (:meth:`_vector_compare`); every other filter
        runs row-wise through the pure executor's filter logic, on the
        rows the earlier filters kept."""
        names = self.plan.var_order
        keep = np.ones(len(columns[level][1]), dtype=bool)
        decoded = None
        bindings = {}
        for entry in filters:
            mask = self._vector_compare(entry, columns)
            if mask is not None:
                keep &= mask
                continue
            if decoded is None:
                decoded = [
                    self._decode_column(lvl, columns[lvl])
                    for lvl in range(level + 1)
                ]
            for row in np.flatnonzero(keep).tolist():
                row_bindings = bindings.get(row)
                if row_bindings is None:
                    row_bindings = bindings[row] = {
                        names[lvl]: decoded[lvl][row] for lvl in range(level + 1)
                    }
                if not adapter._filter_holds(entry, row_bindings):
                    keep[row] = False
        return keep

    def _vector_compare(self, entry, columns):
        """The comparison's mask as one numpy operation, or ``None``
        when either side is not a numeric variable or constant, or the
        two sides' kinds differ (int against float stays row-wise:
        float64 cannot hold every int64 exactly)."""
        if not isinstance(entry, CompareAtom):
            return None
        left = self._numeric_side(entry.left, columns)
        if left is None:
            return None
        right = self._numeric_side(entry.right, columns)
        if right is None or right[0] != left[0]:
            return None
        return _NP_COMPARE[entry.op](left[1], right[1])

    def _numeric_side(self, expr, columns):
        if isinstance(expr, Const):
            numeric = numeric_domain([expr.value])
            return None if numeric is None else (numeric.dtype.kind, expr.value)
        if not isinstance(expr, Var):
            return None
        level = self.plan.var_order.index(expr.name)
        numeric = self._setup.numeric[level]
        tag, codes = columns[level]
        if numeric is None or tag != "code":
            return None
        return numeric.dtype.kind, numeric[codes]

    # -- the generic interpreter ------------------------------------------

    def _interpret(self, adapter):
        """Level-by-level vectorized expansion; returns decoded columns
        (object arrays aligned with ``var_order``) or ``None``."""
        plan = self.plan
        setup = self._setup
        atoms = setup.atoms
        cur = [None] * len(atoms)
        columns = []
        frontier = 1
        for level in range(len(plan.var_order)):
            parts = plan.participants[level]
            assign = plan.assigns.get(level)
            if assign is not None:
                bindings_rows = self._bindings_rows(columns, level)
                values = [assign.compute(b) for b in bindings_rows]
                rows = np.arange(frontier, dtype=np.int64)
                if parts:
                    index = setup.value_index[level]
                    vals = np.fromiter(
                        (_code_of(index, v) for v in values),
                        np.int64,
                        count=frontier,
                    )
                    keep = vals >= 0
                    column = ("code", vals)
                else:
                    raw = np.empty(frontier, object)
                    raw[:] = values
                    keep = None
                    column = ("raw", raw)
                cand = {}
                if parts:
                    safe_vals = np.where(keep, vals, 0)
                    for atom_index, depth in parts:
                        ok, pos = self._member(
                            atoms[atom_index], depth, cur[atom_index],
                            rows, safe_vals, setup.sizes[level],
                        )
                        cand[atom_index] = pos
                        keep = keep & ok
            else:
                totals = [
                    atoms[ai].r0 * frontier
                    if depth == 0
                    else int(atoms[ai].child_cnt[depth - 1][cur[ai]].sum())
                    for ai, depth in parts
                ]
                driver = totals.index(min(totals))
                driver_index, driver_depth = parts[driver]
                rows, vals, driver_nodes = self._enumerate(
                    atoms[driver_index], driver_depth, cur[driver_index],
                    frontier,
                )
                if not len(vals):
                    return None
                cand = {driver_index: driver_nodes}
                keep = None
                for position, (atom_index, depth) in enumerate(parts):
                    if position == driver:
                        continue
                    ok, pos = self._member(
                        atoms[atom_index], depth, cur[atom_index],
                        rows, vals, setup.sizes[level],
                    )
                    cand[atom_index] = pos
                    keep = ok if keep is None else keep & ok
                column = ("code", vals)
            if keep is not None and not keep.all():
                rows = rows[keep]
                column = (column[0], column[1][keep])
                cand = {ai: c[keep] for ai, c in cand.items()}
            if not len(column[1]):
                return None
            for atom_index in range(len(atoms)):
                if atom_index in cand:
                    cur[atom_index] = cand[atom_index]
                elif cur[atom_index] is not None:
                    cur[atom_index] = cur[atom_index][rows]
            columns = [(tag, arr[rows]) for tag, arr in columns]
            columns.append(column)
            frontier = len(column[1])
            filters = plan.filters[level]
            if filters:
                keep = self._apply_filters(adapter, filters, columns, level)
                if not keep.all():
                    columns = [(tag, arr[keep]) for tag, arr in columns]
                    cur = [
                        c[keep] if c is not None else None for c in cur
                    ]
                    frontier = len(columns[-1][1])
                    if not frontier:
                        return None
            self._count_steps(frontier)
        return [
            self._decode_column(level, column)
            for level, column in enumerate(columns)
        ]

    # -- run ---------------------------------------------------------------

    def run(self):
        """Yield all satisfying assignments as ``var_order``-aligned
        tuples — the pure executor's output, bit for bit."""
        plan = self.plan
        adapter = LeapfrogTrieJoin(
            plan, self.relations, None, self.prefer_array
        )
        for comparison in plan.ground_filters:
            if not comparison.holds({}):
                return
        for atom in plan.ground_atoms:
            if not adapter._filter_holds(atom, {}):
                return
        if self._setup.empty:
            return
        if not plan.var_order:
            yield ()
            return
        global_stats.bump("join.columnar_joins")
        specialized = _specialized_for(plan) if CODEGEN else None
        if specialized is not None:
            result = specialized(self)
        else:
            result = self._interpret(adapter)
        if result is None:
            return
        yield from zip(*result)


def join_count(plan, relations, prefer_array=True):
    """Number of satisfying assignments via the columnar executor."""
    executor = ColumnarTrieJoin(plan, relations, prefer_array=prefer_array)
    return sum(1 for _ in executor.run())


# -- per-plan specialization (generated join loops) ---------------------------


_CODEGEN_CACHE = {}
_CODEGEN_CACHE_LIMIT = 128
_CODEGEN_LOCK = threading.Lock()


def _codegen_eligible(plan):
    """Specialize only plain conjunctive shapes: every level driven by
    relation iterators, no assignments, no comparison/negation filters
    (those run on the generic interpreter, row-wise)."""
    if not plan.var_order:
        return False
    if plan.assigns:
        return False
    if any(plan.filters[level] for level in range(len(plan.var_order))):
        return False
    return all(plan.participants[level] for level in range(len(plan.var_order)))


def _emit_level(lines, plan, level, alive):
    """Emit one level's expansion into ``lines``.

    ``alive`` maps atom index -> True when the atom's current-node
    array is still needed (it participates at this or a later level).
    """
    parts = plan.participants[level]
    indent = "    "
    put = lambda text: lines.append(indent + text)
    put("# level {} ({})".format(level, plan.var_order[level]))
    for atom_index, depth in parts:
        if depth == 0:
            put("t{} = A{}.r0 * F".format(atom_index, atom_index))
        else:
            put(
                "t{ai} = int(A{ai}.child_cnt[{d}][n{ai}].sum())".format(
                    ai=atom_index, d=depth - 1
                )
            )
    totals = ", ".join("t{}".format(ai) for ai, _ in parts)
    if len(parts) > 1:
        put("_totals = ({},)".format(totals))
        put("_driver = _totals.index(min(_totals))")
    else:
        put("_driver = 0")
    for position, (atom_index, depth) in enumerate(parts):
        keyword = "if" if position == 0 else "elif"
        put("{} _driver == {}:".format(keyword, position))
        inner = indent + "    "
        if depth == 0:
            lines.append(inner + "rows = np.repeat(np.arange(F, dtype=np.int64), A{ai}.r0)".format(ai=atom_index))
            lines.append(inner + "c{ai} = np.tile(np.arange(A{ai}.r0, dtype=np.int64), F)".format(ai=atom_index))
        else:
            lines.append(inner + "_lo = A{ai}.child_lo[{d}][n{ai}]".format(ai=atom_index, d=depth - 1))
            lines.append(inner + "_cnt = A{ai}.child_cnt[{d}][n{ai}]".format(ai=atom_index, d=depth - 1))
            lines.append(inner + "rows = np.repeat(np.arange(F, dtype=np.int64), _cnt)")
            lines.append(inner + "c{ai} = _range_concat(_lo, _cnt, int(_cnt.sum()))".format(ai=atom_index))
        lines.append(inner + "vals = A{ai}.keys[{d}][c{ai}]".format(ai=atom_index, d=depth))
        lines.append(inner + "keep = None")
        for other_position, (other_index, other_depth) in enumerate(parts):
            if other_position == position:
                continue
            if other_depth == 0:
                lines.append(inner + "_t = vals")
            else:
                lines.append(
                    inner
                    + "_t = n{oi}[rows] * D{lvl} + vals".format(
                        oi=other_index, lvl=level
                    )
                )
            lines.append(inner + "_p = np.searchsorted(A{oi}.comp[{od}], _t)".format(oi=other_index, od=other_depth))
            lines.append(inner + "_p = np.minimum(_p, A{oi}.comp[{od}].size - 1)".format(oi=other_index, od=other_depth))
            lines.append(inner + "_ok = A{oi}.comp[{od}][_p] == _t".format(oi=other_index, od=other_depth))
            lines.append(inner + "self._count_batch(_t.size)")
            lines.append(inner + "c{oi} = _p".format(oi=other_index))
            lines.append(inner + "keep = _ok if keep is None else keep & _ok")
    put("if keep is not None and not keep.all():")
    put("    rows = rows[keep]; vals = vals[keep]")
    for atom_index, _ in parts:
        put("    c{ai} = c{ai}[keep]".format(ai=atom_index))
    put("if not vals.size:")
    put("    return None")
    part_indexes = {atom_index for atom_index, _ in parts}
    for atom_index in sorted(alive):
        if atom_index in part_indexes:
            put("n{ai} = c{ai}".format(ai=atom_index))
        elif alive[atom_index] == "open":
            put("n{ai} = n{ai}[rows]".format(ai=atom_index))
    for earlier in range(level):
        put("col{} = col{}[rows]".format(earlier, earlier))
    put("col{} = vals".format(level))
    put("F = vals.size")
    put("self._count_steps(F)")


def _gen_source(plan):
    """Source of the specialized join function for one plan shape."""
    n_levels = len(plan.var_order)
    n_atoms = len(plan.atom_plans)
    last_level_of = [0] * n_atoms
    for level in range(n_levels):
        for atom_index, _ in plan.participants[level]:
            last_level_of[atom_index] = level
    lines = [
        "def _specialized(self):",
        "    setup = self._setup",
    ]
    for atom_index in range(n_atoms):
        lines.append("    A{ai} = setup.atoms[{ai}]".format(ai=atom_index))
    for level in range(n_levels):
        if setup_needs_size(plan, level):
            lines.append("    D{lvl} = setup.sizes[{lvl}]".format(lvl=level))
    lines.append("    F = 1")
    # alive[atom] tracks whether the atom has an open node array yet;
    # atoms past their last participation are dropped (no reindexing)
    alive = {}
    for level in range(n_levels):
        for atom_index, _ in plan.participants[level]:
            alive[atom_index] = "open"
        _emit_level(lines, plan, level, alive)
        for atom_index in list(alive):
            if last_level_of[atom_index] <= level:
                del alive[atom_index]
    decoded = ", ".join(
        "self._decode_column({lvl}, ('code', col{lvl}))".format(lvl=level)
        for level in range(n_levels)
    )
    lines.append("    return [{}]".format(decoded))
    return "\n".join(lines) + "\n"


def setup_needs_size(plan, level):
    """True when the generated code composites with this level's domain
    size (some participant seeks at depth > 0)."""
    return any(depth > 0 for _, depth in plan.participants[level])


def _specialized_for(plan):
    """Compiled specialized join loop for ``plan`` (cached), or ``None``
    when the shape runs on the generic interpreter."""
    if not _codegen_eligible(plan):
        return None
    key = _plan_shape(plan)
    with _CODEGEN_LOCK:
        fn = _CODEGEN_CACHE.get(key)
    if fn is None:
        source = _gen_source(plan)
        namespace = {
            "np": np,
            "_range_concat": _range_concat,
        }
        exec(compile(source, "<columnar-join:{}>".format(
            plan.atom_plans[0].pred if plan.atom_plans else "?"), "exec"),
            namespace)
        fn = namespace["_specialized"]
        fn.source = source
        with _CODEGEN_LOCK:
            while len(_CODEGEN_CACHE) >= _CODEGEN_CACHE_LIMIT:
                _CODEGEN_CACHE.pop(next(iter(_CODEGEN_CACHE)))
            _CODEGEN_CACHE[key] = fn
        global_stats.bump("join.columnar_specializations")
    return fn
