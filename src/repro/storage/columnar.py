"""Columnar (dictionary-encoded) relation storage for vectorized LFTJ.

The flat-array promotion path in :mod:`repro.storage.relation` already
materializes each permutation of a relation as one sorted list of
tuples.  This module takes the next step for the raw-speed engine
backend: each *column* of that sorted list is dictionary-encoded into a
contiguous ``numpy`` ``int64`` array of codes, where the per-column
dictionary (the *domain*) is the sorted list of distinct values.

The encoding is **order-preserving per column**: ``code(u) < code(v)``
iff ``u < v``.  Lexicographic order of the code rows therefore equals
lexicographic order of the value rows, so every structure the pure
backends derive from sorted tuples (trie levels, run boundaries, seek
targets) has an exact integer twin that ``numpy`` can batch-process.

Canonicalization follows the :func:`repro.ds.hashing.canonical_key`
rules exactly — ``-0.0`` collapses into ``0.0`` and NaN is rejected —
so the columnar and pure backends sort, compare, and hash identically.

Values that do not encode (mutually incomparable or unhashable column
contents) raise :class:`ColumnarUnsupported`; callers fall back to the
pure-Python iterator backends.  ``numpy`` itself is imported lazily and
its absence is reported the same way, so the pure path never needs it.
"""

from repro import stats
from repro.ds.hashing import canonical_key

try:  # gate the accelerator dependency: absence means "pure path only"
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via HAVE_NUMPY gate
    _np = None

HAVE_NUMPY = _np is not None


class ColumnarUnsupported(TypeError):
    """The relation's values cannot be dictionary-encoded.

    Raised for columns whose values are mutually incomparable or
    unhashable, and when numpy is unavailable.  The engine treats it as
    "use the pure-Python backend", never as an error.
    """


def encode_column(values):
    """Dictionary-encode one column of datums.

    Returns ``(codes, domain)``: ``codes`` is an ``int64`` array with
    ``codes[i] == domain.index(values[i])`` and ``domain`` the sorted
    list of distinct *canonical* values (original Python objects, never
    numpy scalars, so decoded tuples are interchangeable with pure-path
    tuples under both ``==`` and ``stable_hash``).
    """
    if _np is None:
        raise ColumnarUnsupported("numpy is not available")
    try:
        domain = sorted({canonical_key(v) for v in values})
    except ValueError:
        raise  # NaN rejection is a data error, not an encoding gap
    except TypeError as exc:
        raise ColumnarUnsupported(
            "column values do not dictionary-encode: {}".format(exc)
        )
    index = {value: code for code, value in enumerate(domain)}
    codes = _np.fromiter(
        (index[canonical_key(v)] for v in values), _np.int64, count=len(values)
    )
    return codes, domain


_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def numeric_domain(domain):
    """A sorted, non-empty domain as an ``int64`` array when every value
    is a non-bool ``int`` within int64, as a ``float64`` array when
    every value is a ``float``; ``None`` otherwise (the array then could
    not stand in for the values exactly)."""
    kinds = {type(value) for value in domain}
    if kinds == {int}:
        if domain[0] < _INT64_MIN or domain[-1] > _INT64_MAX:
            return None
        return _np.array(domain, dtype=_np.int64)
    if kinds == {float}:
        return _np.array(domain, dtype=_np.float64)
    return None


class ColumnarLayout:
    """One permutation of one relation version, column-encoded.

    ``codes[j]`` is the ``int64`` code array of column ``j`` over the
    permuted, lexicographically sorted tuple list; ``domains[j]`` is
    that column's sorted dictionary.  Row ``i`` of the underlying flat
    array decodes to ``tuple(domains[j][codes[j][i]] for j)``.
    """

    __slots__ = ("arity", "n_rows", "codes", "domains")

    def __init__(self, rows, arity):
        self.arity = arity
        self.n_rows = len(rows)
        self.codes = []
        self.domains = []
        for position in range(arity):
            codes, domain = encode_column([row[position] for row in rows])
            self.codes.append(codes)
            self.domains.append(domain)

    def run_starts(self, depth, lo=0, hi=None):
        """Row indices (within ``[lo, hi)``) starting a run of equal
        ``depth+1``-column prefixes — the node boundaries of the trie
        level at ``depth``.  Vectorized: one ``!=`` pass per column.
        """
        if hi is None:
            hi = self.n_rows
        count = hi - lo
        if count <= 0:
            return _np.empty(0, _np.int64)
        change = _np.zeros(count, dtype=bool)
        change[0] = True
        for position in range(depth + 1):
            column = self.codes[position][lo:hi]
            change[1:] |= column[1:] != column[:-1]
        return _np.flatnonzero(change).astype(_np.int64) + lo
