"""Delta-driven constraint checks agree with the full walk.

A one-tuple commit checks only the LHS bindings its deltas touch
(:mod:`repro.runtime.constraints`).  These tests drive random constraint
programs through random commit sequences and assert, at every commit,
that the delta path reports exactly the violations of the full walk —
same content, same order, same limit of 10 — and so reaches the same
accept/reject decision.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import Workspace
from repro.runtime.constraints import ConstraintChecker
from repro.runtime.errors import ConstraintViolation

SCHEMA = """
a(x, y) -> int(x), int(y).
b(x) -> int(x).
c(x, y) -> int(x), int(y).
f[x] = y -> int(x), int(y).
d(x, z) <- a(x, y), c(y, z).
s[x] = u <- agg<<u = sum(y)>> a(x, y).
t[] = u <- agg<<u = count(x)>> b(x).
"""

CONSTRAINTS = [
    "a(x, y) -> b(x).",                 # inclusion dependency
    "a(x, y) -> y >= x.",               # comparison
    "a(x, y), !b(y) -> c(x, y).",       # negated LHS atom
    "a(x, y) -> !c(y, x).",             # negated RHS atom
    "b(x) -> f[x] = _.",                # functional RHS atom
    "b(x) -> f[x] >= x.",               # functional term in a comparison
    "d(x, z) -> b(z).",                 # derived view on the LHS
    "s[x] = u -> u <= 30.",             # aggregate view on the LHS
    "b(x) -> s[x] = _.",                # aggregate view on the RHS
    "a(x, y) -> b(_).",                 # RHS atom with no shared variable
    "c(x, y), t[] = n -> y < n.",       # LHS join with a global aggregate
    "a(x, y), c(y, z) -> b(z).",        # multi-atom LHS
    "a(x, y), z = y + 1 -> b(z).",      # shared variable bound by assignment
]

BASE_ARITY = {"a": 2, "b": 1, "c": 2, "f": 2}

_ORIGINAL_CHECK = ConstraintChecker.check


def _texts(violations):
    return [(constraint.text, binding) for constraint, binding in violations]


class _Comparison:
    """Wraps :meth:`ConstraintChecker.check`: every delta-path call is
    re-run as a full walk, per constraint and as a whole."""

    def __init__(self):
        self.delta_calls = 0

    def patch(self):
        """Route every :meth:`ConstraintChecker.check` through this."""
        def check(checker, *args, **kwargs):
            return self(checker, *args, **kwargs)
        return mock.patch.object(ConstraintChecker, "check", new=check)

    def __call__(self, checker, relations, changed_preds=None, exempt_preds=(),
                 deltas=None):
        result = _ORIGINAL_CHECK(checker, relations, changed_preds,
                                 exempt_preds, deltas)
        if deltas is None:
            return result
        self.delta_calls += 1
        full = _ORIGINAL_CHECK(checker, relations, set(deltas), exempt_preds)
        assert _texts(result) == _texts(full)
        assert bool(result) == bool(full)
        # the delta path itself, also where the size rule would have
        # sent a bulk delta down the full walk
        exempt = set(exempt_preds)
        for compiled in checker.compiled:
            if not any(p in deltas for p in compiled.preds):
                continue
            if exempt & set(compiled.preds):
                continue
            reason = compiled.full_walk_reason(relations, deltas)
            if reason not in (None, "bulk"):
                continue
            assert compiled.check(relations, deltas=deltas) == \
                compiled.check(relations)
        return result


def _run(program, ops):
    ws = Workspace()
    ws.addblock(SCHEMA + "\n".join(program), name="schema")
    comparison = _Comparison()
    with comparison.patch():
        for pred, added, removed in ops:
            try:
                ws.load(pred, sorted(added), remove=sorted(removed))
            except ConstraintViolation:
                pass  # rejected alike on both paths (asserted per check)
    return comparison


def _fan(x):
    return "a", {(x, y) for y in range(14)}, set()


def _tuples(pred):
    values = st.integers(0, 2)
    return st.tuples(*([values] * BASE_ARITY[pred]))


@st.composite
def _op(draw):
    pred = draw(st.sampled_from(sorted(BASE_ARITY)))
    if pred == "a" and draw(st.integers(0, 5)) == 0:
        # a fan of rows under one key: enough to exceed the limit of 10
        return _fan(draw(st.integers(0, 2)))
    added = draw(st.sets(_tuples(pred), max_size=2))
    removed = draw(st.sets(_tuples(pred), max_size=2)) - added
    return pred, added, removed


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
# one pinned example per binding source, so every run exercises each
@example(  # positive RHS atom loses a tuple; more than 10 violations
    [CONSTRAINTS[0]],
    [("b", {(0,), (1,)}, set()), _fan(0), ("b", set(), {(0,)})],
)
@example(  # negated LHS atom loses a tuple
    [CONSTRAINTS[2]],
    [("b", {(1,), (2,)}, set()), ("a", {(0, 1), (0, 2)}, set()),
     ("b", set(), {(1,)})],
)
@example(  # negated RHS atom gains a tuple
    [CONSTRAINTS[3]],
    [("a", {(0, 1), (1, 2)}, set()), ("c", {(2, 2)}, set()),
     ("c", {(1, 0)}, set())],
)
@example(  # functional RHS atom and a derived view lose tuples
    [CONSTRAINTS[4], CONSTRAINTS[6]],
    [("f", {(0, 1), (1, 1)}, set()), ("b", {(0,), (1,)}, set()),
     ("c", {(0, 0), (1, 1)}, set()), ("a", {(0, 0)}, set()),
     ("f", set(), {(1, 1)}), ("b", set(), {(0,)})],
)
@example(  # aggregate views on both sides
    [CONSTRAINTS[7], CONSTRAINTS[8]],
    [("a", {(0, 1), (1, 1)}, set()), ("b", {(0,), (1,)}, set()),
     _fan(2), ("a", {(0, 2)}, set()), ("a", set(), {(1, 1)})],
)
@given(
    st.lists(st.sampled_from(CONSTRAINTS), min_size=1, max_size=3, unique=True),
    st.lists(_op(), min_size=1, max_size=25),
)
def test_delta_path_matches_full_walk(program, ops):
    comparison = _run(program, ops)
    assert comparison.delta_calls == len(ops)


def _grow(ws, rows_b, rows_a):
    ws.load("b", rows_b)
    ws.load("a", rows_a)


class TestDeltaPath:
    def test_one_tuple_commit_checks_only_its_bindings(self):
        ws = Workspace()
        ws.addblock(SCHEMA + CONSTRAINTS[0], name="schema")
        _grow(ws, [(x,) for x in range(50)], [(x, x) for x in range(50)])
        ws.reset_engine_stats()
        ws.load("a", [(7, 8)])
        stats = ws.engine_stats()
        # one binding each for a's type declaration and the inclusion
        assert stats["constraints.bindings_checked"] == 2
        assert "constraints.full_checks" not in stats

    def test_unshared_rhs_walks_everything(self):
        ws = Workspace()
        ws.addblock(SCHEMA + CONSTRAINTS[9], name="schema")
        _grow(ws, [(0,), (1,), (2,)], [(0, 0), (1, 1)])
        ws.reset_engine_stats()
        ws.load("b", [], remove=[(2,)])
        assert ws.engine_stats()["constraints.full_checks"] == 1

    def test_program_change_walks_everything(self):
        ws = Workspace()
        ws.addblock(SCHEMA, name="schema")
        ws.load("a", [(0, 0), (1, 1)])
        ws.reset_engine_stats()
        with pytest.raises(ConstraintViolation):
            ws.addblock(CONSTRAINTS[0], name="fk")
        assert ws.engine_stats()["constraints.full_checks"] >= 1

    def test_span_reason(self):
        ws = Workspace()
        ws.addblock(SCHEMA + CONSTRAINTS[0], name="schema")
        _grow(ws, [(x,) for x in range(8)], [(x, x) for x in range(8)])
        with ws.profile() as prof:
            ws.load("a", [(3, 4)])
            ws.load("c", [(0, 0)])  # into an empty relation
        reasons = [span.attrs.get("reason")
                   for span in prof.find_all("constraints.check")]
        assert reasons == ["delta", "bulk"]
