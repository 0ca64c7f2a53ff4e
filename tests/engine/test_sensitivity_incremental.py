"""Incremental freezing of sensitivity recorders.

``SensitivityRecorder.freeze`` re-coalesces only the sites recorded
since the previous freeze and shares every other entry with the
previous index.  The result must answer exactly like an index built
from scratch over every interval ever recorded (its lists may differ
where one interval lies inside another), earlier indexes must not
change, and the stored intervals must stay coalesced.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.sensitivity import SensitivityIndex, SensitivityRecorder
from repro.storage.datum import BOTTOM, TOP

SITES = [
    ("R", (0, 1), 0, ()),
    ("R", (0, 1), 1, (1,)),
    ("R", (0, 1), 1, (2,)),
    ("R", (1, 0), 0, ()),
    ("S", (0,), 0, ()),
]
PROBES = [("R", (a, b)) for a in range(-1, 8) for b in range(-1, 8)]
PROBES += [("S", (a,)) for a in range(-1, 8)]


@st.composite
def _interval(draw):
    low = draw(st.one_of(st.just(BOTTOM), st.integers(0, 6)))
    if low is BOTTOM:
        high = draw(st.one_of(st.just(TOP), st.integers(0, 6)))
    else:
        high = draw(st.one_of(st.just(TOP), st.integers(low, 6)))
    return low, high


_step = st.one_of(
    st.just(None),  # freeze
    st.tuples(st.sampled_from(SITES), _interval()),
)


def _answers(index):
    return [index.tuple_affects(pred, tup) for pred, tup in PROBES]


def _raw_of(steps):
    raw = {}
    for step in steps:
        if step is None:
            continue
        (pred, perm, level, context), interval = step
        raw.setdefault((pred, perm), {}).setdefault(level, {}).setdefault(
            context, []).append(interval)
    return raw


@settings(max_examples=80, deadline=None)
@given(st.lists(_step, max_size=30))
def test_incremental_freeze_equals_rebuild(steps):
    recorder = SensitivityRecorder()
    frozen = []  # (index, its answers when built)
    for position, step in enumerate(steps):
        if step is None:
            index = recorder.freeze()
            expected = SensitivityIndex(_raw_of(steps[:position]))
            assert _answers(index) == _answers(expected)
            frozen.append((index, _answers(index)))
            continue
        (pred, perm, level, context), (low, high) = step
        recorder.tracker(pred, perm, level, context).record(low, high)
    final = recorder.freeze()
    expected = SensitivityIndex(_raw_of(steps))
    assert _answers(final) == _answers(expected)
    # earlier indexes are snapshots: later recordings never reach them
    for index, answers in frozen:
        assert _answers(index) == answers


class TestIncrementalFreeze:
    def test_untouched_entries_are_shared(self):
        recorder = SensitivityRecorder()
        recorder.tracker("R", (0, 1), 1, ("a",)).record(1, 5)
        recorder.tracker("R", (0, 1), 1, ("b",)).record(1, 5)
        first = recorder.freeze()
        recorder.tracker("R", (0, 1), 1, ("a",)).record(8, 9)
        second = recorder.freeze()
        assert second is not first
        assert second.tuple_affects("R", ("a", 8))
        assert not first.tuple_affects("R", ("a", 8))
        assert second.intervals_for("R")[1][("b",)] is \
            first.intervals_for("R")[1][("b",)]

    def test_repeated_recordings_stay_coalesced(self):
        recorder = SensitivityRecorder()
        for _ in range(50):
            recorder.tracker("R", (0,), 0, ()).record(3, 7)
            recorder.tracker("R", (0,), 0, ()).record(4, 5)
            recorder.freeze()
        assert recorder.coalesced() == {("R", (0,)): {0: {(): [(3, 7)]}}}

    def test_contained_recording_keeps_the_entry(self):
        recorder = SensitivityRecorder()
        recorder.tracker("R", (0,), 0, ()).record(1, 10)
        first = recorder.freeze()
        recorder.tracker("R", (0,), 0, ()).record(2, 3)
        second = recorder.freeze()
        assert second.intervals_for("R") == first.intervals_for("R")

    def test_restored_data_freezes_whole(self):
        # a checkpoint restore fills the data without any tracker
        restored = SensitivityRecorder()
        restored._data = {("R", (0,)): {0: {(): [(1, 2), (5, 6)]}}}
        index = restored.freeze()
        assert index.tuple_affects("R", (5,))
        assert not index.tuple_affects("R", (3,))
