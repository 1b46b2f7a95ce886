"""Event loop determinism, RNG stream isolation, trace digests, faults."""

import hashlib
import heapq
import io
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenpool.errors import TRACE_REASONS, SimulationError
from tokenpool.simnet import (
    Engine,
    Fault,
    FaultBoard,
    FaultKind,
    Record,
    RngStreams,
    Trace,
    fail_outcome,
    message_dropped,
)


# -- engine -----------------------------------------------------------------


def test_engine_orders_by_time_then_insertion():
    engine = Engine()
    seen = []
    engine.schedule_at(10, lambda: seen.append("b1"))
    engine.schedule_at(5, lambda: seen.append("a"))
    engine.schedule_at(10, lambda: seen.append("b2"))
    engine.schedule_at(20, lambda: seen.append("c"))
    engine.run(20)
    assert seen == ["a", "b1", "b2", "c"]
    assert engine.now == 20


def test_engine_run_until_parks_clock_and_keeps_later_events():
    engine = Engine()
    seen = []
    engine.schedule_at(5, lambda: seen.append("early"))
    engine.schedule_at(50, lambda: seen.append("late"))
    engine.run(30)
    assert seen == ["early"]
    assert engine.now == 30
    engine.run(60)
    assert seen == ["early", "late"]


def test_engine_events_may_schedule_more_events():
    engine = Engine()
    seen = []

    def first():
        seen.append(("first", engine.now))
        engine.schedule_at(engine.now + 7, lambda: seen.append(("second", engine.now)))

    engine.schedule_at(3, first)
    engine.run(100)
    assert seen == [("first", 3), ("second", 10)]


def test_engine_rejects_scheduling_in_the_past():
    engine = Engine()
    engine.schedule_at(10, lambda: None)
    engine.run(10)
    with pytest.raises(SimulationError):
        engine.schedule_at(9, lambda: None)


class HeapEngine:
    """The reference engine: one heap entry ``(t, seq, action)`` per event,
    ties broken on the insertion sequence."""

    def __init__(self) -> None:
        self.now = 0
        self._seq = 0
        self._heap = []

    def schedule_at(self, t, action):
        if t < self.now:
            raise SimulationError(f"cannot schedule at {t}, clock is at {self.now}")
        heapq.heappush(self._heap, (t, self._seq, action))
        self._seq += 1

    def run(self, until):
        if until < self.now:
            raise SimulationError(f"cannot run until {until}, clock is at {self.now}")
        while self._heap and self._heap[0][0] <= until:
            t, _, action = heapq.heappop(self._heap)
            if t != self.now:
                self.now = t
            action()
        self.now = until


class Boom(Exception):
    """What a raising action of an engine program raises."""


#: Most actions one engine program schedules from inside actions.
SPAWN_BUDGET = 60


def test_engine_refuses_to_run_its_clock_backwards():
    # After run(150), run(50) used to park the clock at 50, so an action
    # scheduled at 60 then ran after one that had run at 100.
    engine = Engine()
    seen = []
    engine.schedule_at(100, lambda: seen.append(engine.now))
    engine.run(150)
    with pytest.raises(SimulationError):
        engine.run(50)
    assert engine.now == 150
    with pytest.raises(SimulationError):
        engine.schedule_at(60, lambda: seen.append(engine.now))
    engine.schedule_at(160, lambda: seen.append(engine.now))
    engine.run(150)
    engine.run(200)
    assert seen == [100, 160]


class Node:
    """An engine program's action held as a bound method, ``Node(act).run``,
    so ``schedule_at`` stores it as its function and object."""

    __slots__ = ("act",)

    def __init__(self, act):
        self.act = act

    def run(self):
        self.act()


def run_engine_program(engine, nodes, ops):
    """Run ``ops`` on ``engine`` and log what happened, in order.

    ``nodes[i]`` is ``(children, raises, bound)``: action ``i`` logs its id
    and ``now``, schedules each ``(delay, child)`` from inside itself, then
    raises ``Boom`` if ``raises``; it is scheduled as a bound method of a
    ``Node`` if ``bound``, else as a closure.  An op is ``("at", t, i)`` or
    ``("run", until)``; each logs its result, or what it raised."""
    log, spawned = [], [0]

    def action(i):
        children, raises, bound = nodes[i]

        def act():
            log.append(("act", i, engine.now))
            for delay, child in children:
                if spawned[0] < SPAWN_BUDGET:
                    spawned[0] += 1
                    engine.schedule_at(engine.now + delay, action(child))
            if raises:
                raise Boom(i)

        return Node(act).run if bound else act

    for op in ops:
        try:
            if op[0] == "at":
                engine.schedule_at(op[1], action(op[2]))
            else:
                engine.run(op[1])
        except (Boom, SimulationError) as exc:
            log.append((*op, type(exc).__name__, engine.now))
        else:
            log.append((*op, engine.now))
    return log


@st.composite
def engine_programs(draw):
    n = draw(st.integers(1, 12))
    nodes = []
    for i in range(n):
        # Children come later in the list, so a program always ends.
        children = []
        if i + 1 < n:
            delay = st.sampled_from([0, 0, 0, 1, 2, 5])
            children = draw(st.lists(st.tuples(delay, st.integers(i + 1, n - 1)), max_size=3))
        nodes.append((children, draw(st.integers(0, 4)) == 0, draw(st.booleans())))
    op = st.one_of(
        st.tuples(st.just("at"), st.integers(0, 20), st.integers(0, n - 1)),
        st.tuples(st.just("run"), st.integers(0, 25)),
    )
    return nodes, draw(st.lists(op, min_size=1, max_size=20)) + [("run", 40), ("run", 40)]


@settings(max_examples=100)
@given(engine_programs())
def test_engine_runs_every_program_as_the_heap_engine_does(program):
    # Same actions in the same order at the same now, the same raises and
    # refusals, and the same clock after every op: delay-0 actions run in
    # the pass of their instant, and a raise leaves the rest of its
    # instant pending for the next run, whether the actions are closures,
    # bound methods or a mix of the two.
    nodes, ops = program
    assert run_engine_program(Engine(), nodes, ops) == run_engine_program(HeapEngine(), nodes, ops)


# -- rng streams ------------------------------------------------------------


def test_rng_streams_are_reproducible():
    a = RngStreams(42).stream("x")
    b = RngStreams(42).stream("x")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_rng_streams_differ_by_seed_and_label():
    base = [RngStreams(42).stream("x").random() for _ in range(3)]
    other_seed = [RngStreams(43).stream("x").random() for _ in range(3)]
    other_label = [RngStreams(42).stream("y").random() for _ in range(3)]
    assert base != other_seed
    assert base != other_label


def test_rng_streams_are_isolated_between_labels():
    # Drawing extra numbers under one label must not shift another label.
    plain = RngStreams(7)
    ref = [plain.stream("target").random() for _ in range(4)]

    noisy = RngStreams(7)
    for _ in range(100):
        noisy.stream("noise").random()
    mixed = []
    for i in range(4):
        mixed.append(noisy.stream("target").random())
        noisy.stream("noise").random()
    assert mixed == ref


# -- trace ------------------------------------------------------------------


def _json_line(rec):
    """The record's line as ``json.dumps`` writes it."""
    return json.dumps(rec._asdict(), sort_keys=True, separators=(",", ":")) + "\n"


def written(data):
    """The records of the trace lines in ``data``, in order.

    Every test that reads a run's records reads them here, from the bytes
    the digest hashes, so each also checks those bytes: every line must be
    the ``json.dumps`` line of the record it parses to."""
    records = []
    for line in data.splitlines(keepends=True):
        rec = Record(**json.loads(line))
        assert line == _json_line(rec).encode(), line
        records.append(rec)
    return records


def pick(records, channel=None, outcome=None):
    """The records on ``channel`` with ``outcome``; ``None`` matches any."""
    return [
        r
        for r in records
        if (channel is None or r.channel == channel) and (outcome is None or r.outcome == outcome)
    ]


def test_trace_record_and_select():
    out = io.BytesIO()
    trace = Trace(out=out)
    trace.record(1, "A->B", "SUCCESS", method="IDTOKEN", identity="svc")
    trace.record(2, "A->B", "FAIL:Expired")
    trace.record(3, "C->D", "FAIL:UnknownKey")
    records = written(out.getvalue())
    assert len(pick(records, "A->B")) == 2
    assert len(pick(records, outcome="SUCCESS")) == 1
    assert len([r for r in records if r.outcome.startswith("FAIL:")]) == 2
    assert [r.outcome for r in pick(records, "C->D")] == ["FAIL:UnknownKey"]


#: One field of the wrong type per case, with the message that must name it.
MISTYPED_FIELDS = {
    "integral-float": ("t", 5.0, "trace time must be an int"),
    "float": ("t", 5.5, "trace time must be an int"),
    "bool": ("t", True, "trace time must be an int"),
    "channel-none": ("channel", None, "trace channel must be a str"),
    "outcome-bytes": ("outcome", b"SUCCESS", "trace outcome must be a str"),
    "method-tuple": ("method", ("IDTOKEN",), "trace method must be a str"),
    "identity-int": ("identity", 7, "trace identity must be a str"),
    "detail-int": ("detail", 5, "trace detail must be a str"),
}


@pytest.mark.parametrize(
    "field, value, message", MISTYPED_FIELDS.values(), ids=MISTYPED_FIELDS.keys()
)
def test_trace_rejects_non_int_times(field, value, message):
    # Every field is checked before the record is hashed or written.
    fields = {"t": 1, "channel": "A->B", "outcome": "SUCCESS", field: value}
    out = io.BytesIO()
    trace = Trace(out=out)
    with pytest.raises(SimulationError, match=message):
        trace.record(**fields)
    assert len(trace.records) == 0
    assert out.getvalue() == b"" and trace.digest() == hashlib.sha256().hexdigest()


def test_trace_jsonl_is_canonical_and_digest_matches():
    out = io.BytesIO()
    trace = Trace(out=out)
    trace.record(1, "A->B", "SUCCESS", detail="x=1")
    assert written(out.getvalue()) == [Record("A->B", "x=1", "-", "-", "SUCCESS", 1)]
    text = out.getvalue().decode()
    assert text.endswith("\n")
    parsed = json.loads(text.splitlines()[0])
    assert list(parsed) == sorted(parsed) == list(Record._fields)
    assert trace.digest() == hashlib.sha256(text.encode()).hexdigest()
    before = trace.digest()
    trace.record(2, "A->B", "SUCCESS")
    assert trace.digest() != before


def test_trace_write():
    # Each line reaches ``out`` as its record is written.
    out = io.BytesIO()
    trace = Trace(out=out)
    trace.record(1, "A->B", "SUCCESS")
    first = _json_line(Record("A->B", "", "-", "-", "SUCCESS", 1))
    assert out.getvalue() == first.encode()
    trace.record(2, "A->B", "DROP", detail="x=2")
    second = _json_line(Record("A->B", "x=2", "-", "-", "DROP", 2))
    assert out.getvalue() == (first + second).encode()


#: Records a trace refuses after one at t=5, each as ``record``'s arguments.
REFUSED_AFTER_T5 = {
    "back-in-time": {"t": 4, "channel": "A->B", "outcome": "SUCCESS"},
    "float-t": {"t": 7.0, "channel": "A->B", "outcome": "SUCCESS"},
    "bool-t": {"t": True, "channel": "A->B", "outcome": "SUCCESS"},
    "mistyped-channel": {"t": 7, "channel": None, "outcome": "SUCCESS"},
}


@pytest.mark.parametrize("refused", REFUSED_AFTER_T5.values(), ids=REFUSED_AFTER_T5.keys())
def test_a_refused_record_leaves_the_next_records_time_as_it_was(refused):
    # The trace formats each instant's t once; a refused record, whatever
    # its t, must not change the text the next record at t=5 ends with.
    out = io.BytesIO()
    trace = Trace(out=out)
    trace.record(5, "A->B", "SUCCESS")
    with pytest.raises(SimulationError):
        trace.record(**refused)
    trace.record(5, "A->B", "DROP")
    trace.record(6, "A->B", "SUCCESS")
    assert [r.t for r in written(out.getvalue())] == [5, 5, 6]


@pytest.mark.parametrize("lo, hi", [(9, 10), (99, 100), (999, 1000), (-10, -9), (-1, 0)])
def test_trace_writes_each_time_as_json_dumps_does_where_it_changes_width(lo, hi):
    # Around a refused record earlier than the last, so the line after it
    # still ends with the t of its own instant.
    out = io.BytesIO()
    trace = Trace(out=out)
    trace.record(lo, "A->B", "SUCCESS")
    trace.record(hi, "A->B", "SUCCESS")
    with pytest.raises(SimulationError, match="written after"):
        trace.record(lo, "A->B", "SUCCESS")
    trace.record(hi, "A->B", "DROP")
    expected = [
        Record("A->B", "", "-", "-", "SUCCESS", lo),
        Record("A->B", "", "-", "-", "SUCCESS", hi),
        Record("A->B", "", "-", "-", "DROP", hi),
    ]
    assert out.getvalue() == "".join(map(_json_line, expected)).encode()


@pytest.mark.parametrize(
    "details",
    [[], ["x=1"], ["ce=site-\u00e9 note=\u2713 \U0001f4a5", "plain"]],
    ids=["empty", "one", "non-ascii"],
)
def test_trace_digest_hashes_the_jsonl_text(details):
    out = io.BytesIO()
    trace = Trace(out=out)
    given_records = []
    for i, detail in enumerate(details):
        outcome = "SUCCESS" if i % 3 else "FAIL:Expired"
        trace.record(i, "A->B", outcome, detail=detail)
        given_records.append(Record("A->B", detail, "-", "-", outcome, i))
    assert written(out.getvalue()) == given_records
    text = "".join(map(_json_line, given_records))
    assert text.isascii()
    assert trace.digest() == hashlib.sha256(text.encode()).hexdigest()
    assert out.getvalue() == text.encode()


#: Text that leans on what JSON must escape, and on ``%``, which a line built
#: by ``%`` formatting would have to double: quotes, backslashes, control characters, DEL, line
#: separators, non-BMP characters and lone surrogates.
_FIELD_CHARS = st.one_of(
    st.sampled_from('%"\\/\x00\x1f\x7f\u2028'),
    st.characters(),
    st.characters(min_codepoint=0x10000),
    st.characters(categories=["Cs"]),
)
_FIELD_TEXT = st.text(_FIELD_CHARS)


@given(
    st.builds(
        Record,
        channel=_FIELD_TEXT,
        detail=_FIELD_TEXT,
        identity=_FIELD_TEXT,
        method=_FIELD_TEXT,
        outcome=_FIELD_TEXT,
        t=st.integers(),
    )
)
def test_trace_writes_the_json_dumps_line(rec):
    out = io.BytesIO()
    Trace(out=out).record(
        rec.t, rec.channel, rec.outcome, method=rec.method, identity=rec.identity, detail=rec.detail
    )
    assert out.getvalue() == _json_line(rec).encode()


_SHORT_TEXT = st.text(_FIELD_CHARS, max_size=6)
_HEAD = st.tuples(_SHORT_TEXT, _SHORT_TEXT, _SHORT_TEXT, _SHORT_TEXT)


# 50 examples, not the profile's 200: each one records 300 extra heads, so
# every example is already past 256 heads, and more examples cost time.
@settings(max_examples=50)
@given(
    heads=st.lists(_HEAD, min_size=1, max_size=4),
    rows=st.lists(
        st.tuples(st.integers(min_value=0), st.integers(min_value=0), _SHORT_TEXT), max_size=10
    ),
)
def test_trace_gives_back_the_records_it_was_given(heads, rows):
    # 300 more heads around the given rows, which reuse heads among them.
    # Each row is a step in time from the record before it, as a trace
    # refuses a record earlier than the last.
    wide = []
    for k in range(300):
        channel, identity, method, outcome = heads[k % len(heads)]
        wide.append(Record(f"{channel}%{k}", "", identity, method, outcome, k))
    given_rows, t = [], 149
    for pick, step, detail in rows:
        channel, identity, method, outcome = heads[pick % len(heads)]
        t += step
        given_rows.append(Record(channel, detail, identity, method, outcome, t))
    expected = wide[:150] + given_rows + [r._replace(t=t + r.t) for r in wide[150:]]
    out = io.BytesIO()
    trace = Trace(out=out)
    for r in expected:
        trace.record(r.t, r.channel, r.outcome, method=r.method, identity=r.identity, detail=r.detail)
    counts = trace.head_counts()
    assert len(counts) > 256
    assert sum(counts.values()) == len(expected)
    text = "".join(map(_json_line, expected)).encode()
    assert trace.digest() == hashlib.sha256(text).hexdigest()
    assert out.getvalue() == text
    assert len(trace.records) == len(expected)
    # JSON reads a surrogate pair, written as two escapes, back as the one
    # character it encodes; any other record reads back as it was given.
    as_read = [Record(**json.loads(_json_line(r))) for r in expected]
    records = written(out.getvalue())
    assert records == as_read
    assert records[-1] == as_read[-1]
    assert records[150:-150] == as_read[150:-150]


def _allocated(action):
    """Bytes ``action()`` leaves allocated, and the most it held at once."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        action()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return after - before, peak - before


def _fill(trace, n=20_000):
    t, detail = 10**6, "pilot=pilot-00042 ce=ce-a1"
    for _ in range(n):
        trace.record(t, "STARTD->COLLECTOR", "SUCCESS", method="IDTOKEN", detail=detail)


def test_counting_records_builds_none():
    trace = Trace()
    _fill(trace)
    counted = []
    _, peak = _allocated(lambda: counted.append(len(trace.records)))
    assert counted == [20_000]
    assert peak < 1024


def test_a_trace_holds_no_records():
    trace = Trace()
    trace.record(0, "STARTD->COLLECTOR", "SUCCESS", method="IDTOKEN", detail="warm-up")

    def fill():
        for i in range(20_000):
            detail = f"pilot=pilot-{i:05d} ce=ce-a{i % 7} keepalive=1 jti={i * 7919:016x}"
            trace.record(i, "STARTD->COLLECTOR", "SUCCESS", method="IDTOKEN", detail=detail)

    held, _ = _allocated(fill)
    assert held < 1024
    assert len(trace.records) == 20_001
    with pytest.raises(SimulationError, match="keeps no records"):
        trace.records[0]
    with pytest.raises(SimulationError, match="keeps no records"):
        trace.select("STARTD->COLLECTOR")


def test_fail_outcome_format():
    assert fail_outcome("Expired") == "FAIL:Expired"


def test_each_reason_has_one_fail_outcome_string():
    for reason in TRACE_REASONS:
        assert fail_outcome(reason) == f"FAIL:{reason}"
        assert fail_outcome(reason) is fail_outcome(reason), reason


def test_fail_outcome_rejects_a_reason_outside_the_vocabulary():
    # A KeyError, which no caller catching TokenPoolError can swallow.
    with pytest.raises(KeyError, match="'Bogus'"):
        fail_outcome("Bogus")


# -- faults -----------------------------------------------------------------


def make_board(fault, on_activate=None):
    """An engine, the buffer its trace writes to, and a board holding ``fault``."""
    engine, out = Engine(), io.BytesIO()
    board = FaultBoard()
    board.inject(fault, trace=Trace(out=out), engine=engine, on_activate=on_activate)
    return engine, out, board


def test_fault_wildcard_target_is_always_known():
    engine, _, board = make_board(Fault(FaultKind.MESSAGE_DROP, "*", rate=0.5))
    assert board.active(FaultKind.MESSAGE_DROP, "anything", 0) is not None


def test_fault_inject_records_and_activation_callback():
    fired = []
    fault = Fault(FaultKind.KEY_COMPROMISE, "key-1", start=40)
    engine, out, board = make_board(fault, on_activate=fired.append)
    injects = pick(written(out.getvalue()), "FAULT", outcome="INJECT")
    assert len(injects) == 1
    assert "kind=KEY_COMPROMISE" in injects[0].detail
    assert fired == []
    engine.run(100)
    activations = pick(written(out.getvalue()), "FAULT", outcome="ACTIVATE")
    assert [r.t for r in activations] == [40]
    assert fired == [fault]


def test_fault_window_is_start_inclusive_end_exclusive():
    _, _, board = make_board(Fault(FaultKind.CE_TOKEN_MISCONFIG, "ce-1", start=10, end=20))
    kind = FaultKind.CE_TOKEN_MISCONFIG
    assert board.active(kind, "ce-1", 9) is None
    assert board.active(kind, "ce-1", 10) is not None
    assert board.active(kind, "ce-1", 19) is not None
    assert board.active(kind, "ce-1", 20) is None
    assert board.active(kind, "other", 15) is None


def test_fault_open_ended_window():
    _, _, board = make_board(Fault(FaultKind.CE_TOKEN_MISCONFIG, "ce-1", start=5))
    assert board.active(FaultKind.CE_TOKEN_MISCONFIG, "ce-1", 10**9) is not None


def scanned_active(faults, kind, target, t):
    """The lookup as a scan over every fault in injection order: the
    reference ``FaultBoard.active`` must agree with."""
    for fault in faults:
        if fault.kind is not kind:
            continue
        if fault.target != "*" and fault.target != target:
            continue
        if t < fault.start:
            continue
        if fault.end is not None and t >= fault.end:
            continue
        return fault
    return None


FAULT_TARGETS = ("*", "ce-1", "ce-2")
LOOKUP_TARGETS = ("ce-1", "ce-2", "ce-3")

fault_st = st.builds(
    lambda kind, target, start, length, rate: Fault(
        kind, target, start, None if length is None else start + length, rate
    ),
    st.sampled_from(FaultKind),
    st.sampled_from(FAULT_TARGETS),
    st.integers(0, 40),
    st.none() | st.integers(1, 40),
    st.sampled_from((0.0, 0.5, 1.0)),
)
lookup_st = st.tuples(st.sampled_from(FaultKind), st.sampled_from(LOOKUP_TARGETS), st.integers(0, 81))


@given(steps=st.lists(fault_st | lookup_st, max_size=24))
def test_fault_lookup_by_kind_matches_a_scan_of_every_fault(steps):
    # Injects and lookups interleave, so an index that a lookup built or
    # read before a later inject must still answer for every fault since.
    engine, trace, board = Engine(), Trace(), FaultBoard()
    faults = []
    for step in steps:
        if isinstance(step, Fault):
            board.inject(step, trace=trace, engine=engine)
            faults.append(step)
        else:
            assert board.active(*step) is scanned_active(faults, *step), step
    for kind in FaultKind:
        for target in LOOKUP_TARGETS:
            for t in range(0, 82):
                want = scanned_active(faults, kind, target, t)
                assert board.active(kind, target, t) is want, (kind, target, t)


def active_drop(board, channel):
    """The drop fault ``board`` holds active on ``channel`` at t=0, if any."""
    return board.active(FaultKind.MESSAGE_DROP, channel, 0)


def test_message_drop_rates():
    streams = RngStreams(1)
    _, _, board = make_board(Fault(FaultKind.MESSAGE_DROP, "A->B", rate=1.0))
    assert message_dropped(active_drop(board, "A->B"), streams)
    assert active_drop(board, "C->D") is None  # different channel: nothing to draw

    _, _, certain_keep = make_board(Fault(FaultKind.MESSAGE_DROP, "A->B", rate=0.0))
    assert not message_dropped(active_drop(certain_keep, "A->B"), streams)


def test_zero_rate_drop_consumes_no_randomness():
    # A rate-0 fault must not draw, so later draws see the untouched stream.
    _, _, board = make_board(Fault(FaultKind.MESSAGE_DROP, "A->B", rate=0.0))
    streams = RngStreams(99)
    for _ in range(10):
        assert not message_dropped(active_drop(board, "A->B"), streams)
    untouched = RngStreams(99)
    assert streams.stream("faults/drop").random() == untouched.stream("faults/drop").random()


def test_drop_draws_are_scoped_to_their_own_stream():
    # Drop decisions draw only from "faults/drop", never from other labels.
    _, _, board = make_board(Fault(FaultKind.MESSAGE_DROP, "A->B", rate=0.5))
    streams = RngStreams(5)
    for _ in range(20):
        message_dropped(active_drop(board, "A->B"), streams)
    untouched = RngStreams(5)
    assert streams.stream("other").random() == untouched.stream("other").random()
