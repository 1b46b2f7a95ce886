"""Event loop determinism, RNG stream isolation, trace digests, faults."""

import hashlib
import json

import pytest

from tokenpool.errors import SimulationError, UnknownTarget
from tokenpool.simnet import (
    JSONL_CHUNK,
    Engine,
    Fault,
    FaultBoard,
    FaultKind,
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
        engine.schedule(7, lambda: seen.append(("second", engine.now)))

    engine.schedule_at(3, first)
    engine.run(100)
    assert seen == [("first", 3), ("second", 10)]


def test_engine_rejects_scheduling_in_the_past():
    engine = Engine()
    engine.schedule_at(10, lambda: None)
    engine.run(10)
    with pytest.raises(SimulationError):
        engine.schedule_at(9, lambda: None)


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


def test_trace_record_and_select():
    trace = Trace()
    trace.record(1, "A->B", "SUCCESS", method="IDTOKEN", identity="svc")
    trace.record(2, "A->B", "FAIL:Expired")
    trace.record(3, "C->D", "FAIL:UnknownKey")
    assert len(trace.select("A->B")) == 2
    assert len(trace.select(outcome="SUCCESS")) == 1
    assert len(trace.select(outcome_prefix="FAIL:")) == 2
    assert trace.select("C->D", outcome_prefix="FAIL:")[0]["outcome"] == "FAIL:UnknownKey"


def test_trace_normalizes_integral_floats():
    trace = Trace()
    trace.record(5.0, "A->B", "SUCCESS")
    line = trace.to_jsonl().splitlines()[0]
    assert '"t":5' in line and '"t":5.0' not in line


def test_trace_jsonl_is_canonical_and_digest_matches():
    trace = Trace()
    trace.record(1, "A->B", "SUCCESS", detail="x=1")
    text = trace.to_jsonl()
    assert text.endswith("\n")
    parsed = json.loads(text.splitlines()[0])
    assert list(parsed) == sorted(parsed)
    assert trace.digest() == hashlib.sha256(text.encode()).hexdigest()
    before = trace.digest()
    trace.record(2, "A->B", "SUCCESS")
    assert trace.digest() != before


def test_trace_write(tmp_path):
    trace = Trace()
    trace.record(1, "A->B", "SUCCESS")
    out = tmp_path / "trace.jsonl"
    trace.write(out)
    assert out.read_text() == trace.to_jsonl()


def _trace_of(details):
    trace = Trace()
    for i, detail in enumerate(details):
        trace.record(i, "A->B", "SUCCESS" if i % 3 else "FAIL:Expired", detail=detail)
    return trace


def _reference_jsonl(trace):
    """The JSONL text built whole, one ``json.dumps`` line per record."""
    lines = [json.dumps(rec, sort_keys=True, separators=(",", ":")) for rec in trace.records]
    return "\n".join(lines) + ("\n" if lines else "")


@pytest.mark.parametrize(
    "details",
    [
        [],
        ["x=1"],
        [f"n={i}" for i in range(JSONL_CHUNK)],
        [f"n={i}" for i in range(2 * JSONL_CHUNK + 1)],
        ["ce=site-\u00e9 note=\u2713 \U0001f4a5", "plain"],
    ],
    ids=["empty", "one", "one-chunk", "over-two-chunks", "non-ascii"],
)
def test_trace_digest_hashes_the_jsonl_text(details, tmp_path):
    trace = _trace_of(details)
    text = trace.to_jsonl()
    assert text == _reference_jsonl(trace)
    assert text.isascii()
    assert trace.digest() == hashlib.sha256(text.encode()).hexdigest()
    out = tmp_path / "trace.jsonl"
    trace.write(out)
    assert out.read_bytes() == text.encode()


def test_fail_outcome_format():
    assert fail_outcome("Expired") == "FAIL:Expired"


# -- faults -----------------------------------------------------------------


def make_board(fault, on_activate=None):
    engine = Engine()
    trace = Trace()
    board = FaultBoard()
    board.inject(
        fault,
        known_targets={"ce-1", "key-1", "A->B"},
        trace=trace,
        engine=engine,
        on_activate=on_activate,
    )
    return engine, trace, board


def test_fault_unknown_target_rejected():
    engine, trace, board = Engine(), Trace(), FaultBoard()
    with pytest.raises(UnknownTarget):
        board.inject(
            Fault(FaultKind.CE_TOKEN_MISCONFIG, "ghost"),
            known_targets={"ce-1"},
            trace=trace,
            engine=engine,
        )


def test_fault_wildcard_target_is_always_known():
    engine, trace, board = make_board(Fault(FaultKind.MESSAGE_DROP, "*", rate=0.5))
    assert board.active(FaultKind.MESSAGE_DROP, "anything", 0) is not None


def test_fault_inject_records_and_activation_callback():
    fired = []
    fault = Fault(FaultKind.KEY_COMPROMISE, "key-1", start=40)
    engine, trace, board = make_board(fault, on_activate=fired.append)
    injects = trace.select("FAULT", outcome="INJECT")
    assert len(injects) == 1
    assert "kind=KEY_COMPROMISE" in str(injects[0]["detail"])
    assert fired == []
    engine.run(100)
    activations = trace.select("FAULT", outcome="ACTIVATE")
    assert [int(r["t"]) for r in activations] == [40]
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


def test_message_drop_rates():
    streams = RngStreams(1)
    _, _, board = make_board(Fault(FaultKind.MESSAGE_DROP, "A->B", rate=1.0))
    assert message_dropped(board, streams, "A->B", 0)
    assert not message_dropped(board, streams, "C->D", 0)  # different channel

    _, _, certain_keep = make_board(Fault(FaultKind.MESSAGE_DROP, "A->B", rate=0.0))
    assert not message_dropped(certain_keep, streams, "A->B", 0)


def test_zero_rate_drop_consumes_no_randomness():
    # A rate-0 fault must not draw, so later draws see the untouched stream.
    _, _, board = make_board(Fault(FaultKind.MESSAGE_DROP, "A->B", rate=0.0))
    streams = RngStreams(99)
    for _ in range(10):
        assert not message_dropped(board, streams, "A->B", 0)
    untouched = RngStreams(99)
    assert streams.stream("faults/drop").random() == untouched.stream("faults/drop").random()


def test_drop_draws_are_scoped_to_their_own_stream():
    # Drop decisions draw only from "faults/drop", never from other labels.
    _, _, board = make_board(Fault(FaultKind.MESSAGE_DROP, "A->B", rate=0.5))
    streams = RngStreams(5)
    for _ in range(20):
        message_dropped(board, streams, "A->B", 0)
    untouched = RngStreams(5)
    assert streams.stream("other").random() == untouched.stream("other").random()
