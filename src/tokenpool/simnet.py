"""Seeded discrete-event core: clock, RNG streams, audit trace, faults.

Determinism contract: with the same scenario and seed the engine runs
events in identical order (within an instant, in the order they were
scheduled), every random draw comes from a label-isolated substream, and
the audit trace serializes to byte-identical JSONL whose SHA-256 is the
run digest.
"""

from __future__ import annotations

import enum
import hashlib
import heapq
import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from types import MethodType
from typing import Any, BinaryIO, Callable, NamedTuple, Protocol

from .errors import TRACE_REASONS, SimulationError


def _call(action: Callable[[], None]) -> None:
    """Run a pending action that is not a bound method."""
    action()


class Engine:
    """Calendar event loop: integer-friendly clock, FIFO within an instant.

    ``_calendar`` maps each pending instant to its actions in the order they
    were scheduled, which is the tie-break, and the ``_instants`` heap holds
    each of those instants once.  An action takes two slots of its instant's
    list, a function and the one argument it is called with: a bound method
    is held as its function and its object, so no method object outlives the
    call that scheduled it, and any other callable as ``_call`` and itself.
    An action scheduled for the instant being run joins the end of its list
    and runs in the same pass.
    """

    def __init__(self) -> None:
        self.now: int = 0
        #: Instant -> ``[fn, arg, fn, arg, ...]``, each pair one pending ``fn(arg)``.
        self._calendar: dict[int, list[Callable[[Any], object] | Any]] = {}
        self._instants: list[int] = []

    def schedule_at(self, t: int, action: Callable[[], None]) -> None:
        if t < self.now:
            raise SimulationError(f"cannot schedule at {t}, clock is at {self.now}")
        if type(action) is MethodType:
            fn, arg = action.__func__, action.__self__
        else:
            fn, arg = _call, action
        actions = self._calendar.get(t)
        if actions is None:
            self._calendar[t] = [fn, arg]
            heapq.heappush(self._instants, t)
        else:
            actions.append(fn)
            actions.append(arg)

    def schedule(self, delay: int, action: Callable[[], None]) -> None:
        self.schedule_at(self.now + delay, action)

    def run(self, until: int) -> None:
        """Run the instants up to and including ``until``, then park the clock there.

        ``now`` keeps its object while the instant does not change, so every
        record written at one instant holds the same ``int``.  An action that
        raises leaves the actions after it at its instant pending.  An
        ``until`` before ``now`` is refused, as ``schedule_at`` refuses a past
        instant: the clock never runs backwards.
        """
        if until < self.now:
            raise SimulationError(f"cannot run until {until}, clock is at {self.now}")
        calendar, instants = self._calendar, self._instants
        while instants and instants[0] <= until:
            t = instants[0]
            if t != self.now:
                self.now = t
            pending = iter(calendar[t])
            try:
                for fn, arg in zip(pending, pending):
                    fn(arg)
            except BaseException:
                calendar[t] = list(pending)
                raise
            heapq.heappop(instants)
            del calendar[t]
        self.now = until


class RngStreams:
    """Per-label random substreams derived from one run seed.

    Each label gets its own generator seeded from SHA-256(seed/label),
    so adding draws under one label never shifts any other label's
    sequence.
    """

    def __init__(self, seed: int | str) -> None:
        self.seed = seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, label: str) -> random.Random:
        if label not in self._streams:
            material = hashlib.sha256(f"{self.seed}/{label}".encode()).digest()
            self._streams[label] = random.Random(int.from_bytes(material[:8], "big"))
        return self._streams[label]


#: Non-auth record groups share the channel column with auth channels.
TRACE_PILOT = "PILOT"
TRACE_JOB = "JOB"
TRACE_FAULT = "FAULT"
TRACE_PLAN = "PLAN"
TRACE_POOL = "POOL"

OUTCOME_SUCCESS = "SUCCESS"
OUTCOME_DENIED = "DENIED"
OUTCOME_DROP = "DROP"


_FAIL_OUTCOMES = {reason: f"FAIL:{reason}" for reason in TRACE_REASONS}


def fail_outcome(reason: str) -> str:
    """The one ``FAIL:<reason>`` string of a reason in ``TRACE_REASONS``.

    Raises:
        KeyError: the reason is outside the vocabulary.  Not a
            ``TokenPoolError``, so no caller that catches those hides it.
    """
    return _FAIL_OUTCOMES[reason]


class Record(NamedTuple):
    """One audit-trace record; the fields are in its JSONL line's key order."""

    channel: str
    detail: str
    identity: str
    method: str
    outcome: str
    t: int


def _line_pieces(channel: str, identity: str, method: str, outcome: str) -> tuple[str, str]:
    """The canonical line of a record with this head, less its escaped detail
    and t: the text before the detail, and the text between the two."""
    esc = encode_basestring_ascii
    return (
        f'{{"channel":{esc(channel)},"detail":',
        f',"identity":{esc(identity)},"method":{esc(method)},"outcome":{esc(outcome)},"t":',
    )


def _mistyped(rec: Record) -> str:
    """What is wrong with a record holding a field of the wrong type."""
    if type(rec.t) is not int:
        return f"trace time must be an int, got {rec.t!r}"
    name, value = next(
        (name, value) for name, value in zip(rec._fields, rec) if type(value) is not str
    )
    return f"trace {name} must be a str, got {value!r}"


class _Unkept(Sequence[Record]):
    """The records of a trace: their count, and none to read."""

    __slots__ = ("_count",)

    def __init__(self, count: int) -> None:
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i):  # type: ignore[override]
        raise SimulationError("a trace keeps no records: parse the lines it wrote to its out")


#: The distinct (channel, identity, method, outcome) of a group of records.
Head = tuple[str, str, str, str]


class Fold(Protocol):
    def step_for(self, head: Head) -> Callable[[int, str], None] | None:
        """What each record with ``head`` is fed to as ``(t, detail)``, if anything."""

    def close_instant(self) -> None:
        """Every record of the latest instant has been fed: a later one comes next."""


class Trace:
    """Append-only audit log whose JSONL text defines the run digest.

    A record earlier than the last is refused before it is hashed, counted
    or written.  Each other record's line is built once, hashed into the
    digest, written to ``out`` when given, and the record fed to ``fold``,
    told first when a later instant starts; no record is kept."""

    def __init__(self, *, out: BinaryIO | None = None, fold: Fold | None = None) -> None:
        self._out = out
        self._fold = fold
        self._sha = hashlib.sha256()
        #: The t of the last record written, None before the first.
        self._t: int | None = None
        #: Per head, in the order first written: [the two pieces of its
        #: line around the detail, the fold's step for it, its number of
        #: records].
        self._heads: dict[Head, list] = {}

    @property
    def records(self) -> Sequence[Record]:
        """The number of records; reading one raises, as none is kept."""
        return _Unkept(sum(self.head_counts().values()))

    def head_counts(self) -> dict[Head, int]:
        """Each head's number of records, in the order first written."""
        return {head: entry[3] for head, entry in self._heads.items()}

    def record(
        self,
        t: int,
        channel: str,
        outcome: str,
        *,
        method: str = "-",
        identity: str = "-",
        detail: str = "",
    ) -> None:
        if type(t) is not int or not (
            type(channel) is type(detail) is type(identity) is type(method) is type(outcome) is str
        ):
            raise SimulationError(_mistyped(Record(channel, detail, identity, method, outcome, t)))
        if t != self._t:
            if self._t is not None and t < self._t:
                raise SimulationError(f"trace record at t={t} written after one at t={self._t}")
            self._t = t
            if self._fold is not None:
                self._fold.close_instant()
        head = (channel, identity, method, outcome)
        entry = self._heads.get(head)
        if entry is None:
            step = None if self._fold is None else self._fold.step_for(head)
            entry = self._heads[head] = [*_line_pieces(*head), step, 0]
        pre, mid, step, _ = entry
        line = f"{pre}{encode_basestring_ascii(detail)}{mid}{t}}}\n".encode()
        self._sha.update(line)
        if self._out is not None:
            self._out.write(line)
        entry[3] += 1
        if step is not None:
            step(t, detail)

    def select(
        self,
        channel: str | None = None,
        outcome: str | None = None,
        outcome_prefix: str | None = None,
    ) -> list[Record]:
        """Refused, as reading a record is: a trace keeps none."""
        return list(self.records)

    def digest(self) -> str:
        """SHA-256 of the canonical lines written so far."""
        return self._sha.hexdigest()


class FaultKind(enum.Enum):
    CE_TOKEN_MISCONFIG = "CE_TOKEN_MISCONFIG"
    KEY_COMPROMISE = "KEY_COMPROMISE"
    MESSAGE_DROP = "MESSAGE_DROP"
    CE_STUCK_SUBMISSION = "CE_STUCK_SUBMISSION"


@dataclass(frozen=True)
class Fault:
    """One injected fault: what, where, and over which time window.

    ``target`` names a gateway id (CE_TOKEN_MISCONFIG and
    CE_STUCK_SUBMISSION), a key id (KEY_COMPROMISE) or a channel label
    (MESSAGE_DROP); ``"*"`` matches everything, and a scenario may use it
    for every kind but KEY_COMPROMISE.  ``end=None``
    leaves the fault active for the rest of the run.  ``rate`` only
    matters for MESSAGE_DROP.
    """

    kind: FaultKind
    target: str
    start: int = 0
    end: int | None = None
    rate: float = 1.0


@dataclass
class FaultBoard:
    #: Injected faults by their kind's value, then by target, each list in
    #: injection order.  A kind's ``"*"`` list holds its wildcards, which
    #: are also added to every other list of the kind, so one list answers
    #: a lookup.  Str keys hash in C; an enum member's hash is a Python call.
    by_kind: dict[str, dict[str, list[Fault]]] = field(default_factory=dict)

    def inject(
        self,
        fault: Fault,
        *,
        trace: Trace,
        engine: Engine,
        on_activate: Callable[[Fault], None] | None = None,
    ) -> None:
        """Register a fault, record INJECT now and ACTIVATE at its start."""
        by_target = self.by_kind.setdefault(fault.kind.value, {})
        if fault.target not in by_target:
            by_target[fault.target] = list(by_target.get("*", ()))
        for target, faults in by_target.items():
            if target == fault.target or fault.target == "*":
                faults.append(fault)
        trace.record(
            engine.now,
            TRACE_FAULT,
            "INJECT",
            detail=_fault_detail(fault),
        )

        def _activate() -> None:
            trace.record(engine.now, TRACE_FAULT, "ACTIVATE", detail=_fault_detail(fault))
            if on_activate is not None:
                on_activate(fault)

        engine.schedule_at(fault.start, _activate)

    def active(self, kind: FaultKind, target: str, t: int) -> Fault | None:
        """The first fault of ``kind``, in injection order, that covers
        ``target`` at ``t``; only faults of that kind aimed at ``target``
        or at ``*`` are looked at."""
        by_target = self.by_kind.get(kind._value_)
        if by_target is None:
            return None
        # No list is empty, so a target with none of its own reads the wildcards.
        for fault in by_target.get(target) or by_target.get("*", ()):
            if t < fault.start or (fault.end is not None and t >= fault.end):
                continue
            return fault
        return None


def _fault_detail(fault: Fault) -> str:
    parts = [f"kind={fault.kind.value}", f"target={fault.target}", f"start={fault.start}"]
    if fault.end is not None:
        parts.append(f"end={fault.end}")
    if fault.kind is FaultKind.MESSAGE_DROP:
        parts.append(f"rate={fault.rate}")
    return " ".join(parts)


def message_dropped(fault: Fault, streams: RngStreams) -> bool:
    """Draw a drop decision for one message under the active drop ``fault``.

    Draws come from a dedicated substream so a zero-rate fault (which
    never draws) leaves every other stream, and hence the digest,
    untouched.
    """
    return fault.rate > 0.0 and streams.stream("faults/drop").random() < fault.rate
