"""Run scenarios end to end and distill their traces into reports.

A RunResult holds the scenario, the audit trace and the report model: one
plain dict of every fact a report states, the digest among them.  Every
fact — pool fill, auth mix, legacy dependency, drill recovery, phase
soundness — comes from the trace records, never from live actor state:
the trace feeds each record to one fold (``_Pass``) as it is written, and
the fold builds the model when the run ends.  The World is dropped then;
``report_dict`` (JSON) and ``render_report`` (JSON or text) only format
the model.
"""

from __future__ import annotations

import dataclasses
import json
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import BinaryIO, Callable, Mapping

from .actors import build_world
from .policy import LEGACY_METHODS, PHASE_PERMITS, AuthMethod, MigrationPhase, default_channels
from .scenario import Scenario, load_scenario
from .simnet import (
    OUTCOME_DENIED,
    OUTCOME_DROP,
    OUTCOME_SUCCESS,
    TRACE_FAULT,
    TRACE_JOB,
    TRACE_PILOT,
    TRACE_PLAN,
    TRACE_POOL,
    Head,
    Trace,
)

LEGACY_METHOD_VALUES = frozenset(m.value for m in LEGACY_METHODS)

#: ``pool.tail_fraction`` averages the pool size over this final share of the horizon.
TAIL_FRACTION = 0.2

_AUTH_CHANNELS = frozenset(default_channels())
_METHOD_VALUES = frozenset(m.value for m in AuthMethod)
_PERMITTED = {
    phase.value: frozenset(m.value for m in methods) for phase, methods in PHASE_PERMITS.items()
}


def parse_detail(detail: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for part in detail.split():
        if "=" in part:
            key, value = part.split("=", 1)
            out[key] = value
    return out


@dataclass(frozen=True)
class RunResult:
    """A finished run: its scenario, its trace (whose lines went to
    ``trace_out``) and its report model, built by the fold as it ran."""

    scenario: Scenario
    trace: Trace
    report: dict

    @property
    def digest(self) -> str:
        return self.report["digest"]


def run_scenario(
    source: Scenario | str | Path,
    *,
    seed: int | None = None,
    trace_out: BinaryIO | None = None,
) -> RunResult:
    """Build the world for a scenario (or scenario file) and run it out,
    writing each trace line to ``trace_out``, when given, as it is made."""
    scenario = source if isinstance(source, Scenario) else load_scenario(source)
    if seed is not None:
        scenario = dataclasses.replace(scenario, seed=seed)
    walk = _Pass(scenario)
    trace = Trace(out=trace_out, fold=walk)
    # Actors reach the World through weak proxies: hold it while it runs.
    world = build_world(scenario, trace)
    world.engine.run(scenario.horizon)
    return RunResult(scenario, trace, walk.finish(trace))


class _Pass:
    """The fold of a run's trace: fed each record as it is written, it keeps
    what every report fact needs, in buffers that follow the pool, not the run.

    The trace refuses a record that goes back in time and calls
    ``close_instant`` when a later instant starts.  A PHASE record at t
    governs every auth attempt at t, and the drill counts every eviction and
    join at the compromise instant, whichever was written first; so both
    wait for the current instant to end.  The drill keeps two buffers, the
    kids evicted and the join times, emptied as each instant ends until the
    compromise and only appended to from then on.
    """

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.tail_start = scenario.horizon * (1.0 - TAIL_FRACTION)
        self.timeline: list[dict] = []  # {"t", "phase"}, as the report states them
        self.violations: list[str] = []
        self.attempts: list[tuple[int, Head]] = []  # auth attempts not yet judged
        self.peak = self.final = self.tail_sum = self.tail_n = 0
        self.job_counts: Counter[str] = Counter()  # jobs queued; other job events are counts
        self.compromise: tuple[int, str] | None = None  # first KEY_COMPROMISE: (t, kid)
        self.pool_before = 0  # the pool size at the end of the last instant before the compromise
        self.evicted: list[str | None] = []
        self.joins = array("q")

    def step_for(self, head: Head) -> Callable[[int, str], None] | None:
        channel, _, method, outcome = head
        if channel in _AUTH_CHANNELS:
            return partial(self._attempt, head) if method in _METHOD_VALUES else None
        step = _STEPPED.get((channel, outcome))
        return None if step is None else partial(step, self)

    def close_instant(self) -> None:
        """Judge the instant's attempts (or keep them until the first PHASE
        record) and, until a compromise, empty the drill's buffers."""
        if self.timeline:
            phase = self.timeline[-1]["phase"]
            permitted = _PERMITTED[phase]
            for at, (channel, _, method, outcome) in self.attempts:
                if method not in permitted:
                    self.violations.append(
                        f"t={at} {channel} used {method} under {phase} (outcome={outcome})"
                    )
            self.attempts.clear()
        if self.compromise is None:
            self.pool_before = self.final
            self.evicted.clear()
            del self.joins[:]

    def _attempt(self, head: Head, t: int, detail: str) -> None:
        """Keep an auth attempt for judging when its instant ends."""
        self.attempts.append((t, head))

    def _phase(self, t: int, detail: str) -> None:
        self.timeline.append({"t": t, "phase": MigrationPhase(parse_detail(detail)["phase"]).value})

    def _sample(self, t: int, detail: str) -> None:
        size = self.final = int(parse_detail(detail)["size"])
        self.peak = max(self.peak, size)
        if t >= self.tail_start:
            self.tail_sum += size
            self.tail_n += 1

    def _joined(self, t: int, detail: str) -> None:
        self.joins.append(t)

    def _evict(self, t: int, detail: str) -> None:
        self.evicted.append(parse_detail(detail).get("kid"))

    def _activate(self, t: int, detail: str) -> None:
        kv = parse_detail(detail)
        if kv.get("kind") == "KEY_COMPROMISE" and self.compromise is None:
            self.compromise = (t, kv["target"])

    def _queued(self, t: int, detail: str) -> None:
        self.job_counts["QUEUED"] += int(parse_detail(detail).get("count", "0"))

    def finish(self, trace: Trace) -> dict:
        """The report model of the whole trace, ``pool.tail_fraction``
        unrounded; ``trace`` gives the digest and each head's record count."""
        self.close_instant()
        auth_success: Counter[str] = Counter()
        auth_failures: Counter[str] = Counter()
        legacy: Counter[str] = Counter()
        pilot_counts: Counter[str] = Counter()
        job_counts = self.job_counts.copy()
        denied = dropped = 0
        for (channel, _, method, outcome), n in trace.head_counts().items():
            if channel in _AUTH_CHANNELS:
                if outcome == OUTCOME_SUCCESS:
                    auth_success[method] += n
                    if method in LEGACY_METHOD_VALUES:
                        legacy[channel] += n
                elif outcome.startswith("FAIL:"):
                    auth_failures[outcome[len("FAIL:"):]] += n
                elif outcome == OUTCOME_DENIED:
                    denied += n
                elif outcome == OUTCOME_DROP:
                    dropped += n
            elif channel == TRACE_PILOT:
                pilot_counts[outcome] += n
            elif channel == TRACE_JOB and outcome != "QUEUED":
                job_counts[outcome] += n
        scenario = self.scenario
        capacity = scenario.total_capacity
        violations = self.violations if self.timeline else ["no phase records in trace"]
        report = {
            "scenario": scenario.name,
            "seed": scenario.seed,
            "horizon": scenario.horizon,
            "digest": trace.digest(),
            "phase_timeline": self.timeline,
            "pool": {
                "capacity": capacity,
                "peak": self.peak,
                "final": self.final,
                "tail_fraction": self.tail_sum / self.tail_n / capacity if self.tail_n and capacity else 0.0,
            },
            "auth": {
                "success_by_method": _sorted(auth_success),
                "failures_by_reason": _sorted(auth_failures),
                "denied": denied,
                "dropped": dropped,
                "legacy_dependency": _sorted(legacy),
            },
            "pilots": _sorted(pilot_counts),
            "jobs": _sorted(job_counts),
            "phase_soundness": {"ok": not violations, "violations": violations},
        }
        if self.compromise is not None:
            report["drill"] = self._drill(*self.compromise)
        return report

    def _drill(self, compromised_at: int, kid: str) -> dict:
        """The key-compromise exercise.  Recovery is the instant the pool
        regains as many members as it lost: the t of the n-th join after
        the compromise, n = pilots evicted."""
        evicted = self.evicted.count(kid)
        recovered_at: int | None = None
        if evicted and len(self.joins) >= evicted:
            recovered_at = self.joins[evicted - 1]
        recovery_time = None if recovered_at is None else recovered_at - compromised_at
        bound = self.scenario.drill.reprovision_delay + self.scenario.pilots.startup
        return {
            "kid": kid,
            "compromised_at": compromised_at,
            "pool_before": self.pool_before,
            "evicted": evicted,
            "recovered_at": recovered_at,
            "recovery_time": recovery_time,
            "bound": bound,
            "within_bound": recovery_time is not None and recovery_time <= bound,
        }


#: (channel, outcome) of the non-auth heads whose facts are read record by
#: record, and the ``_Pass`` method each such record is fed to.
_STEPPED = {
    (TRACE_PILOT, "JOINED"): _Pass._joined, (TRACE_PILOT, "EVICT"): _Pass._evict,
    (TRACE_POOL, "SAMPLE"): _Pass._sample, (TRACE_JOB, "QUEUED"): _Pass._queued,
    (TRACE_PLAN, "PHASE"): _Pass._phase, (TRACE_FAULT, "ACTIVATE"): _Pass._activate,
}


def _sorted(counts: Mapping[str, int]) -> dict[str, int]:
    return dict(sorted(counts.items()))


def compute_metrics(result: RunResult) -> dict:
    """The run's report model; its ``pool`` and ``auth`` hold the totals."""
    return result.report


def drill_report(result: RunResult) -> dict | None:
    """The key-compromise exercise of the run, if one ran."""
    return result.report.get("drill")


def check_phase_soundness(result: RunResult) -> list[str]:
    """Every auth attempt carrying a concrete method must use a method
    the phase in force at that instant permits.  Returns violations."""
    return result.report["phase_soundness"]["violations"]


def report_dict(result: RunResult) -> dict:
    """The report model as ``tokenpool report`` prints it: the same dict
    with ``pool.tail_fraction`` rounded to 4 places."""
    report = result.report
    pool = report["pool"]
    return {**report, "pool": {**pool, "tail_fraction": round(pool["tail_fraction"], 4)}}


def render_report(result: RunResult, fmt: str = "text") -> str:
    """The report as JSON (``report_dict``) or as text, which formats
    ``result.report`` alone."""
    if fmt == "json":
        return json.dumps(report_dict(result), indent=2, sort_keys=True)
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}: expected 'text' or 'json'")
    report = result.report
    pool, auth = report["pool"], report["auth"]
    violations = report["phase_soundness"]["violations"]
    lines = [
        f"run: {report['scenario']}  seed={report['seed']}  horizon={report['horizon']}",
        f"digest: {report['digest']}",
        "phase timeline: " + "  ->  ".join(f"{p['t']}s {p['phase']}" for p in report["phase_timeline"]),
        (
            f"pool: capacity={pool['capacity']} peak={pool['peak']}"
            f" final={pool['final']} tail_fill={pool['tail_fraction']:.3f}"
        ),
        "auth success by method: " + _fmt_counts(auth["success_by_method"]),
        "auth failures by reason: " + _fmt_counts(auth["failures_by_reason"]),
        f"denied={auth['denied']} dropped={auth['dropped']}",
        "legacy dependency by channel: " + _fmt_counts(auth["legacy_dependency"]),
        "pilot events: " + _fmt_counts(report["pilots"]),
        "job events: " + _fmt_counts(report["jobs"]),
    ]
    if violations:
        lines.append(f"phase soundness: {len(violations)} violation(s)")
        lines.extend(f"  {v}" for v in violations[:5])
    else:
        lines.append("phase soundness: ok")
    if "drill" in report:
        lines.append(drill_line(report["drill"]))
    return "\n".join(lines) + "\n"


def drill_line(drill: Mapping) -> str:
    """The verdict line shared by the text report and ``tokenpool sim drill``."""
    recovery = (
        f"recovered_at={drill['recovered_at']} recovery_time={drill['recovery_time']}s"
        if drill["recovered_at"] is not None
        else "not recovered"
    )
    return (
        f"drill: kid={drill['kid']} at={drill['compromised_at']}"
        f" evicted={drill['evicted']}/{drill['pool_before']} {recovery}"
        f" bound={drill['bound']}s within_bound={drill['within_bound']}"
    )


def _fmt_counts(counts: Mapping[str, int]) -> str:
    return " ".join(f"{k}={v}" for k, v in counts.items()) or "none"
