"""Run scenarios end to end and distill their traces into reports.

A RunResult bundles the scenario, the finished World, the audit trace,
its digest and the facts a report states.  Every fact — pool fill, auth
mix, legacy dependency, drill recovery, phase soundness — comes from the
trace records, never from live actor state: the trace feeds each record
to one fold (``_Pass``) as it is written, so the facts are ready when the
run ends and the report only formats them.
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

from .actors import World, build_world
from .errors import SimulationError
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

#: ``capacity_fraction`` averages the pool size over this final share of the horizon.
TAIL_FRACTION = 0.2

_AUTH_CHANNELS = frozenset(default_channels())
_METHOD_VALUES = frozenset(m.value for m in AuthMethod)
_PERMITTED = {
    phase: frozenset(m.value for m in methods) for phase, methods in PHASE_PERMITS.items()
}
#: (channel, outcome) of the non-auth heads whose facts are read record by
#: record, and the ``_Pass`` method each such record is fed to.
_STEPPED = {
    (TRACE_PILOT, "JOINED"): "_joined", (TRACE_PILOT, "EVICT"): "_evict",
    (TRACE_POOL, "SAMPLE"): "_sample", (TRACE_JOB, "QUEUED"): "_queued",
    (TRACE_PLAN, "PHASE"): "_phase", (TRACE_FAULT, "ACTIVATE"): "_activate",
}


def parse_detail(detail: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for part in detail.split():
        if "=" in part:
            key, value = part.split("=", 1)
            out[key] = value
    return out


@dataclass(frozen=True)
class PoolMetrics:
    """Pool and auth totals of a run; every count mapping is sorted by key."""

    total_capacity: int
    peak_pool: int
    final_pool: int
    capacity_fraction: float
    auth_success: Mapping[str, int]
    auth_failures: Mapping[str, int]
    denied: int
    dropped: int
    legacy_dependency: Mapping[str, int]
    pilot_counts: Mapping[str, int]
    job_counts: Mapping[str, int]


@dataclass(frozen=True)
class DrillReport:
    kid: str
    compromised_at: int
    pool_before: int
    evicted: int
    recovered_at: int | None
    recovery_time: int | None
    bound: int
    within_bound: bool

    def line(self) -> str:
        """The verdict line shared by the text report and ``tokenpool sim drill``."""
        recovery = (
            f"recovered_at={self.recovered_at} recovery_time={self.recovery_time}s"
            if self.recovered_at is not None
            else "not recovered"
        )
        return (
            f"drill: kid={self.kid} at={self.compromised_at}"
            f" evicted={self.evicted}/{self.pool_before} {recovery}"
            f" bound={self.bound}s within_bound={self.within_bound}"
        )


@dataclass(frozen=True)
class RunResult:
    """A finished run: its digest and facts were streamed while it ran; its
    records are the lines written to ``trace_out``."""

    scenario: Scenario
    world: World
    trace: Trace
    digest: str
    metrics: PoolMetrics
    drill: DrillReport | None
    timeline: list[tuple[int, MigrationPhase]]
    violations: list[str]


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
    world = build_world(scenario, trace)
    world.engine.run(scenario.horizon)
    return RunResult(scenario, world, trace, trace.digest(), *walk.finish(trace))


class _Pass:
    """The fold of a run's trace: fed each record as it is written, it keeps
    what every report fact needs, in buffers that follow the pool, not the run.

    Record times must never decrease (a record that goes back is refused),
    so an instant is settled when a later one starts.  A PHASE record at t
    governs every auth attempt at t, and the drill counts every eviction and
    join at the compromise instant, whichever was written first; so both
    wait for the current instant to end.  The drill keeps two buffers, the
    kids evicted and the join times, emptied as each instant ends until the
    compromise and only appended to from then on.
    """

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.tail_start = scenario.horizon * (1.0 - TAIL_FRACTION)
        self.instant: int | None = None
        self.timeline: list[tuple[int, MigrationPhase]] = []
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
        name = _STEPPED.get((channel, outcome))
        return None if name is None else partial(self._feed, getattr(self, name))

    def _advance(self, t: int) -> None:
        """Close the current instant, as a record at ``t`` ends it."""
        if self.instant is not None and t < self.instant:
            raise SimulationError(f"trace record at t={t} written after one at t={self.instant}")
        self._close()
        self.instant = t

    def _feed(self, step: Callable[[int, str], None], t: int, detail: str) -> None:
        """Hand a record to its step, closing the current instant if it ends."""
        if t != self.instant:
            self._advance(t)
        step(t, detail)

    def _close(self) -> None:
        """Judge the instant's attempts (or keep them until the first PHASE
        record) and, until a compromise, empty the drill's buffers."""
        if self.timeline:
            phase = self.timeline[-1][1]
            permitted = _PERMITTED[phase]
            for at, (channel, _, method, outcome) in self.attempts:
                if method not in permitted:
                    self.violations.append(
                        f"t={at} {channel} used {method} under {phase.value} (outcome={outcome})"
                    )
            self.attempts.clear()
        if self.compromise is None:
            self.pool_before = self.final
            self.evicted.clear()
            del self.joins[:]

    def _attempt(self, head: Head, t: int, detail: str) -> None:
        """Keep an auth attempt for judging when its instant ends; fed
        directly, not through ``_feed``, so it closes the instant itself."""
        if t != self.instant:
            self._advance(t)
        self.attempts.append((t, head))

    def _phase(self, t: int, detail: str) -> None:
        self.timeline.append((t, MigrationPhase(parse_detail(detail)["phase"])))

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

    def finish(
        self, trace: Trace
    ) -> tuple[PoolMetrics, DrillReport | None, list[tuple[int, MigrationPhase]], list[str]]:
        """The metrics, drill, phase timeline and phase-soundness violations
        of the whole trace; ``trace`` gives each head's record count."""
        self._close()
        violations = self.violations if self.timeline else ["no phase records in trace"]
        return self._metrics(trace), self._drill(), self.timeline, violations

    def _metrics(self, trace: Trace) -> PoolMetrics:
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
        capacity = self.scenario.total_capacity
        return PoolMetrics(
            total_capacity=capacity,
            peak_pool=self.peak,
            final_pool=self.final,
            capacity_fraction=self.tail_sum / self.tail_n / capacity if self.tail_n and capacity else 0.0,
            auth_success=_sorted(auth_success),
            auth_failures=_sorted(auth_failures),
            denied=denied,
            dropped=dropped,
            legacy_dependency=_sorted(legacy),
            pilot_counts=_sorted(pilot_counts),
            job_counts=_sorted(job_counts),
        )

    def _drill(self) -> DrillReport | None:
        if self.compromise is None:
            return None
        compromised_at, kid = self.compromise
        evicted = self.evicted.count(kid)
        recovered_at: int | None = None
        if evicted and len(self.joins) >= evicted:
            recovered_at = self.joins[evicted - 1]
        recovery_time = None if recovered_at is None else recovered_at - compromised_at
        bound = self.scenario.drill.reprovision_delay + self.scenario.pilots.startup
        return DrillReport(
            kid=kid,
            compromised_at=compromised_at,
            pool_before=self.pool_before,
            evicted=evicted,
            recovered_at=recovered_at,
            recovery_time=recovery_time,
            bound=bound,
            within_bound=recovery_time is not None and recovery_time <= bound,
        )


def _sorted(counts: Mapping[str, int]) -> dict[str, int]:
    return dict(sorted(counts.items()))


def compute_metrics(result: RunResult) -> PoolMetrics:
    """Summarize a run.  ``capacity_fraction`` is the mean pool size over
    the final ``TAIL_FRACTION`` of the horizon divided by total slots."""
    return result.metrics


def drill_report(result: RunResult) -> DrillReport | None:
    """The key-compromise exercise of the run, if one ran.

    Recovery is the instant the pool regains as many members as it lost:
    the t of the n-th join after the compromise, n = pilots evicted.
    """
    return result.drill


def check_phase_soundness(result: RunResult) -> list[str]:
    """Every auth attempt carrying a concrete method must use a method
    the phase in force at that instant permits.  Returns violations."""
    return result.violations


def report_dict(result: RunResult) -> dict:
    metrics, drill, timeline, violations = result.metrics, result.drill, result.timeline, result.violations
    out = {
        "scenario": result.scenario.name,
        "seed": result.scenario.seed,
        "horizon": result.scenario.horizon,
        "digest": result.digest,
        "phase_timeline": [{"t": t, "phase": phase.value} for t, phase in timeline],
        "pool": {
            "capacity": metrics.total_capacity,
            "peak": metrics.peak_pool,
            "final": metrics.final_pool,
            "tail_fraction": round(metrics.capacity_fraction, 4),
        },
        "auth": {
            "success_by_method": metrics.auth_success,
            "failures_by_reason": metrics.auth_failures,
            "denied": metrics.denied,
            "dropped": metrics.dropped,
            "legacy_dependency": metrics.legacy_dependency,
        },
        "pilots": metrics.pilot_counts,
        "jobs": metrics.job_counts,
        "phase_soundness": {"ok": not violations, "violations": violations},
    }
    if drill is not None:
        out["drill"] = dataclasses.asdict(drill)
    return out


def render_report(result: RunResult, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(report_dict(result), indent=2, sort_keys=True)
    metrics, drill, timeline, violations = result.metrics, result.drill, result.timeline, result.violations
    scenario = result.scenario
    lines = [
        f"run: {scenario.name}  seed={scenario.seed}  horizon={scenario.horizon}",
        f"digest: {result.digest}",
        "phase timeline: " + "  ->  ".join(f"{t}s {phase.value}" for t, phase in timeline),
        (
            f"pool: capacity={metrics.total_capacity} peak={metrics.peak_pool}"
            f" final={metrics.final_pool} tail_fill={metrics.capacity_fraction:.3f}"
        ),
        "auth success by method: " + _fmt_counts(metrics.auth_success),
        "auth failures by reason: " + _fmt_counts(metrics.auth_failures),
        f"denied={metrics.denied} dropped={metrics.dropped}",
        "legacy dependency by channel: " + _fmt_counts(metrics.legacy_dependency),
        "pilot events: " + _fmt_counts(metrics.pilot_counts),
        "job events: " + _fmt_counts(metrics.job_counts),
    ]
    if violations:
        lines.append(f"phase soundness: {len(violations)} violation(s)")
        lines.extend(f"  {v}" for v in violations[:5])
    else:
        lines.append("phase soundness: ok")
    if drill is not None:
        lines.append(drill.line())
    return "\n".join(lines) + "\n"


def _fmt_counts(counts: Mapping[str, int]) -> str:
    return " ".join(f"{k}={v}" for k, v in counts.items()) or "none"
