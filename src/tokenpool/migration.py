"""Run scenarios end to end and distill their traces into reports.

A RunResult bundles the scenario, the finished World, and the audit
trace.  Everything reported here — pool fill, auth mix, legacy
dependency, drill recovery, phase soundness — is recomputed from the
trace records, never from live actor state, so reports hold for
serialized traces too.  A report reads the records in one pass
(``_Pass``), and the public fact functions read their answers from it.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping

from .actors import AUTH_CHANNEL_LABELS, World, build_world
from .policy import PHASE_PERMITS, AuthMethod, MigrationPhase
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
    Trace,
)

LEGACY_METHOD_VALUES = (AuthMethod.GSI_PROXY.value, AuthMethod.LOCAL_FS.value)

#: ``capacity_fraction`` averages the pool size over this final share of the horizon.
TAIL_FRACTION = 0.2

_AUTH_CHANNELS = frozenset(AUTH_CHANNEL_LABELS)
_METHOD_VALUES = frozenset(m.value for m in AuthMethod)
_PERMITTED = {
    phase: frozenset(m.value for m in methods) for phase, methods in PHASE_PERMITS.items()
}
#: (channel, outcome) of the non-auth heads whose facts are read record by record.
_STEPPED = frozenset({
    (TRACE_PILOT, "JOINED"), (TRACE_PILOT, "EVICT"), (TRACE_POOL, "SAMPLE"),
    (TRACE_JOB, "QUEUED"), (TRACE_PLAN, "PHASE"), (TRACE_FAULT, "ACTIVATE"),
})


@dataclass(frozen=True)
class RunResult:
    scenario: Scenario
    world: World
    trace: Trace

    @cached_property
    def digest(self) -> str:
        return self.trace.digest()

    def write_trace(self, path: str | Path) -> None:
        """Write the trace as JSONL, keeping the SHA-256 of the written
        lines as the digest so the trace is serialised once."""
        self.__dict__["digest"] = self.trace.write(path)


def run_scenario(source: Scenario | str | Path, *, seed: int | None = None) -> RunResult:
    """Build the world for a scenario (or scenario file) and run it out."""
    scenario = source if isinstance(source, Scenario) else load_scenario(source)
    if seed is not None:
        scenario = dataclasses.replace(scenario, seed=seed)
    world = build_world(scenario)
    world.engine.run(scenario.horizon)
    return RunResult(scenario=scenario, world=world, trace=world.trace)


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


class _Pass:
    """One walk over a trace's columns, keeping what every report fact needs.

    Heads are classified once; only those whose facts sit in a record's time
    or detail are read record by record.  Phase soundness and the drill are
    settled after the walk: a PHASE record at t governs every auth record at
    t, and the drill counts every eviction and join at the compromise instant,
    whichever was written first.  A pass must not outlive its report, so its
    buffers are gone before the digest sets the report's peak memory.
    """

    def __init__(self, trace: Trace) -> None:
        self.timeline: list[tuple[int, MigrationPhase]] = []
        self.samples: list[tuple[int, int]] = []  # (t, pool size)
        self.joins: list[int] = []
        self.evictions: list[tuple[int, str | None]] = []  # (t, kid)
        self.compromise: tuple[int, str] | None = None  # first KEY_COMPROMISE: (t, kid)
        self.auth_success: Counter[str] = Counter()
        self.auth_failures: Counter[str] = Counter()
        self.legacy: Counter[str] = Counter()
        self.pilot_counts: Counter[str] = Counter()
        self.job_counts: Counter[str] = Counter()
        self.denied = self.dropped = 0
        heads, codes, times, details = trace.heads, trace.codes, trace.times, trace.details
        steps: dict[int, str] = {}  # head code -> the outcome read record by record
        for code, n in Counter(codes).items():
            channel, _, method, outcome = heads[code]
            if channel in _AUTH_CHANNELS:
                if method in _METHOD_VALUES:
                    steps[code] = "attempt"  # a record of this head is an auth attempt
                if outcome == OUTCOME_SUCCESS:
                    self.auth_success[method] += n
                    if method in LEGACY_METHOD_VALUES:
                        self.legacy[channel] += n
                elif outcome.startswith("FAIL:"):
                    self.auth_failures[outcome[len("FAIL:"):]] += n
                elif outcome == OUTCOME_DENIED:
                    self.denied += n
                elif outcome == OUTCOME_DROP:
                    self.dropped += n
            elif channel == TRACE_PILOT:
                self.pilot_counts[outcome] += n
            elif channel == TRACE_JOB and outcome != "QUEUED":
                self.job_counts[outcome] += n
            if (channel, outcome) in _STEPPED:
                steps[code] = outcome
        attempts = array("I")  # indices of auth records that name a concrete method
        for i, code in enumerate(codes):
            step = steps.get(code)
            if step == "attempt":
                attempts.append(i)
            elif step is not None:
                t, kv = times[i], parse_detail(details[i])
                if step == "SAMPLE":
                    self.samples.append((t, int(kv["size"])))
                elif step == "JOINED":
                    self.joins.append(t)
                elif step == "EVICT":
                    self.evictions.append((t, kv.get("kid")))
                elif step == "QUEUED":
                    self.job_counts[step] += int(kv.get("count", "0"))
                elif step == "PHASE":
                    self.timeline.append((t, MigrationPhase(kv["phase"])))
                elif kv.get("kind") == "KEY_COMPROMISE" and self.compromise is None:
                    self.compromise = (t, kv["target"])
        self.violations: list[str] = []
        if not self.timeline:
            self.violations.append("no phase records in trace")
            return
        # Only a method some phase in the timeline forbids can violate.
        always = frozenset.intersection(*(_PERMITTED[phase] for _, phase in self.timeline))
        suspect = {c for c, s in steps.items() if s == "attempt" and heads[c][2] not in always}
        for i in (i for i in attempts if codes[i] in suspect):
            channel, _, method, outcome = heads[codes[i]]
            phase = phase_at(self.timeline, times[i])
            if method not in _PERMITTED[phase]:
                self.violations.append(
                    f"t={times[i]} {channel} used {method} under {phase.value}"
                    f" (outcome={outcome})"
                )

    def metrics(self, scenario: Scenario) -> PoolMetrics:
        capacity = scenario.total_capacity
        tail_start = scenario.horizon * (1.0 - TAIL_FRACTION)
        tail = [size for t, size in self.samples if t >= tail_start]
        return PoolMetrics(
            total_capacity=capacity,
            peak_pool=max((size for _, size in self.samples), default=0),
            final_pool=self.samples[-1][1] if self.samples else 0,
            capacity_fraction=statistics.fmean(tail) / capacity if tail and capacity else 0.0,
            auth_success=_sorted(self.auth_success),
            auth_failures=_sorted(self.auth_failures),
            denied=self.denied,
            dropped=self.dropped,
            legacy_dependency=_sorted(self.legacy),
            pilot_counts=_sorted(self.pilot_counts),
            job_counts=_sorted(self.job_counts),
        )

    def drill(self, scenario: Scenario) -> DrillReport | None:
        if self.compromise is None:
            return None
        compromised_at, kid = self.compromise
        evicted = sum(1 for t, k in self.evictions if k == kid and t >= compromised_at)
        pool_before = 0
        for t, size in self.samples:
            if t >= compromised_at:
                break
            pool_before = size
        joins_after = [t for t in self.joins if t >= compromised_at]
        recovered_at: int | None = None
        if evicted and len(joins_after) >= evicted:
            recovered_at = joins_after[evicted - 1]
        recovery_time = None if recovered_at is None else recovered_at - compromised_at
        bound = scenario.drill.reprovision_delay + scenario.pilots.startup
        return DrillReport(
            kid=kid,
            compromised_at=compromised_at,
            pool_before=pool_before,
            evicted=evicted,
            recovered_at=recovered_at,
            recovery_time=recovery_time,
            bound=bound,
            within_bound=recovery_time is not None and recovery_time <= bound,
        )


def _sorted(counts: Mapping[str, int]) -> dict[str, int]:
    return dict(sorted(counts.items()))


def _facts(
    result: RunResult,
) -> tuple[PoolMetrics, DrillReport | None, list[tuple[int, MigrationPhase]], list[str]]:
    """Every fact a report states, from one pass whose buffers die here."""
    walk = _Pass(result.trace)
    return (
        walk.metrics(result.scenario),
        walk.drill(result.scenario),
        walk.timeline,
        walk.violations,
    )


def compute_metrics(result: RunResult) -> PoolMetrics:
    """Summarize a run.  ``capacity_fraction`` is the mean pool size over
    the final ``TAIL_FRACTION`` of the horizon divided by total slots."""
    return _Pass(result.trace).metrics(result.scenario)


def drill_report(result: RunResult) -> DrillReport | None:
    """Reconstruct the key-compromise exercise from the trace, if one ran.

    Recovery is the instant the pool regains as many members as it lost:
    the t of the n-th join after the compromise, n = pilots evicted.
    """
    return _Pass(result.trace).drill(result.scenario)


def phase_timeline(trace: Trace) -> list[tuple[int, MigrationPhase]]:
    return _Pass(trace).timeline


def phase_at(timeline: list[tuple[int, MigrationPhase]], t: int) -> MigrationPhase:
    current = timeline[0][1]
    for change_t, phase in timeline:
        if change_t <= t:
            current = phase
        else:
            break
    return current


def check_phase_soundness(result: RunResult) -> list[str]:
    """Every auth attempt carrying a concrete method must use a method
    the phase in force at that instant permits.  Returns violations."""
    return _Pass(result.trace).violations


def report_dict(result: RunResult) -> dict:
    metrics, drill, timeline, violations = _facts(result)
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
    metrics, drill, timeline, violations = _facts(result)
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
