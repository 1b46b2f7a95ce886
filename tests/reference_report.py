"""A brute-force twin of the report fold, for tests to check the fold against.

``reference_report`` reads a written trace the plain way: it parses every
line with ``json.loads``, keeps them all, and computes each fact of the
report model straight from its definition, with no buffer and no notion of
an instant closing.  It shares with ``tokenpool.migration`` only what the
definitions name: the scenario, the phases' permitted methods, the legacy
methods, the auth channels and the tail share of the horizon.
"""

import hashlib
import json
from collections import Counter

from tokenpool.migration import TAIL_FRACTION
from tokenpool.policy import LEGACY_METHODS, PHASE_PERMITS, AuthMethod, default_channels

AUTH_CHANNELS = frozenset(default_channels())
METHODS = frozenset(m.value for m in AuthMethod)
LEGACY = frozenset(m.value for m in LEGACY_METHODS)
PERMITTED = {phase.value: {m.value for m in methods} for phase, methods in PHASE_PERMITS.items()}


def _kv(detail):
    return dict(part.split("=", 1) for part in detail.split() if "=" in part)


def _counts(values):
    return dict(sorted(Counter(values).items()))


def reference_report(written, scenario):
    """The report model of the trace ``written`` (its JSONL bytes) by a run
    of ``scenario``, equal to the ``result.report`` of that run."""
    lines = [json.loads(line) for line in written.splitlines()]

    def of(channel, outcome=None):
        return [r for r in lines if r["channel"] == channel and outcome in (None, r["outcome"])]

    auth = [r for r in lines if r["channel"] in AUTH_CHANNELS]
    successes = [r for r in auth if r["outcome"] == "SUCCESS"]
    timeline = [{"t": r["t"], "phase": _kv(r["detail"])["phase"]} for r in of("PLAN", "PHASE")]
    samples = [(r["t"], int(_kv(r["detail"])["size"])) for r in of("POOL", "SAMPLE")]
    tail = [size for t, size in samples if t >= scenario.horizon * (1.0 - TAIL_FRACTION)]
    capacity = scenario.total_capacity
    jobs = Counter(r["outcome"] for r in of("JOB") if r["outcome"] != "QUEUED")
    if of("JOB", "QUEUED"):
        jobs["QUEUED"] = sum(int(_kv(r["detail"]).get("count", "0")) for r in of("JOB", "QUEUED"))

    def phase_at(t):
        """The phase of the last PHASE record at or before t: one at t governs
        t wherever it was written, and the first one governs what precedes it."""
        at = max(t, timeline[0]["t"])
        return [p["phase"] for p in timeline if p["t"] <= at][-1]

    if timeline:
        violations = [
            f"t={r['t']} {r['channel']} used {r['method']} under {phase_at(r['t'])} (outcome={r['outcome']})"
            for r in auth
            if r["method"] in METHODS and r["method"] not in PERMITTED[phase_at(r["t"])]
        ]
    else:
        violations = ["no phase records in trace"]
    report = {
        "scenario": scenario.name,
        "seed": scenario.seed,
        "horizon": scenario.horizon,
        "digest": hashlib.sha256(written).hexdigest(),
        "phase_timeline": timeline,
        "pool": {
            "capacity": capacity,
            "peak": max((size for _, size in samples), default=0),
            "final": samples[-1][1] if samples else 0,
            "tail_fraction": sum(tail) / len(tail) / capacity if tail and capacity else 0.0,
        },
        "auth": {
            "success_by_method": _counts(r["method"] for r in successes),
            "failures_by_reason": _counts(
                r["outcome"][len("FAIL:"):] for r in auth if r["outcome"].startswith("FAIL:")
            ),
            "denied": sum(r["outcome"] == "DENIED" for r in auth),
            "dropped": sum(r["outcome"] == "DROP" for r in auth),
            "legacy_dependency": _counts(r["channel"] for r in successes if r["method"] in LEGACY),
        },
        "pilots": _counts(r["outcome"] for r in of("PILOT")),
        "jobs": dict(sorted(jobs.items())),
        "phase_soundness": {"ok": not violations, "violations": violations},
    }
    compromises = [
        (r["t"], kv["target"])
        for r in of("FAULT", "ACTIVATE")
        if (kv := _kv(r["detail"])).get("kind") == "KEY_COMPROMISE"
    ]
    if compromises:
        report["drill"] = _drill(scenario, samples, of("PILOT"), *compromises[0])
    return report


def _drill(scenario, samples, pilot_records, at, kid):
    """The first compromise, of ``kid`` at ``at``: the pool at the last sample
    before ``at``, the kid's evictions from ``at`` on, and recovery at the
    n-th join from ``at`` on, n the evictions."""
    before = [size for t, size in samples if t < at]
    evicted = sum(
        r["outcome"] == "EVICT" and r["t"] >= at and _kv(r["detail"]).get("kid") == kid
        for r in pilot_records
    )
    joins = [r["t"] for r in pilot_records if r["outcome"] == "JOINED" and r["t"] >= at]
    recovered_at = joins[evicted - 1] if 0 < evicted <= len(joins) else None
    recovery_time = None if recovered_at is None else recovered_at - at
    bound = scenario.drill.reprovision_delay + scenario.pilots.startup
    return {
        "kid": kid,
        "compromised_at": at,
        "pool_before": before[-1] if before else 0,
        "evicted": evicted,
        "recovered_at": recovered_at,
        "recovery_time": recovery_time,
        "bound": bound,
        "within_bound": recovery_time is not None and recovery_time <= bound,
    }
