"""Trace-derived reporting: metrics, drill reconstruction, soundness."""

import dataclasses
import json

import pytest
import yaml

from tokenpool.migration import (
    check_phase_soundness,
    compute_metrics,
    drill_report,
    parse_detail,
    phase_at,
    phase_timeline,
    render_report,
    report_dict,
    run_scenario,
)
from tokenpool.policy import MigrationPhase
from tokenpool.scenario import parse_scenario
from tokenpool.simnet import Trace

ISSUER = "https://issuer.test"


def doc(**over):
    base = {
        "name": "metrics-unit",
        "seed": 21,
        "horizon": 600,
        "phase": "TOKEN_WITH_GSI_FALLBACK",
        "issuer": {"url": ISSUER, "kid": "op-1"},
        "keys": [
            {"kid": "pool-daemon", "purpose": "daemon"},
            {"kid": "startd-1", "purpose": "startd"},
            {"kid": "startd-2", "purpose": "startd"},
        ],
        "sites": [
            {
                "name": "site-a",
                "ces": [
                    {
                        "id": "ce-a",
                        "flavor": "HTCONDOR_CE",
                        "capacity": 10,
                        "accepts_tokens": True,
                    }
                ],
            }
        ],
        "factories": [{"id": "fac-1", "condor_major": 10, "rest_adopted": True}],
        "clients": [
            {"id": "cmsprod", "methods": ["IDTOKEN"], "jobs": 5, "duration": 86400}
        ],
    }
    base.update(over)
    return base


@pytest.fixture(scope="module")
def small_result():
    return run_scenario(parse_scenario(doc()))


@pytest.fixture(scope="module")
def drill_result():
    return run_scenario(
        parse_scenario(
            doc(
                name="drill-unit",
                frontend={"cycle": 1000, "match_interval": 60},
                clients=[
                    {"id": "cmsprod", "methods": ["IDTOKEN"], "jobs": 4, "duration": 86400}
                ],
                faults=[{"kind": "KEY_COMPROMISE", "target": "startd-1", "start": 300}],
                drill={"reprovision_delay": 60},
            )
        )
    )


def test_run_scenario_seed_override(small_result):
    overridden = run_scenario(parse_scenario(doc()), seed=999)
    assert overridden.scenario.seed == 999
    assert overridden.digest != small_result.digest


def test_run_scenario_accepts_a_path(tmp_path, small_result):
    path = tmp_path / "unit.yaml"
    path.write_text(yaml.safe_dump(doc()))
    assert run_scenario(path).digest == small_result.digest


def test_report_and_render_hash_the_trace_once(monkeypatch):
    result = run_scenario(parse_scenario(doc()))
    hashed = []
    real_digest = Trace.digest
    monkeypatch.setattr(Trace, "digest", lambda trace: hashed.append(trace) or real_digest(trace))
    report = report_dict(result)
    text = render_report(result)
    assert hashed == [result.trace]
    assert report["digest"] == real_digest(result.trace)
    assert f"digest: {report['digest']}" in text


def test_parse_detail():
    assert parse_detail("a=1 b=x flag orphan=") == {"a": "1", "b": "x", "orphan": ""}
    assert parse_detail("") == {}


def test_compute_metrics_cross_checks_against_raw_trace(small_result):
    metrics = compute_metrics(small_result)
    trace = small_result.trace
    assert metrics.total_capacity == 10

    # Totals must equal independent recounts of the same records.
    auth_channels = {
        "WMCLIENT->SCHEDD",
        "SCHEDD->COLLECTOR",
        "FRONTEND->ISSUER",
        "FRONTEND->FACTORY",
        "FACTORY->CE",
        "STARTD->COLLECTOR",
    }
    recounted = sum(
        1
        for r in trace.records
        if r.channel in auth_channels and r.outcome == "SUCCESS"
    )
    assert sum(metrics.auth_success.values()) == recounted
    assert sum(metrics.auth_failures.values()) == sum(
        1
        for r in trace.records
        if r.channel in auth_channels and r.outcome.startswith("FAIL:")
    )

    sizes = [
        (r.t, int(parse_detail(r.detail)["size"]))
        for r in trace.select("POOL", outcome="SAMPLE")
    ]
    assert metrics.peak_pool == max(s for _, s in sizes)
    assert metrics.final_pool == sizes[-1][1]
    tail = [s for t, s in sizes if t >= 480]  # final fifth of a 600 s horizon
    assert metrics.capacity_fraction == pytest.approx(sum(tail) / len(tail) / 10)

    assert metrics.job_counts["QUEUED"] == 5
    assert metrics.pilot_counts["REQUESTED"] == 5
    assert metrics.dropped == 0 and metrics.denied == 0
    assert metrics.legacy_dependency == {}


def test_metrics_track_legacy_dependency():
    over = doc(name="legacy-unit")
    over["sites"][0]["ces"][0]["accepts_tokens"] = False
    result = run_scenario(parse_scenario(over))
    metrics = compute_metrics(result)
    assert metrics.auth_success.get("GSI_PROXY", 0) == 5
    assert metrics.legacy_dependency == {"FACTORY->CE": 5}


def test_drill_report_absent_without_a_compromise(small_result):
    assert drill_report(small_result) is None


def test_drill_report_reconstruction(drill_result):
    report = drill_report(drill_result)
    assert report is not None
    assert report.kid == "startd-1"
    assert report.compromised_at == 300
    assert report.pool_before == 4
    assert report.evicted == 2
    assert report.recovered_at == 390
    assert report.recovery_time == 90
    assert report.bound == 60 + 30  # re-provision delay + pilot startup
    assert report.within_bound


def test_phase_timeline_and_lookup():
    result = run_scenario(
        parse_scenario(
            doc(
                name="staged-unit",
                plan=[{"at": 300, "action": "set_phase", "phase": "TOKEN_ONLY"}],
            )
        )
    )
    timeline = phase_timeline(result.trace)
    assert timeline == [
        (0, MigrationPhase.TOKEN_WITH_GSI_FALLBACK),
        (300, MigrationPhase.TOKEN_ONLY),
    ]
    assert phase_at(timeline, 0) is MigrationPhase.TOKEN_WITH_GSI_FALLBACK
    assert phase_at(timeline, 299) is MigrationPhase.TOKEN_WITH_GSI_FALLBACK
    assert phase_at(timeline, 300) is MigrationPhase.TOKEN_ONLY
    assert phase_at(timeline, 10**6) is MigrationPhase.TOKEN_ONLY


def test_phase_soundness_clean_run(small_result):
    assert check_phase_soundness(small_result) == []


def test_phase_soundness_detects_forged_legacy_use(small_result):
    staged = run_scenario(
        parse_scenario(
            doc(
                name="staged-unit",
                plan=[{"at": 300, "action": "set_phase", "phase": "TOKEN_ONLY"}],
            )
        )
    )
    # The phase change at t=300 governs every record at t=300, including
    # one written before the PHASE record itself.
    forged = Trace()
    boundaries = 0
    for r in staged.trace.records:
        if r.channel == "PLAN" and r.outcome == "PHASE" and r.t == 300:
            boundaries += 1
            forged.record(300, "FACTORY->CE", "SUCCESS", method="GSI_PROXY", identity="cms-pilot")
        forged.record(
            r.t, r.channel, r.outcome, method=r.method, identity=r.identity, detail=r.detail
        )
    assert boundaries == 1
    forged.record(400, "FACTORY->CE", "SUCCESS", method="GSI_PROXY", identity="cms-pilot")
    tampered = dataclasses.replace(staged, trace=forged)
    violations = check_phase_soundness(tampered)
    assert len(violations) == 2
    assert [v.split()[0] for v in violations] == ["t=300", "t=400"]
    for violation in violations:
        assert "FACTORY->CE" in violation
        assert "GSI_PROXY" in violation
        assert "TOKEN_ONLY" in violation
    assert report_dict(tampered)["phase_soundness"]["violations"] == violations


def test_phase_soundness_lists_interleaved_violations_in_record_order(small_result):
    """Legacy attempts on two channels interleave, some are written before
    the PHASE record that forbids them, and one lies past the horizon but
    is written before earlier ones: each is judged under the whole
    timeline and listed where its record stands."""
    forged = Trace()

    def attempt(t, channel, method, outcome="SUCCESS"):
        forged.record(t, channel, outcome, method=method, identity="cms-pilot")

    forged.record(0, "PLAN", "PHASE", detail="phase=TOKEN_WITH_GSI_FALLBACK")
    attempt(100, "FACTORY->CE", "GSI_PROXY")
    attempt(300, "SCHEDD->COLLECTOR", "LOCAL_FS")
    attempt(300, "FACTORY->CE", "GSI_PROXY", outcome="FAIL:AuthRejected")
    attempt(small_result.scenario.horizon + 60, "FACTORY->CE", "GSI_PROXY")
    forged.record(300, "PLAN", "PHASE", detail="phase=TOKEN_ONLY")
    attempt(310, "SCHEDD->COLLECTOR", "IDTOKEN")
    attempt(320, "SCHEDD->COLLECTOR", "LOCAL_FS")
    attempt(330, "FACTORY->CE", "GSI_PROXY")
    tampered = dataclasses.replace(small_result, trace=forged)
    violations = check_phase_soundness(tampered)
    assert violations == [
        "t=300 SCHEDD->COLLECTOR used LOCAL_FS under TOKEN_ONLY (outcome=SUCCESS)",
        "t=300 FACTORY->CE used GSI_PROXY under TOKEN_ONLY (outcome=FAIL:AuthRejected)",
        "t=660 FACTORY->CE used GSI_PROXY under TOKEN_ONLY (outcome=SUCCESS)",
        "t=320 SCHEDD->COLLECTOR used LOCAL_FS under TOKEN_ONLY (outcome=SUCCESS)",
        "t=330 FACTORY->CE used GSI_PROXY under TOKEN_ONLY (outcome=SUCCESS)",
    ]
    assert report_dict(tampered)["phase_soundness"]["violations"] == violations


def test_report_dict_shape(drill_result):
    report = report_dict(drill_result)
    assert report["scenario"] == "drill-unit"
    assert report["digest"] == drill_result.digest
    assert report["pool"]["capacity"] == 10
    assert report["phase_soundness"]["ok"] is True
    assert report["drill"]["evicted"] == 2
    assert report["drill"]["within_bound"] is True


def test_render_report_text_and_json(drill_result):
    text = render_report(drill_result, "text")
    assert f"digest: {drill_result.digest}" in text
    assert "phase soundness: ok" in text
    assert "within_bound=True" in text
    parsed = json.loads(render_report(drill_result, "json"))
    assert parsed["digest"] == drill_result.digest
