"""Trace-derived reporting: the report model (pool and auth totals, drill
reconstruction, phase soundness) and its JSON and text formats."""

import dataclasses
import io
import json

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_report import reference_report
from test_scenario import MUTATIONS, SCENARIO_DIR, SPLIT_KEY_COMPROMISE, mutated_scenario
from test_simnet import pick, written

from tokenpool.migration import (
    _Pass,
    check_phase_soundness,
    compute_metrics,
    drill_line,
    drill_report,
    parse_detail,
    render_report,
    report_dict,
    run_scenario,
)
from tokenpool.errors import SimulationError
from tokenpool.policy import MigrationPhase
from tokenpool.scenario import parse_scenario
from tokenpool.simnet import Record, Trace

ISSUER = "https://issuer.test"
SHIPPED = sorted(SCENARIO_DIR.glob("*.yaml"))


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
def small_out():
    """The buffer ``small_result`` writes its trace to."""
    return io.BytesIO()


@pytest.fixture(scope="module")
def small_result(small_out):
    return run_scenario(parse_scenario(doc()), trace_out=small_out)


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
        ),
    )


def refolded(result, records):
    """``result`` with the report of ``records``, fed one by one through a
    fresh fold as a run feeds its own; that report is checked against the
    reference report of the lines written."""
    walk = _Pass(result.scenario)
    out = io.BytesIO()
    trace = Trace(out=out, fold=walk)
    for r in records:
        trace.record(r.t, r.channel, r.outcome, method=r.method, identity=r.identity, detail=r.detail)
    report = walk.finish(trace)
    assert report == reference_report(out.getvalue(), result.scenario)
    return dataclasses.replace(result, trace=trace, report=report)


def test_run_scenario_seed_override(small_result):
    overridden = run_scenario(parse_scenario(doc()), seed=999)
    assert overridden.scenario.seed == 999
    assert overridden.digest != small_result.digest


def test_run_scenario_accepts_a_path(tmp_path, small_result):
    path = tmp_path / "unit.yaml"
    path.write_text(yaml.safe_dump(doc()))
    assert run_scenario(path).digest == small_result.digest


def test_report_and_render_hash_the_trace_once(monkeypatch):
    # The run reads its digest once, when it ends; the reports only format it.
    hashed = []
    real_digest = Trace.digest
    monkeypatch.setattr(Trace, "digest", lambda trace: hashed.append(trace) or real_digest(trace))
    result = run_scenario(parse_scenario(doc()))
    report = report_dict(result)
    text = render_report(result)
    assert hashed == [result.trace]
    assert report["digest"] == real_digest(result.trace)
    assert f"digest: {report['digest']}" in text


def test_parse_detail():
    assert parse_detail("a=1 b=x flag orphan=") == {"a": "1", "b": "x", "orphan": ""}
    assert parse_detail("") == {}


def test_compute_metrics_cross_checks_against_raw_trace(small_result, small_out):
    pool, auth = small_result.report["pool"], small_result.report["auth"]
    records = written(small_out.getvalue())
    assert pool["capacity"] == 10

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
        for r in records
        if r.channel in auth_channels and r.outcome == "SUCCESS"
    )
    assert sum(auth["success_by_method"].values()) == recounted
    assert sum(auth["failures_by_reason"].values()) == sum(
        1
        for r in records
        if r.channel in auth_channels and r.outcome.startswith("FAIL:")
    )

    sizes = [
        (r.t, int(parse_detail(r.detail)["size"]))
        for r in pick(records, "POOL", outcome="SAMPLE")
    ]
    assert pool["peak"] == max(s for _, s in sizes)
    assert pool["final"] == sizes[-1][1]
    tail = [s for t, s in sizes if t >= 480]  # final fifth of a 600 s horizon
    assert pool["tail_fraction"] == pytest.approx(sum(tail) / len(tail) / 10)

    assert small_result.report["jobs"]["QUEUED"] == 5
    assert small_result.report["pilots"]["REQUESTED"] == 5
    assert auth["dropped"] == 0 and auth["denied"] == 0
    assert auth["legacy_dependency"] == {}


def test_metrics_track_legacy_dependency():
    over = doc(name="legacy-unit")
    over["sites"][0]["ces"][0]["accepts_tokens"] = False
    auth = run_scenario(parse_scenario(over)).report["auth"]
    assert auth["success_by_method"].get("GSI_PROXY", 0) == 5
    assert auth["legacy_dependency"] == {"FACTORY->CE": 5}


def test_drill_report_absent_without_a_compromise(small_result):
    assert "drill" not in small_result.report


def test_drill_report_reconstruction(drill_result):
    report = drill_result.report.get("drill")
    assert report is not None
    assert report["kid"] == "startd-1"
    assert report["compromised_at"] == 300
    assert report["pool_before"] == 4
    assert report["evicted"] == 2
    assert report["recovered_at"] == 390
    assert report["recovery_time"] == 90
    assert report["bound"] == 60 + 30  # re-provision delay + pilot startup
    assert report["within_bound"]
    assert drill_line(report) == (
        "drill: kid=startd-1 at=300 evicted=2/4 recovered_at=390 recovery_time=90s"
        " bound=90s within_bound=True"
    )


def test_readers_of_the_report_model(small_result, drill_result):
    # compute_metrics, drill_report and check_phase_soundness each hand
    # back a part of the one model; none computes a fact of its own.
    for result in (small_result, drill_result):
        assert compute_metrics(result) is result.report
        assert drill_report(result) is result.report.get("drill")
        assert check_phase_soundness(result) is result.report["phase_soundness"]["violations"]
    assert drill_report(small_result) is None


def test_phase_timeline():
    result = run_scenario(
        parse_scenario(
            doc(
                name="staged-unit",
                plan=[{"at": 300, "action": "set_phase", "phase": "TOKEN_ONLY"}],
            )
        )
    )
    timeline = result.report["phase_timeline"]
    assert timeline == [
        {"t": 0, "phase": MigrationPhase.TOKEN_WITH_GSI_FALLBACK.value},
        {"t": 300, "phase": MigrationPhase.TOKEN_ONLY.value},
    ]


def test_phase_soundness_clean_run(small_result):
    assert check_phase_soundness(small_result) == []


def test_phase_soundness_detects_forged_legacy_use(small_result):
    out = io.BytesIO()
    staged = run_scenario(
        parse_scenario(
            doc(
                name="staged-unit",
                plan=[{"at": 300, "action": "set_phase", "phase": "TOKEN_ONLY"}],
            )
        ),
        trace_out=out,
    )
    # The phase change at t=300 governs every record at t=300, including
    # one written before the PHASE record itself.
    forged = []
    boundaries = 0
    for r in written(out.getvalue()):
        if r.channel == "PLAN" and r.outcome == "PHASE" and r.t == 300:
            boundaries += 1
            forged.append(Record("FACTORY->CE", "", "cms-pilot", "GSI_PROXY", "SUCCESS", 300))
        forged.append(r)
    assert boundaries == 1
    later = next(i for i, r in enumerate(forged) if r.t > 400)  # keep time order
    forged.insert(later, Record("FACTORY->CE", "", "cms-pilot", "GSI_PROXY", "SUCCESS", 400))
    tampered = refolded(staged, forged)
    violations = check_phase_soundness(tampered)
    assert len(violations) == 2
    assert [v.split()[0] for v in violations] == ["t=300", "t=400"]
    for violation in violations:
        assert "FACTORY->CE" in violation
        assert "GSI_PROXY" in violation
        assert "TOKEN_ONLY" in violation
    assert report_dict(tampered)["phase_soundness"]["violations"] == violations


def test_phase_soundness_lists_interleaved_violations_in_record_order(small_result):
    """Legacy attempts on two channels interleave, and some are written
    before the PHASE record that forbids them: each is judged under the
    phase in force when its instant ends and listed where its record stands.
    An attempt past the horizon written before earlier records is refused."""
    forged = []

    def attempt(t, channel, method, outcome="SUCCESS"):
        forged.append(Record(channel, "", "cms-pilot", method, outcome, t))

    forged.append(Record("PLAN", "phase=TOKEN_WITH_GSI_FALLBACK", "-", "-", "PHASE", 0))
    attempt(100, "FACTORY->CE", "GSI_PROXY")
    attempt(300, "SCHEDD->COLLECTOR", "LOCAL_FS")
    attempt(300, "FACTORY->CE", "GSI_PROXY", outcome="FAIL:AuthRejected")
    forged.append(Record("PLAN", "phase=TOKEN_ONLY", "-", "-", "PHASE", 300))
    attempt(300, "SCHEDD->COLLECTOR", "LOCAL_FS", outcome="DENIED")
    attempt(310, "SCHEDD->COLLECTOR", "IDTOKEN")
    attempt(320, "SCHEDD->COLLECTOR", "LOCAL_FS")
    attempt(330, "FACTORY->CE", "GSI_PROXY")
    tampered = refolded(small_result, forged)
    violations = check_phase_soundness(tampered)
    assert violations == [
        "t=300 SCHEDD->COLLECTOR used LOCAL_FS under TOKEN_ONLY (outcome=SUCCESS)",
        "t=300 FACTORY->CE used GSI_PROXY under TOKEN_ONLY (outcome=FAIL:AuthRejected)",
        "t=300 SCHEDD->COLLECTOR used LOCAL_FS under TOKEN_ONLY (outcome=DENIED)",
        "t=320 SCHEDD->COLLECTOR used LOCAL_FS under TOKEN_ONLY (outcome=SUCCESS)",
        "t=330 FACTORY->CE used GSI_PROXY under TOKEN_ONLY (outcome=SUCCESS)",
    ]
    assert report_dict(tampered)["phase_soundness"]["violations"] == violations
    late = Record("FACTORY->CE", "", "cms-pilot", "GSI_PROXY", "SUCCESS", small_result.scenario.horizon + 60)
    assert forged[4].outcome == "PHASE" and forged[4].t == 300
    with pytest.raises(SimulationError, match=f"t=300 written after one at t={late.t}"):
        refolded(small_result, forged[:4] + [late] + forged[4:])


def test_fold_judges_an_attempt_under_a_phase_record_written_later_at_its_instant(small_result):
    forged = [
        Record("PLAN", "phase=TOKEN_WITH_GSI_FALLBACK", "-", "-", "PHASE", 0),
        Record("FACTORY->CE", "", "cms-pilot", "GSI_PROXY", "SUCCESS", 500),
        Record("FACTORY->CE", "", "cms-pilot", "SCITOKEN", "SUCCESS", 500),
        Record("PLAN", "phase=TOKEN_ONLY", "-", "-", "PHASE", 500),
    ]
    assert check_phase_soundness(refolded(small_result, forged)) == [
        "t=500 FACTORY->CE used GSI_PROXY under TOKEN_ONLY (outcome=SUCCESS)"
    ]
    # The same attempt one instant earlier falls under the old phase.
    forged[1] = forged[1]._replace(t=499)
    assert check_phase_soundness(refolded(small_result, forged)) == []


def test_trace_refuses_a_record_that_goes_back_in_time(small_result):
    # Whatever the head, and with a fold or without: the refused record is
    # not hashed, counted, written or fed, and the trace goes on at its t.
    late_pilot = (3, "PILOT", "REQUESTED"), {"detail": "pilot=pilot-00001 ce=ce-a"}
    late_auth = (3, "STARTD->COLLECTOR", "SUCCESS"), {"method": "IDTOKEN", "identity": "pool-daemon"}
    for fold in (None, _Pass(small_result.scenario)):
        out = io.BytesIO()
        trace = Trace(out=out, fold=fold)
        trace.record(5, "FACTORY->CE", "SUCCESS", method="SCITOKEN", identity="cms-pilot")
        trace.record(5, "PILOT", "REQUESTED", detail="pilot=pilot-00000 ce=ce-a")
        before = (trace.digest(), trace.head_counts(), out.getvalue())
        for args, kwargs in (late_pilot, late_auth):
            with pytest.raises(SimulationError, match="t=3 written after one at t=5"):
                trace.record(*args, **kwargs)
            assert (trace.digest(), trace.head_counts(), out.getvalue()) == before
        assert fold is None or fold.attempts == [(5, ("FACTORY->CE", "cms-pilot", "SCITOKEN", "SUCCESS"))]
        trace.record(5, "PILOT", "REQUESTED", detail="pilot=pilot-00001 ce=ce-a")
        assert sum(trace.head_counts().values()) == 3


def test_fold_judges_an_instant_an_auth_record_closes_under_the_phase_it_ended_in(small_result):
    walk = _Pass(small_result.scenario)
    trace = Trace(fold=walk)

    def attempt(t, method, outcome="SUCCESS"):
        trace.record(t, "SCHEDD->COLLECTOR", outcome, method=method, identity="pool-daemon")

    trace.record(0, "PLAN", "PHASE", detail="phase=TOKEN_WITH_GSI_FALLBACK")
    attempt(300, "LOCAL_FS")
    trace.record(300, "PLAN", "PHASE", detail="phase=TOKEN_ONLY")
    attempt(300, "LOCAL_FS", outcome="DENIED")
    attempt(310, "LOCAL_FS")  # opens t=310, so t=300 is judged now
    assert walk.violations == [
        "t=300 SCHEDD->COLLECTOR used LOCAL_FS under TOKEN_ONLY (outcome=SUCCESS)",
        "t=300 SCHEDD->COLLECTOR used LOCAL_FS under TOKEN_ONLY (outcome=DENIED)",
    ]
    # The attempt at t=310 waits for its own instant's phase.
    trace.record(310, "PLAN", "PHASE", detail="phase=GSI_ONLY")
    attempt(320, "IDTOKEN")
    assert walk.violations[2:] == []
    assert walk.finish(trace)["phase_soundness"]["violations"][2:] == [
        "t=320 SCHEDD->COLLECTOR used IDTOKEN under GSI_ONLY (outcome=SUCCESS)"
    ]


def test_fold_drill_counts_an_eviction_and_a_join_written_before_the_compromise_at_its_instant(
    drill_result,
):
    def pilot(outcome, t, detail=""):
        return Record("PILOT", detail, "-", "-", outcome, t)

    def sample(t, size):
        return Record("POOL", f"joined=0 matched={size} size={size}", "-", "-", "SAMPLE", t)

    forged = [
        Record("PLAN", "phase=TOKEN_WITH_GSI_FALLBACK", "-", "-", "PHASE", 0),
        sample(100, 4),
        pilot("EVICT", 200, "pilot=p0 kid=startd-1 reason=KeyRevoked"),  # an earlier instant
        sample(300, 3),  # at the compromise instant: not the pool before it
        pilot("EVICT", 300, "pilot=p1 kid=startd-1 reason=KeyRevoked"),
        pilot("JOINED", 300, "pilot=p9 kid=startd-2"),
        Record("FAULT", "kind=KEY_COMPROMISE target=startd-1 start=300", "-", "-", "ACTIVATE", 300),
        pilot("EVICT", 300, "pilot=p2 kid=startd-1 reason=KeyCompromise"),
        pilot("EVICT", 300, "pilot=p3 kid=startd-2 reason=KeyCompromise"),  # another key
        pilot("JOINED", 330, "pilot=p10 kid=startd-2"),
        pilot("JOINED", 390, "pilot=p11 kid=startd-2"),
    ]
    report = refolded(drill_result, forged).report["drill"]
    assert (report["kid"], report["compromised_at"], report["pool_before"]) == ("startd-1", 300, 4)
    assert (report["evicted"], report["recovered_at"], report["recovery_time"]) == (2, 330, 30)


STARTD_KIDS = ("startd-1", "startd-2", "startd-3")

#: A record other than a compromise's ACTIVATE, as (channel, detail, outcome).
_DRILL_BODY = st.one_of(
    st.integers(0, 9).map(lambda n: ("POOL", f"joined=0 matched={n} size={n}", "SAMPLE")),
    st.sampled_from(STARTD_KIDS).map(lambda kid: ("PILOT", f"pilot=p kid={kid}", "JOINED")),
    st.sampled_from(STARTD_KIDS).map(lambda kid: ("PILOT", f"pilot=p kid={kid} reason=KeyRevoked", "EVICT")),
    st.sampled_from(
        [
            ("FAULT", "kind=MESSAGE_DROP target=* start=0 rate=0.5", "ACTIVATE"),
            ("FAULT", "kind=KEY_COMPROMISE target=startd-1 start=0", "INJECT"),
            ("PILOT", "pilot=p ce=ce-a", "SUBMITTED"),
            ("JOB", "job=job-00001 pilot=p", "MATCH"),
        ]
    ),
)


@st.composite
def drill_records(draw):
    """Records whose times never decrease, many sharing an instant, with zero,
    one or two key compromises among them."""
    body = draw(st.lists(_DRILL_BODY, min_size=8, max_size=30))
    for _ in range(draw(st.integers(0, 2))):
        kid = draw(st.sampled_from(STARTD_KIDS))
        compromise = ("FAULT", f"kind=KEY_COMPROMISE target={kid} start=0", "ACTIVATE")
        body.insert(draw(st.integers(0, len(body))), compromise)
    t, records = 0, []
    for channel, detail, outcome in body:
        t += draw(st.sampled_from((0, 0, 0, 1, 30)))
        records.append(Record(channel, detail, "-", "-", outcome, t))
    return records


@given(records=drill_records())
def test_fold_drill_matches_a_brute_force_over_generated_records(drill_result, records):
    # A live run writes no join or eviction before the compromise's ACTIVATE
    # at its instant, so only records fed to the fold reach that case.
    # ``refolded`` checks the whole report against the reference report.
    refolded(drill_result, records)


def test_fold_agrees_with_the_reference_report_on_every_fact():
    """One forged trace meets each rule of the fold that waits for an
    instant to end: attempts before the first PHASE record and before a
    PHASE record at their instant, a tail whose samples differ, and a
    compromise whose instant holds evictions and joins on either side of
    its ACTIVATE.  ``refolded`` compares the two reports."""
    scenario = parse_scenario(doc(horizon=600, drill={"reprovision_delay": 60}))

    def attempt(t, method, outcome="SUCCESS"):
        return Record("FACTORY->CE", "", "cms-pilot", method, outcome, t)

    def pilot(outcome, t, detail):
        return Record("PILOT", detail, "-", "-", outcome, t)

    def sample(t, size):
        return Record("POOL", f"joined=0 matched=0 size={size}", "-", "-", "SAMPLE", t)

    forged = [
        attempt(0, "GSI_PROXY"),
        Record("PLAN", "phase=TOKEN_WITH_GSI_FALLBACK", "-", "-", "PHASE", 0),
        Record("PLAN", "phase=TOKEN_ONLY", "-", "-", "PHASE", 0),
        Record("JOB", "client=cmsprod count=3", "-", "-", "QUEUED", 0),
        attempt(100, "SCITOKEN"),
        attempt(100, "GSI_PROXY", "FAIL:AuthRejected"),
        Record("PLAN", "phase=TOKEN_WITH_GSI_FALLBACK", "-", "-", "PHASE", 100),
        sample(300, 4),
        pilot("EVICT", 400, "pilot=p1 kid=startd-1 reason=KeyRevoked"),
        pilot("JOINED", 400, "pilot=p9 kid=startd-2"),
        Record("FAULT", "kind=KEY_COMPROMISE target=startd-1 start=400", "-", "-", "ACTIVATE", 400),
        pilot("EVICT", 400, "pilot=p2 kid=startd-1 reason=KeyCompromise"),
        sample(480, 2),
        sample(540, 3),
        pilot("JOINED", 540, "pilot=p10 kid=startd-2"),
        sample(600, 5),
    ]
    report = refolded(run_scenario(scenario), forged).report
    assert report["phase_soundness"]["violations"] == [
        "t=0 FACTORY->CE used GSI_PROXY under TOKEN_ONLY (outcome=SUCCESS)",
    ]
    assert report["pool"]["tail_fraction"] == (2 + 3 + 5) / 3 / 10
    assert (report["drill"]["evicted"], report["drill"]["recovered_at"]) == (2, 540)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda path: path.stem)
def test_fold_agrees_with_the_reference_report_on_each_shipped_scenario(path):
    out = io.BytesIO()
    result = run_scenario(path, trace_out=out)
    assert result.report == reference_report(out.getvalue(), result.scenario)


@settings(max_examples=100)
@example(SPLIT_KEY_COMPROMISE)
@given(MUTATIONS)
def test_fold_agrees_with_the_reference_report_on_a_mutated_scenario(mutation):
    sc = mutated_scenario(mutation)
    if sc is None:
        return
    out = io.BytesIO()
    result = run_scenario(sc, trace_out=out)
    assert result.report == reference_report(out.getvalue(), sc)
    assert result.report["phase_soundness"]["ok"], result.report["phase_soundness"]


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


def test_tail_fill_is_rounded_once_from_the_unrounded_model(small_result):
    # Rounding twice can differ from rounding once: 0.73346 -> 0.7335 -> 0.734.
    report = small_result.report
    model = {**report, "pool": {**report["pool"], "tail_fraction": 0.73346}}
    result = dataclasses.replace(small_result, report=model)
    assert "tail_fill=0.733\n" in render_report(result)
    assert report_dict(result)["pool"]["tail_fraction"] == 0.7335
    assert json.loads(render_report(result, "json"))["pool"]["tail_fraction"] == 0.7335
    assert model["pool"]["tail_fraction"] == 0.73346  # the JSON edge rounds a copy


@pytest.mark.parametrize("fmt", ["JSON", "yaml", ""])
def test_render_report_refuses_an_unknown_format(small_result, fmt):
    with pytest.raises(ValueError, match="unknown report format"):
        render_report(small_result, fmt)
