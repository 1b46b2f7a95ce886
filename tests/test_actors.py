"""World wiring and the daemon state machines, end to end on small pools."""

import ast
import dataclasses
import gc
import io
import re
import tracemalloc
import types
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_perfbench_spans import load_spans
from test_scenario import MUTATIONS, mutated_scenario
from test_simnet import pick, written
from test_tokens import present_on

import tokenpool
from tokenpool import actors, jose, migration, policy, tokens
from tokenpool.actors import (
    CH_ADVERTISE,
    CH_CE_SUBMIT,
    CH_JOIN,
    CH_PROVISION,
    CH_SUBMIT,
    CH_TOKEN_FETCH,
    PilotState,
    build_world,
)
from tokenpool.errors import (
    KEY_COMPROMISE,
    MISMATCHED_CREDENTIAL,
    AudienceMismatch,
    AuthorizationDenied,
    Expired,
    KeyRevoked,
    MalformedToken,
    ScenarioError,
    SignatureInvalid,
    UnauthorizedRequestor,
    UnmappedIdentity,
)
from tokenpool.migration import parse_detail, run_scenario
from tokenpool.policy import AuthMethod, MigrationPhase
from tokenpool.scenario import CEInterface, load_scenario, parse_scenario
from tokenpool.simnet import (
    OUTCOME_SUCCESS,
    TRACE_FAULT,
    TRACE_JOB,
    TRACE_PILOT,
    TRACE_PLAN,
    TRACE_POOL,
    Engine,
    FaultBoard,
    FaultKind,
    Trace,
)
from tokenpool.tokens import DEFAULT_SKEW, KeyStatus, revoke_key

ISSUER = "https://issuer.test"
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SHIPPED = sorted(SCENARIO_DIR.glob("*.yaml"))


def doc(**over):
    base = {
        "name": "actors-unit",
        "seed": 11,
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
            {
                "id": "cmsprod",
                "methods": ["IDTOKEN", "LOCAL_FS"],
                "jobs": 5,
                "duration": 86400,
            }
        ],
    }
    base.update(over)
    return base


def run_doc(**over):
    scenario = parse_scenario(doc(**over))
    world = build_world(scenario, Trace(out=io.BytesIO()))
    world.engine.run(scenario.horizon)
    return world


def records(world):
    """The records the world's trace has written so far to the buffer it
    was built with."""
    return written(world.trace._out.getvalue())


def successes(world, channel, method=None):
    recs = pick(records(world), channel, outcome=OUTCOME_SUCCESS)
    if method is not None:
        recs = [r for r in recs if r.method == method.value]
    return recs


def failures(world, channel, reason):
    return pick(records(world), channel, outcome=f"FAIL:{reason}")


def returned(monkeypatch, owner, name):
    """Wrap ``owner.name``; the list returned collects what every call
    returns, in call order."""
    results = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(owner, name, wrapper)
    return results


def live_pilots(monkeypatch):
    """Wrap ``World.new_pilot`` and ``World.end_pilot``; the dict returned
    holds, by id, every pilot made and not yet ended.  Ending a pilot twice
    raises here."""
    live = {}
    new_pilot, end_pilot = actors.World.new_pilot, actors.World.end_pilot

    def made(world, ce):
        pilot = new_pilot(world, ce)
        live[pilot.id] = pilot
        return pilot

    def ended(world, pilot, *args, **kwargs):
        end_pilot(world, pilot, *args, **kwargs)
        del live[pilot.id]

    monkeypatch.setattr(actors.World, "new_pilot", made)
    monkeypatch.setattr(actors.World, "end_pilot", ended)
    return live


def pilot_ids(world, outcome):
    return {parse_detail(r.detail)["pilot"] for r in pick(records(world), TRACE_PILOT, outcome=outcome)}


# -- the happy pipeline -----------------------------------------------------


def test_pipeline_fills_pool_with_tokens_end_to_end(monkeypatch):
    live = live_pilots(monkeypatch)
    w = run_doc()
    assert len(w.collector.members) == 5
    assert all(p.state is PilotState.MATCHED for p in w.collector.members.values())
    assert sum(1 for p in live.values() if p.job is not None) == 5

    # Every hop authenticated with its token method.
    assert successes(w, CH_SUBMIT, AuthMethod.IDTOKEN)
    assert successes(w, CH_ADVERTISE, AuthMethod.IDTOKEN)
    assert successes(w, CH_TOKEN_FETCH, AuthMethod.IDTOKEN)
    assert successes(w, CH_PROVISION, AuthMethod.IDTOKEN)
    assert len(successes(w, CH_CE_SUBMIT, AuthMethod.SCITOKEN)) == 5
    assert len(successes(w, CH_JOIN, AuthMethod.IDTOKEN)) >= 5

    # No hop fell back to a legacy credential.
    legacy = [
        r
        for r in records(w)
        if r.method in (AuthMethod.GSI_PROXY.value, AuthMethod.LOCAL_FS.value)
    ]
    assert legacy == []

    samples = pick(records(w), TRACE_POOL, outcome="SAMPLE")
    assert "size=5" in samples[-1].detail


def test_minted_tokens_have_unique_jtis(monkeypatch):
    # Every pilot token ever minted, not only those of pilots still live.
    startd_tokens = returned(monkeypatch, actors.World, "mint_startd_token")
    w = run_doc()
    assert startd_tokens
    minted = [w.schedd.token, w.frontend.token, w.clients["cmsprod"].token]
    minted += startd_tokens
    minted += w.frontend.scitokens.values()
    jtis = [t.claims.jti for t in minted]
    assert len(jtis) == len(set(jtis))


def test_local_fs_only_client_succeeds_in_fallback_phase():
    w = run_doc(
        clients=[{"id": "cmsprod", "methods": ["LOCAL_FS"], "jobs": 2, "duration": 100}]
    )
    recs = successes(w, CH_SUBMIT, AuthMethod.LOCAL_FS)
    assert len(recs) == 1
    assert recs[0].identity == "cms-prod"


def test_locked_out_client_retries_until_provisioned():
    w = run_doc(
        phase="TOKEN_ONLY",
        clients=[
            {
                "id": "cmsprod",
                "methods": ["LOCAL_FS"],
                "jobs": 5,
                "duration": 86400,
                "retry_interval": 120,
            }
        ],
        plan=[{"at": 250, "action": "provision_client_token", "client": "cmsprod"}],
    )
    rejected = failures(w, CH_SUBMIT, "NoCommonMethod")
    assert [r.t for r in rejected] == [0, 120, 240]
    accepted = successes(w, CH_SUBMIT, AuthMethod.IDTOKEN)
    assert [r.t for r in accepted] == [360]
    assert len(w.collector.members) == 5  # pool formed after the late submit


# -- gateway failure modes --------------------------------------------------


def test_misconfigured_ce_masked_by_proxy_fallback():
    w = run_doc(faults=[{"kind": "CE_TOKEN_MISCONFIG", "target": "ce-a"}])
    token_rejections = failures(w, CH_CE_SUBMIT, "UntrustedIssuer")
    proxy_successes = successes(w, CH_CE_SUBMIT, AuthMethod.GSI_PROXY)
    assert len(token_rejections) == 5
    assert len(proxy_successes) == 5
    assert len(w.collector.members) == 5
    # Retry happens in place: rejection first, proxy success after it.
    order = [
        (r.outcome, r.detail)
        for r in pick(records(w), CH_CE_SUBMIT)
    ]
    for i, (outcome, detail) in enumerate(order):
        if outcome == "FAIL:UntrustedIssuer":
            pilot = detail.split("pilot=")[1].split()[0]
            later = [d for o, d in order[i + 1:] if o == OUTCOME_SUCCESS and f"pilot={pilot}" in d]
            assert later, f"no proxy retry for {pilot}"


def test_misconfigured_ce_starves_pool_under_token_only(monkeypatch):
    live = live_pilots(monkeypatch)
    w = run_doc(
        phase="TOKEN_ONLY", faults=[{"kind": "CE_TOKEN_MISCONFIG", "target": "ce-a"}]
    )
    assert len(w.collector.members) == 0
    assert len(failures(w, CH_CE_SUBMIT, "UntrustedIssuer")) >= 5
    assert not [
        r for r in records(w) if r.method == AuthMethod.GSI_PROXY.value
    ]
    requested = pilot_ids(w, "REQUESTED")
    assert requested and requested == pilot_ids(w, "FAILED")
    assert live == {}


def test_token_only_without_ce_token_support_is_a_dead_end():
    over = doc(phase="TOKEN_ONLY")
    over["sites"][0]["ces"][0]["accepts_tokens"] = False
    w = run_doc(**over)
    assert len(failures(w, CH_CE_SUBMIT, MISMATCHED_CREDENTIAL)) >= 5
    assert pick(records(w), TRACE_PILOT, outcome="SUBMITTED") == []
    assert len(w.collector.members) == 0


def test_capacity_exceeded_only_after_successful_auth():
    w = run_doc(
        clients=[
            {"id": "cmsprod", "methods": ["IDTOKEN"], "jobs": 15, "duration": 86400}
        ]
    )
    assert len(w.collector.members) == 10  # capacity caps the pool
    rejected = failures(w, CH_CE_SUBMIT, "CapacityExceeded")
    assert rejected
    ce_records = pick(records(w), CH_CE_SUBMIT)
    for reject in rejected:
        pilot = reject.detail.split("pilot=")[1].split()[0]
        idx = ce_records.index(reject)
        prior_auth = [
            r
            for r in ce_records[:idx]
            if r.outcome == OUTCOME_SUCCESS
            and f"pilot={pilot}" in r.detail
            and r.t == reject.t
        ]
        assert prior_auth, f"{pilot} was refused capacity without authenticating"


def test_stuck_submissions_leak_slots_and_never_join():
    w = run_doc(faults=[{"kind": "CE_STUCK_SUBMISSION", "target": "ce-a"}])
    stuck = [
        r
        for r in pick(records(w), TRACE_PILOT, outcome="SUBMITTED")
        if "stuck=1" in r.detail
    ]
    assert len(stuck) == 5
    assert pick(records(w), TRACE_PILOT, outcome="JOINED") == []
    assert w.ces["ce-a"].reserved == 5  # slots held by pilots that never arrive
    assert len(w.collector.members) == 0


def test_dropped_joins_are_retried_on_keepalive():
    w = run_doc(
        pilots={"keepalive": 100},
        faults=[
            {
                "kind": "MESSAGE_DROP",
                "target": "STARTD->COLLECTOR",
                "start": 0,
                "end": 31,
                "rate": 1.0,
            }
        ],
    )
    drops = pick(records(w), CH_JOIN, outcome="DROP")
    assert len(drops) == 5 and all(r.t == 30 for r in drops)
    joins = pick(records(w), TRACE_PILOT, outcome="JOINED")
    assert len(joins) == 5 and all(r.t == 130 for r in joins)
    assert len(w.collector.members) == 5


def test_dropped_advertisements_do_not_stop_the_schedule():
    w = run_doc(
        faults=[{"kind": "MESSAGE_DROP", "target": "SCHEDD->COLLECTOR", "rate": 1.0}]
    )
    drops = pick(records(w), CH_ADVERTISE, outcome="DROP")
    assert len(drops) == 600 // 60 + 1  # one per cycle, t=0 through t=600
    assert successes(w, CH_ADVERTISE) == []


def test_a_world_with_no_drop_fault_never_looks_one_up(monkeypatch):
    # A message asks whether it is lost, and the board is asked for a drop
    # fault, only when a MESSAGE_DROP fault was wired; a fault of another
    # kind fills the board but asks nothing.
    asked, losses = [], []
    active, dropped = FaultBoard.active, actors.World.dropped

    def recording(board, kind, target, t):
        asked.append((kind, target))
        return active(board, kind, target, t)

    def counted(world, channel, credential, detail):
        losses.append(channel)
        return dropped(world, channel, credential, detail)

    monkeypatch.setattr(FaultBoard, "active", recording)
    monkeypatch.setattr(actors.World, "dropped", counted)
    w = run_doc(faults=[{"kind": "CE_TOKEN_MISCONFIG", "target": "ce-a", "start": 500}])
    assert not w.has_drop_fault and w.board.by_kind and losses == []
    assert asked and all(kind is not FaultKind.MESSAGE_DROP for kind, _ in asked)
    asked.clear()
    w = run_doc(faults=[{"kind": "MESSAGE_DROP", "target": "SCHEDD->COLLECTOR", "rate": 0.0}])
    assert w.has_drop_fault and {CH_ADVERTISE, CH_JOIN} <= set(losses)
    assert (FaultKind.MESSAGE_DROP, CH_ADVERTISE) in asked and (FaultKind.MESSAGE_DROP, CH_JOIN) in asked
    assert pick(records(w), CH_ADVERTISE, outcome="DROP") == []


def test_unknown_fault_target_rejected_at_world_start():
    # Rejected as the scenario is parsed, before any World is built.
    with pytest.raises(ScenarioError, match="CE_TOKEN_MISCONFIG target 'ce-ghost' names no gateway"):
        parse_scenario(doc(faults=[{"kind": "CE_TOKEN_MISCONFIG", "target": "ce-ghost"}]))


# -- key compromise ---------------------------------------------------------


def test_startd_key_compromise_evicts_rotates_reprovisions(monkeypatch):
    live = live_pilots(monkeypatch)
    w = run_doc(
        # Park the frontend after its first cycle so the drill's own
        # reprovisioning is the only source of replacement pilots.
        frontend={"cycle": 1000, "match_interval": 60},
        clients=[
            {"id": "cmsprod", "methods": ["IDTOKEN"], "jobs": 4, "duration": 86400}
        ],
        faults=[{"kind": "KEY_COMPROMISE", "target": "startd-1", "start": 300}],
        drill={"reprovision_delay": 60},
    )
    evictions = pick(records(w), TRACE_PILOT, outcome="EVICT")
    assert len(evictions) == 2  # round-robin put 2 of 4 pilots on startd-1
    for rec in evictions:
        detail = rec.detail
        assert "kid=startd-1 " in detail and "reason=KeyCompromise" in detail

    assert w.sessions.keyring.lookup("startd-1").status is KeyStatus.REVOKED
    assert w.sessions.keyring.lookup("startd-1-r1").status is KeyStatus.ACTIVE
    assert w.startd_kids == ["startd-1-r1", "startd-2"]

    rotated = pick(records(w), "PLAN", outcome="KEY_ROTATED")
    assert len(rotated) == 1
    assert "old=startd-1 new=startd-1-r1 evicted=2" in rotated[0].detail

    requeues = pick(records(w), "JOB", outcome="REQUEUE")
    assert len(requeues) == 2

    reprovisions = pick(records(w), "PLAN", outcome="REPROVISION")
    assert len(reprovisions) == 1 and reprovisions[0].t == 360
    late_joins = [
        r for r in pick(records(w), TRACE_PILOT, outcome="JOINED") if r.t > 300
    ]
    assert len(late_joins) == 2 and all(r.t == 390 for r in late_joins)
    assert all("kid=startd-1 " not in r.detail for r in late_joins)

    # Pool is back at pre-drill strength and every job is running again.
    assert len(w.collector.members) == 4
    assert sum(1 for p in live.values() if p.job is not None) == 4


def test_daemon_key_compromise_reminted_for_all_daemons():
    w = run_doc(faults=[{"kind": "KEY_COMPROMISE", "target": "pool-daemon", "start": 300}])
    assert w.daemon_kid == "pool-daemon-r1"
    assert w.sessions.keyring.lookup("pool-daemon").status is KeyStatus.REVOKED
    for token in (w.schedd.token, w.frontend.token, w.clients["cmsprod"].token):
        assert token.header.kid == "pool-daemon-r1"
    # No pool member carried the daemon key, so nothing was evicted...
    assert pick(records(w), TRACE_PILOT, outcome="EVICT") == []
    assert len(w.collector.members) == 5
    # ...and the very next advertisement succeeds under the new key.
    later = [
        r for r in successes(w, CH_ADVERTISE, AuthMethod.IDTOKEN) if r.t >= 300
    ]
    assert later and all("kid=pool-daemon-r1" in r.detail for r in later)


def test_join_with_revoked_key_is_rejected():
    w = build_world(
        parse_scenario(
            doc(clients=[{"id": "cmsprod", "methods": ["IDTOKEN"], "jobs": 0, "duration": 10}])
        ),
        Trace(out=io.BytesIO()),
    )
    w.engine.run(10)
    pilot = w.new_pilot(w.ces["ce-a"])
    pilot.token = w.mint_startd_token(pilot, *w.startd_identity())
    pilot.state = PilotState.STARTED
    w.sessions.rekey(revoke_key(w.sessions.keyring, pilot.token.header.kid))
    w.collector.receive_join(pilot)
    assert pilot.state is PilotState.FAILED
    assert len(failures(w, CH_JOIN, "KeyRevoked")) == 1


# -- sessions and the pilot's token -----------------------------------------


def idle_world(**over):
    """A world at t=10 with no jobs; the frontend holds a capability for ce-a."""
    jobless = [{"id": "cmsprod", "methods": ["IDTOKEN"], "jobs": 0, "duration": 10}]
    w = build_world(parse_scenario(doc(clients=jobless, **over)), Trace(out=io.BytesIO()))
    w.engine.run(10)
    return w


def startd_token(w):
    pilot = w.new_pilot(w.ces["ce-a"])
    return pilot, w.mint_startd_token(pilot, *w.startd_identity())


def test_memoised_join_token_fails_once_its_key_is_revoked():
    w = idle_world()
    _, token = startd_token(w)
    w.authenticate_on(CH_JOIN, token)
    assert token.compact in w.sessions
    w.sessions.rekey(revoke_key(w.sessions.keyring, token.header.kid))
    with pytest.raises(KeyRevoked):
        w.authenticate_on(CH_JOIN, token)
    # The table started over under the new keyring, and a failure opens none.
    assert not w.sessions
    (failed,) = failures(w, CH_JOIN, "KeyRevoked")
    assert failed.method == AuthMethod.IDTOKEN.value


def test_a_key_compromise_empties_the_session_table_at_once(monkeypatch):
    # The rotated keyring is the table's from the compromise on: right after
    # it, before any later presentation, no session is left, not even one of
    # a member's token under a key that survived.
    real = actors.MigrationController.on_key_compromise
    seen = []

    def compromise(controller, fault):
        w = controller.world
        survivors = [
            p.token.compact for p in w.collector.members.values()
            if p.token.header.kid != fault.target and p.token.compact in w.sessions
        ]
        real(controller, fault)
        seen.append((survivors, dict(w.sessions)))

    monkeypatch.setattr(actors.MigrationController, "on_key_compromise", compromise)
    w = build_world(load_scenario(SCENARIO_DIR / "drill-keysplit.yaml"))
    w.engine.run(451)
    ((survivors, left),) = seen
    assert survivors and left == {}
    assert w.sessions.keyring.lookup("startd-2").status is KeyStatus.REVOKED


def test_memoised_join_token_expires():
    w = idle_world(pilots={"token_lifetime": 100})
    _, token = startd_token(w)
    w.authenticate_on(CH_JOIN, token)
    w.engine.run(10 + 100 + DEFAULT_SKEW + 1)
    with pytest.raises(Expired):
        w.authenticate_on(CH_JOIN, token)
    # The session stays; the window is checked at every presentation.
    assert token.compact in w.sessions
    assert len(failures(w, CH_JOIN, "Expired")) == 1


def test_memoised_capability_token_is_refused_at_another_gateway():
    w = idle_world()
    for_a = w.issuer.fetch_capability(w.frontend.token, "ce-a")
    for_b = w.issuer.fetch_capability(w.frontend.token, "ce-b")
    assert for_a.header.kid == for_b.header.kid
    w.authenticate_on(CH_CE_SUBMIT, for_a, audience="ce-a")
    w.authenticate_on(CH_CE_SUBMIT, for_b, audience="ce-b")
    with pytest.raises(AudienceMismatch):
        w.authenticate_on(CH_CE_SUBMIT, for_a, audience="ce-b")
    assert {for_a.compact, for_b.compact} <= w.sessions.keys()
    (failed,) = failures(w, CH_CE_SUBMIT, "AudienceMismatch")
    assert failed.method == AuthMethod.SCITOKEN.value


def test_malformed_token_is_recorded_each_time_and_never_remembered():
    # An HS256 token carrying a capability's scope parses, but is not an
    # identity token: every presentation is refused and none opens a session.
    w = idle_world()
    pilot, token = startd_token(w)
    kid = token.header.kid
    claims = jose.TokenClaims(
        sub=f"startd@{pilot.id}", iss=w.POOL_ISSUER, aud="ce-a", iat=10, exp=610,
        jti="0", scope=("compute.create",),
    )
    secret = w.sessions.keyring.active_secret(kid)
    scoped = jose.encode_token(jose.TokenHeader(jose.IDTOKEN_ALG, kid), claims, secret)
    remembered = dict(w.sessions)
    for _ in range(2):
        with pytest.raises(MalformedToken):
            w.authenticate_on(CH_JOIN, scoped)
    assert w.sessions == remembered
    methods = [r.method for r in failures(w, CH_JOIN, "MalformedToken")]
    assert methods == [AuthMethod.IDTOKEN.value] * 2


# -- the session table --------------------------------------------------------


def _session_memo(monkeypatch):
    keyring = tokens.SymmetricKeyring.from_secrets({"k": b"k" * 32})
    keys = [
        tokens.mint_idtoken(keyring, "k", f"condor@{i}", (), 600, 0)
        for i in range(7)
    ]
    bad = tokens.mint_idtoken(keyring, "k", "stranger", (), 600, 0)
    sessions = policy.Sessions(policy.default_table(), keyring, tokens.TrustDirectory({}, {}))
    pol = policy.default_channels()[CH_JOIN]
    computed = []
    verify = policy.verify_idtoken
    monkeypatch.setattr(
        policy, "verify_idtoken", lambda token, *a: computed.append(token) or verify(token, *a)
    )

    def look_up(token):
        return present_on(sessions, CH_JOIN, pol, token, now=0)

    return sessions, look_up, computed, keys, bad, UnmappedIdentity


@pytest.mark.parametrize(
    "make_memo", [_session_memo], ids=["session"]
)
def test_each_memo_remembers_only_results(make_memo, monkeypatch):
    memo, look_up, computed, keys, bad, error = make_memo(monkeypatch)
    memo.clear()
    result = look_up(keys[0])
    assert look_up(keys[0]) is result
    assert computed == [keys[0]]
    for _ in range(2):
        with pytest.raises(error):
            look_up(bad)
    assert computed == [keys[0], bad, bad]
    assert memo.keys() == {keys[0].compact}
    for key in keys:
        look_up(key)
    assert memo.keys() == {key.compact for key in keys}
    assert computed == [keys[0], bad, bad, *keys[1:]]


@pytest.mark.parametrize(
    "over",
    [
        {"clients": [{"id": "cmsprod", "methods": ["IDTOKEN"], "jobs": 15, "duration": 86400}]},
        {"phase": "TOKEN_ONLY", "faults": [{"kind": "CE_TOKEN_MISCONFIG", "target": "ce-a"}]},
    ],
    ids=["gateway-full", "gateway-refuses-token"],
)
def test_pilot_token_is_minted_only_when_its_gateway_accepts_it(over, monkeypatch):
    made = returned(monkeypatch, actors.World, "new_pilot")
    identities = returned(monkeypatch, actors.World, "startd_identity")
    world = run_doc(**over)
    # A pilot its gateway accepted left REQUESTED with one SUBMITTED record.
    submitted_at = {
        parse_detail(r.detail)["pilot"]: r.t for r in pick(records(world), TRACE_PILOT, outcome="SUBMITTED")
    }
    # Every pilot here drew its key and jti before its gateway answered.
    assert len(identities) == len(made)
    refused = [(p, i) for p, i in zip(made, identities) if p.id not in submitted_at]
    accepted = [(p, i) for p, i in zip(made, identities) if p.id in submitted_at]
    assert refused
    for pilot, (_, draw) in refused:
        assert pilot.state is PilotState.FAILED
        assert pilot.token is None and draw not in world._used_jtis["pool"]
    for pilot, (kid, draw) in accepted:
        assert pilot.state is not PilotState.REQUESTED
        token = pilot.token
        assert token.header.kid == kid
        assert token.claims.jti == f"{draw:016x}"
        assert token.claims.iat == submitted_at[pilot.id]


# -- records share the values they repeat -----------------------------------


def test_tokens_with_one_kid_get_their_own_success_details():
    w = idle_world()
    a, b = (w.mint_daemon_idtoken("schedd@cmspool", ("ADVERTISE",)) for _ in range(2))
    assert a.header.kid == b.header.kid
    presented = [(a, "daemon=schedd"), (b, "daemon=schedd"), (a, "daemon=other"), (a, "daemon=schedd")]
    for token, detail in presented:
        w.authenticate_on(CH_ADVERTISE, token, detail=detail)
    held = [r.detail for r in successes(w, CH_ADVERTISE)[-len(presented):]]
    assert held == [
        f"{detail} kid=pool-daemon jti={token.claims.jti}"
        for token, detail in presented
    ]


def test_records_at_one_instant_share_one_time_object(monkeypatch):
    # Two faults start at 300 as two distinct int objects, so the second
    # ACTIVATE record shares the instant only if it is written at the
    # engine's clock rather than at its own fault's start.
    starts = [int("300"), int("300")]
    assert starts[0] is not starts[1]
    drops = [
        {"kind": "MESSAGE_DROP", "target": channel, "start": t, "rate": 0.0}
        for channel, t in zip(("SCHEDD->COLLECTOR", "STARTD->COLLECTOR"), starts)
    ]
    # The time each record is written at, as handed to the trace.
    times = []
    record = Trace.record

    def recording(trace, t, *args, **kwargs):
        times.append(t)
        record(trace, t, *args, **kwargs)

    monkeypatch.setattr(Trace, "record", recording)
    w = run_doc(faults=drops)
    assert [r.t for r in pick(records(w), "FAULT", outcome="ACTIVATE")] == starts
    assert len({id(t) for t in times}) == len(set(times))


def test_next_jti_skips_a_repeated_draw(monkeypatch):
    w = idle_world()
    draws = iter([0xABC, 0xABC, 2**64 - 1])

    class Stream:
        def getrandbits(self, k):
            assert k == 64
            return next(draws)

    monkeypatch.setattr(w.streams, "stream", lambda label: Stream())
    assert w.next_jti("test") == "0000000000000abc"
    assert w.next_jti("test") == "ffffffffffffffff"
    assert w._used_jtis["test"] == {0xABC, 2**64 - 1}


def test_a_draw_given_back_may_be_drawn_again(monkeypatch):
    w = idle_world()
    draws = iter([0xABC, 0xABC])
    stream = types.SimpleNamespace(getrandbits=lambda k: next(draws))
    monkeypatch.setattr(w.streams, "stream", lambda label: stream)
    assert w.next_draw("test") == 0xABC
    w.give_back_draw("test", 0xABC)
    assert w._used_jtis["test"] == set()
    assert w.next_draw("test") == 0xABC
    assert w._used_jtis["test"] == {0xABC}


@pytest.mark.parametrize("name", ["arc-ldap-deprecation", "split-2022", "rollout-2022-tokenonly"])
def test_jti_ledger_holds_only_the_pool_jtis_a_token_carries(name, monkeypatch, run_world):
    # Each of these refuses pilots after they drew a jti; a refused draw is
    # given back, so the ledger grows with the tokens, not the requests.
    # ``next_draw`` is the one method that draws, for pilots and daemons.
    next_draw = actors.World.next_draw
    pool_draws = []

    def drawn(world, authority):
        draw = next_draw(world, authority)
        if authority == "pool":
            pool_draws.append(draw)
        return draw

    monkeypatch.setattr(actors.World, "next_draw", drawn)
    startd_tokens = returned(monkeypatch, actors.World, "mint_startd_token")
    daemon_tokens = returned(monkeypatch, actors.World, "mint_daemon_idtoken")
    world = run_world(SCENARIO_DIR / f"{name}.yaml")
    assert startd_tokens
    minted = {int(t.claims.jti, 16) for t in startd_tokens + daemon_tokens}
    assert world._used_jtis["pool"] == minted
    assert len(pool_draws) > len(minted)


def golden_digest(path):
    (line,) = [
        line
        for line in (GOLDEN_DIR / f"{path.stem}.txt").read_text().splitlines()
        if line.startswith("digest: ")
    ]
    return line.removeprefix("digest: ")


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_policy_memo_caps_do_not_change_the_digest(path, monkeypatch, run_world):
    # The tightest cap of all: the session table stores nothing, so every
    # presentation verifies its token in full; the run must not notice.
    monkeypatch.setattr(policy.Sessions, "open", lambda sessions, token, result: result)
    world = run_world(path)
    assert world.trace.digest() == golden_digest(path)
    assert not world.sessions


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_parse_memo_and_sessions_follow_the_pool(path, monkeypatch, run_world):
    # A token whose pilot has ended, or a capability token the frontend
    # has replaced, is never presented again, so the session table drops it.
    live = live_pilots(monkeypatch)
    made = returned(monkeypatch, actors.World, "new_pilot")
    fetched = returned(monkeypatch, actors.TokenIssuer, "fetch_capability")
    world = run_world(path)
    held = set(world.frontend.scitokens.values())
    ended = {p.token for p in made if p.token is not None and p.id not in live}
    dead = ended | (set(fetched) - held)
    assert not {token.compact for token in dead} & world.sessions.keys()
    # Every member presented its token at its join, and still holds its session.
    assert {p.token.compact for p in world.collector.members.values()} <= world.sessions.keys()
    # In these two no pilot with a token ends and no capability is replaced.
    assert dead or path.stem in ("arc-ldap-deprecation", "split-2022")


#: The states of a pilot the frontend counts as supply, the oracle for the
#: ``World.supply`` the run derives from slots and members.
SUPPLY_STATES = (PilotState.REQUESTED, PilotState.SUBMITTED, PilotState.STARTED, PilotState.JOINED)


def supply_scan(live):
    return sum(1 for p in live.values() if p.state in SUPPLY_STATES)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_live_supply_count_matches_a_scan_at_every_cycle(path, monkeypatch, run_world):
    live = live_pilots(monkeypatch)
    cycle = actors.Frontend.cycle
    seen = []

    def checked_cycle(frontend):
        assert frontend.world.supply == supply_scan(live), frontend.world.engine.now
        seen.append(frontend.world.supply)
        cycle(frontend)

    monkeypatch.setattr(actors.Frontend, "cycle", checked_cycle)
    world = run_world(path)
    assert world.supply == supply_scan(live)
    assert len(seen) > 1 and live


def joined_scan(world):
    return {
        pid: p for pid, p in world.collector.members.items() if p.state is PilotState.JOINED
    }


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_joined_map_matches_a_scan_of_the_members_at_every_tick(path, monkeypatch, run_world):
    tick = actors.Collector.match_tick
    seen = []

    def checked_tick(collector):
        world = collector.world
        assert world.joined == joined_scan(world), world.engine.now
        seen.append(len(world.joined))
        tick(collector)

    monkeypatch.setattr(actors.Collector, "match_tick", checked_tick)
    world = run_world(path)
    assert world.joined == joined_scan(world)
    assert len(seen) > 1 and any(seen)


def test_evicting_a_joined_pilot_lowers_the_supply_count(monkeypatch):
    # No shipped scenario evicts a pilot that is still unmatched.
    live = live_pilots(monkeypatch)
    w = idle_world()
    before = w.supply
    pilot = joined_pilot(w)
    assert w.supply == before + 1 == supply_scan(live)
    assert w.joined == {pilot.id: pilot}
    w.collector.evict(pilot, KEY_COMPROMISE)
    assert w.supply == before == supply_scan(live)
    assert w.joined == {}


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_finished_world_is_freed_without_the_cyclic_collector(path, monkeypatch):
    # A finished run keeps only its report: reference counting alone frees
    # its World when ``run_scenario`` returns, while the result is still
    # held, so a run's peak memory never includes the run before it.
    worlds = []

    def built(*args, **kwargs):
        world = build_world(*args, **kwargs)
        worlds.append(weakref.ref(world))
        return world

    monkeypatch.setattr(migration, "build_world", built)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = run_scenario(path)
        assert len(worlds) == 1
        assert worlds[0]() is None
        assert result.digest == golden_digest(path)
    finally:
        if was_enabled:
            gc.enable()


# -- collector housekeeping -------------------------------------------------


def test_pilot_with_no_work_retires_idle():
    w = build_world(
        parse_scenario(
            doc(clients=[{"id": "cmsprod", "methods": ["IDTOKEN"], "jobs": 0, "duration": 10}])
        ),
        Trace(out=io.BytesIO()),
    )
    w.engine.run(10)  # first frontend cycle caches the gateway capability
    fac, ce = w.factories["fac-1"], w.ces["ce-a"]
    fac.submit_one(ce, fac.select_interface(ce), fac.credentials_for(ce))
    w.engine.run(700)
    retired = [
        r
        for r in pick(records(w), TRACE_PILOT, outcome="RETIRED")
        if "reason=idle" in r.detail
    ]
    assert len(retired) == 1
    assert len(w.collector.members) == 0
    assert w.ces["ce-a"].reserved == 0


def test_single_use_pilots_retire_with_their_job():
    w = run_doc(
        clients=[{"id": "cmsprod", "methods": ["IDTOKEN"], "jobs": 2, "duration": 100}]
    )
    done = pick(records(w), "JOB", outcome="DONE")
    assert len(done) == 2
    retired = pick(records(w), TRACE_PILOT, outcome="RETIRED")
    assert len(retired) == 2
    assert all("job=" in r.detail for r in retired)
    assert len(w.collector.members) == 0
    assert w.ces["ce-a"].reserved == 0


def joined_pilot(w):
    """A pilot its gateway accepted that has just joined the collector, as
    ``receive_join`` leaves it."""
    pilot, pilot.token = startd_token(w)
    ce = w.ces[pilot.ce_id]
    assert ce.receive_submission(pilot, w.frontend.capability_for(ce.id), CEInterface.NATIVE) is None
    pilot.joined_at = w.engine.now
    w.pilot_event(pilot, PilotState.JOINED)
    w.collector.members[pilot.id] = pilot
    return pilot


def matched_jobs(w):
    return [r.detail for r in pick(records(w), "JOB", outcome="MATCH")]


def requeued_world():
    """Three idle jobs; the first pilot took job 0 and was evicted, so job 0
    is idle again behind the two jobs created after it."""
    w = idle_world()
    jobs = [w.new_job(w.clients["cmsprod"].spec) for _ in range(3)]
    first = joined_pilot(w)
    w.collector.match_tick()
    assert first.job is jobs[0]
    w.collector.evict(first, KEY_COMPROMISE)
    assert first.job is None and first.state is PilotState.FAILED
    return w, jobs, first


def test_requeued_job_is_matched_before_jobs_created_after_it():
    w, jobs, first = requeued_world()
    second, third = joined_pilot(w), joined_pilot(w)
    w.collector.match_tick()
    assert (second.job, third.job) == (jobs[0], jobs[1])
    assert w.idle_jobs == [jobs[2]]
    assert matched_jobs(w) == [
        f"job={jobs[0].id} pilot={first.id}",
        f"job={jobs[0].id} pilot={second.id}",
        f"job={jobs[1].id} pilot={third.id}",
    ]


def test_match_order_follows_creation_past_pilot_99999():
    # "pilot-100000" sorts before "pilot-99999" as a string, yet the pilot
    # made first takes the one idle job.
    w = idle_world()
    w._pilot_seq = 99_999
    job = w.new_job(w.clients["cmsprod"].spec)
    first, second = joined_pilot(w), joined_pilot(w)
    assert (first.id, second.id) == ("pilot-99999", "pilot-100000")
    assert first.joined_at == second.joined_at
    w.collector.match_tick()
    assert matched_jobs(w) == [f"job={job.id} pilot=pilot-99999"]
    assert first.job is job and second.job is None


def test_completion_for_an_evicted_pilot_is_ignored():
    w, jobs, first = requeued_world()
    second = joined_pilot(w)
    w.collector.match_tick()
    assert second.job is jobs[0]
    # A completion reads the pilot's job: the evicted pilot holds none.
    w.collector.job_done(first)  # the evicted pilot's completion
    assert pick(records(w), "JOB", outcome="DONE") == []
    assert second.job is jobs[0] and second.state is PilotState.MATCHED
    assert first.job is None and first.state is PilotState.FAILED
    w.collector.job_done(second)
    (done,) = pick(records(w), "JOB", outcome="DONE")
    assert done.detail == f"job={jobs[0].id} pilot={second.id}"
    assert second.job is None and second.state is PilotState.RETIRED


#: Every state a pilot may move to from each state; RETIRED and FAILED end it.
PILOT_MOVES = {
    PilotState.REQUESTED: {PilotState.SUBMITTED, PilotState.FAILED},
    PilotState.SUBMITTED: {PilotState.STARTED},
    PilotState.STARTED: {PilotState.JOINED, PilotState.FAILED},
    PilotState.JOINED: {PilotState.MATCHED, PilotState.RETIRED, PilotState.FAILED},
    PilotState.MATCHED: {PilotState.RETIRED, PilotState.FAILED},
    PilotState.RETIRED: set(),
    PilotState.FAILED: set(),
}


def checked_pilot_moves(monkeypatch):
    """Wrap ``World.set_pilot_state`` to assert that every move is one of
    ``PILOT_MOVES``; the dict returned holds, by pilot id, the state each
    pilot was last set to."""
    set_state = actors.World.set_pilot_state
    last = {}

    def checked(world, pilot, state):
        before = last.get(pilot.id, PilotState.REQUESTED)
        where = (pilot.id, world.engine.now)
        assert pilot.state is before, where  # set nowhere but here
        assert before not in (PilotState.RETIRED, PilotState.FAILED), where
        assert state in PILOT_MOVES[before], (*where, before, state)
        last[pilot.id] = state
        set_state(world, pilot, state)

    monkeypatch.setattr(actors.World, "set_pilot_state", checked)
    return last


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_pilot_states_follow_the_life_cycle(path, monkeypatch):
    last = checked_pilot_moves(monkeypatch)
    live = live_pilots(monkeypatch)
    made = returned(monkeypatch, actors.World, "new_pilot")
    run_scenario(path)
    assert last
    for pilot in made:
        state = last.get(pilot.id, PilotState.REQUESTED)
        assert pilot.state is state, pilot.id
        ended = state in (PilotState.RETIRED, PilotState.FAILED)
        assert (pilot.id in live) is not ended, (pilot.id, state)
    assert len(made) == len({pilot.id for pilot in made})


class WeakPilot(actors.Pilot):
    """A ``Pilot`` a test can hold a weak reference to."""

    __slots__ = ("__weakref__",)


def check_live_ledger(world, live):
    """The World's counts agree with the live pilots: the collector holds
    exactly the joined and matched ones, and each gateway has reserved one
    slot, within its capacity, per live pilot it accepted: per live pilot
    that has left REQUESTED."""
    assert world.collector.members == {
        pid: p for pid, p in live.items() if p.state in (PilotState.JOINED, PilotState.MATCHED)
    }
    for ce in world.ces.values():
        held = sum(1 for p in live.values() if p.ce_id == ce.id and p.state is not PilotState.REQUESTED)
        assert ce.reserved == held <= ce.capacity, ce.id


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_world_keeps_only_live_pilots(path, monkeypatch, run_world):
    live = live_pilots(monkeypatch)  # made and not yet ended, as the wrappers saw them
    end_pilot, cycle = actors.World.end_pilot, actors.Frontend.cycle
    refused = []  # weak references to pilots refused at submission
    cycles = []

    def ended(world, pilot, *args, **kwargs):
        if pilot.state is PilotState.REQUESTED:
            refused.append(weakref.ref(pilot))
        end_pilot(world, pilot, *args, **kwargs)

    def checked_cycle(frontend):
        world = frontend.world
        assert not hasattr(world, "pilots")  # the World keeps no registry of them
        check_live_ledger(world, live)
        cycles.append(len(live))
        cycle(frontend)

    monkeypatch.setattr(actors.World, "end_pilot", ended)
    monkeypatch.setattr(actors.Frontend, "cycle", checked_cycle)
    monkeypatch.setattr(actors, "Pilot", WeakPilot)
    # Reference counting alone must free a refused pilot, as it frees a World.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        world = run_world(path)
        check_live_ledger(world, live)
        assert [r for r in refused if r() is not None] == []
    finally:
        if was_enabled:
            gc.enable()
    assert len(cycles) > 1 and any(cycles)


@settings(max_examples=200)
@given(MUTATIONS)
def test_ledger_and_supply_follow_the_live_pilots_of_a_mutated_scenario(mutation):
    """A mutated shipped scenario that parses, run to t=1200, keeps its
    members and slots, and the supply it derives from them, in step with
    its live pilots at every frontend cycle."""
    sc = mutated_scenario(mutation)
    if sc is None:
        return
    cycle = actors.Frontend.cycle

    def checked_cycle(frontend):
        world = frontend.world
        check_live_ledger(world, live)
        assert world.supply == supply_scan(live), world.engine.now
        cycle(frontend)

    # Hypothesis runs many examples per test, so no function-scoped fixture.
    with pytest.MonkeyPatch.context() as mp:
        live = live_pilots(mp)
        mp.setattr(actors.Frontend, "cycle", checked_cycle)
        run_scenario(sc)


@settings(max_examples=100)
@given(MUTATIONS)
def test_pilots_of_a_mutated_scenario_follow_the_life_cycle(mutation):
    """A mutated shipped scenario that parses moves every pilot only along
    ``PILOT_MOVES``."""
    sc = mutated_scenario(mutation)
    if sc is None:
        return
    with pytest.MonkeyPatch.context() as mp:
        checked_pilot_moves(mp)
        run_scenario(sc)


@settings(max_examples=100)
@given(MUTATIONS)
def test_pool_size_of_a_mutated_scenario_is_joins_less_leaves(mutation):
    """In the trace of a mutated shipped scenario that parses, each SAMPLE's
    size is the pilots JOINED before it less those of them that ended."""
    sc = mutated_scenario(mutation)
    if sc is None:
        return
    out = io.BytesIO()
    run_scenario(sc, trace_out=out)
    members = set()
    for rec in written(out.getvalue()):
        if rec.channel == TRACE_PILOT and rec.outcome == "JOINED":
            members.add(parse_detail(rec.detail)["pilot"])
        elif rec.channel == TRACE_PILOT and rec.outcome in ("RETIRED", "FAILED", "EVICT"):
            members.discard(parse_detail(rec.detail)["pilot"])
        elif rec.channel == TRACE_POOL and rec.outcome == "SAMPLE":
            assert int(parse_detail(rec.detail)["size"]) == len(members), rec


#: The tracemalloc peak of a ``rollout-2022`` run, in bytes: 1.10 times the
#: largest of its readings, 2,522,532 B under pytest and 2,531,138 B (2.41
#: MiB) in each of five fresh processes, once a pending event is a function
#: and its argument and sessions share their equal verdicts.  A calendar
#: holding bound methods reads 2,881,202 B and fails it; sessions each
#: holding their own verdict read 2,673,498 B, inside the 1.10 margin, so
#: ``test_sessions_at_the_peak_hold_each_distinct_verdict_once`` pins that.
ROLLOUT_PEAK_BOUND = int(1.10 * 2_531_138)


def test_live_pool_fits_its_memory_bound():
    # About 2,000 live pilots, each with a parsed token and a few pending
    # events.  A closure per pending event, a heap entry per event, or
    # tokens keeping a copy of their signed bytes in a dict each take the
    # peak past the bound.
    scenario = load_scenario(SCENARIO_DIR / "rollout-2022.yaml")
    gc.collect()
    tracemalloc.start()
    try:
        run_scenario(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ROLLOUT_PEAK_BOUND, f"peak {peak / 2**20:.3f} MiB"


#: The instant of ``rollout-2022``'s live-pool peak: 1,980 live pilots, all
#: matched, each with a pending keepalive, idle check and job completion.
ROLLOUT_PEAK_T = 530

#: Bytes held per live pilot at that instant, tracemalloc's current count
#: over the run so far after a full collection, with one World built
#: untraced before it: 1,123.6 in five fresh processes (1,120.5 under
#: pytest), once tokens of one key share their parsed header and limit
#: tuple, a pending event is two calendar slots, the pilot's step function
#: and the pilot, and the sessions of equal verdicts share one peer;
#: besides, the token's signature is read off the wire, a job keeps no
#: name, the World keeps no registry of its pilots nor a pilot a copy of
#: its slot or submission time, and a pilot keeps the token it was minted,
#: parsed, with no parse memo beside it and no copy of the key and jti that
#: token carries.  The collection empties the free lists, so a transient (a
#: tick's sort key) does not count.  The bound is 1.10 times the largest
#: reading.  Pending bound methods fail it.  A header or a limit tuple per
#: token, or a peer per session, each stays inside the margin, and is
#: pinned by the shape it leaves:
#: ``test_member_tokens_at_the_peak_hold_each_distinct_header_and_limits_once``
#: and ``test_sessions_at_the_peak_hold_each_distinct_verdict_once``.
BYTES_PER_LIVE_PILOT = int(1.10 * 1123.6)


def rollout_at_peak(scenario):
    world = build_world(scenario)
    world.engine.run(ROLLOUT_PEAK_T)
    return world


def test_pending_pilot_events_are_a_step_function_and_its_pilot(monkeypatch):
    # Two calendar slots per pending event, a function and its argument: a
    # pilot's step is held as the Pilot function and the pilot, never as a
    # method object, and no other pending action's closure holds a pilot.
    live = live_pilots(monkeypatch)
    world = rollout_at_peak(load_scenario(SCENARIO_DIR / "rollout-2022.yaml"))
    steps = {f for f in vars(actors.Pilot).values() if isinstance(f, types.FunctionType)}
    served = []
    for pending in world.engine._calendar.values():
        assert len(pending) % 2 == 0
        assert not any(isinstance(entry, types.MethodType) for entry in pending)
        for fn, arg in zip(pending[::2], pending[1::2]):
            assert isinstance(fn, types.FunctionType), fn
            assert (fn in steps) == isinstance(arg, actors.Pilot), (fn, arg)
            if fn in steps:
                served.append((fn, arg))
            elif isinstance(arg, types.FunctionType):
                held = [c.cell_contents for c in arg.__closure__ or ()]
                held += arg.__defaults__ or ()
                assert not any(isinstance(v, actors.Pilot) for v in held), arg
    keepalives = {id(pilot) for fn, pilot in served if fn is actors.Pilot.keepalive}
    assert len(live) > 1900
    # At the peak every live pilot is a member, as the byte budget assumes.
    assert world.collector.members == live
    assert keepalives == {id(p) for p in world.collector.members.values()}
    assert len(served) >= 3 * len(world.collector.members)


def test_sessions_at_the_peak_hold_each_distinct_verdict_once():
    # About 2,000 members' identity tokens have a session each, and only a
    # handful of verdicts differ: equal ones are one object.
    world = rollout_at_peak(load_scenario(SCENARIO_DIR / "rollout-2022.yaml"))
    peers = list(world.sessions.values())
    assert len(peers) > 1900
    assert len({id(peer) for peer in peers}) == len(set(peers)) < 10


def test_sessions_at_the_peak_are_keyed_by_the_wire_form_of_a_held_token():
    # Each session's key is a str, the compact form of a token some live
    # holder still presents; a pilot's end takes its key out.
    world = rollout_at_peak(load_scenario(SCENARIO_DIR / "rollout-2022.yaml"))
    sessions = world.sessions
    members = list(world.collector.members.values())
    held = {p.token.compact for p in members}
    held |= {token.compact for token in world.frontend.scitokens.values()}
    held |= {world.schedd.token.compact, world.frontend.token.compact}
    held |= {c.token.compact for c in world.clients.values() if c.token is not None}
    assert len(sessions) > 1900
    assert all(type(key) is str for key in sessions)
    assert sessions.keys() <= held
    pilot = members[0]
    assert pilot.token.compact in sessions
    before = len(sessions)
    world.end_pilot(pilot, PilotState.RETIRED)
    assert pilot.token.compact not in sessions
    assert len(sessions) == before - 1


def test_member_tokens_at_the_peak_hold_each_distinct_header_and_limits_once():
    # About 2,000 members' tokens differ only in sub, jti, iat and exp: the
    # parsed header is one object per distinct header segment, and their
    # one limit set is one tuple.
    world = rollout_at_peak(load_scenario(SCENARIO_DIR / "rollout-2022.yaml"))
    tokens = [pilot.token for pilot in world.collector.members.values()]
    assert len(tokens) > 1900
    segments = {token.compact.partition(".")[0] for token in tokens}
    assert len({id(token.header) for token in tokens}) == len(segments) < 10
    assert len({id(token.claims.authz_limits) for token in tokens}) == 1


def test_live_pilot_fits_its_byte_budget():
    # What any first World allocates once per process (interned names,
    # compiled patterns, class caches) falls outside the traced window.
    scenario = load_scenario(SCENARIO_DIR / "rollout-2022.yaml")
    build_world(scenario)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        world = rollout_at_peak(scenario)
        # A full collection empties CPython's free lists, whose parked
        # tuples (a tick's sort keys, say) no live object holds.
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        # Pilots and their pending events reach the World only weakly, so
        # reference counting alone frees it.  Every live pilot is a member.
        live, freed = len(world.collector.members), weakref.ref(world)
        del world
        assert freed() is None
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    assert live == 1980
    assert held <= BYTES_PER_LIVE_PILOT * live, f"{held / live:.0f} B per live pilot"


#: Members of tokenpool's enums read through their class in one shipped
#: rollout-2022 run, parse and report included; the per-pilot and
#: per-message paths read names bound once instead.  Reading them through
#: the class made 88,121 such reads.
ENUM_MEMBER_READS = 1379


def test_hot_paths_read_no_enum_member_through_its_class(monkeypatch):
    # On Python 3.10 and 3.11 ``EnumMeta`` defines ``__getattr__``, so each
    # ``PilotState.JOINED`` costs the slow lookup hook.  A ``__getattribute__``
    # on the metaclass sees every such read, whether or not the member sits
    # in the class's own dict.
    get = type.__getattribute__
    reads = []

    def counting(cls, name):
        if name in get(cls, "_member_map_") and get(cls, "__module__").startswith("tokenpool."):
            reads.append(name)
        return get(cls, name)

    monkeypatch.setattr(type(AuthMethod), "__getattribute__", counting)
    run_scenario(SCENARIO_DIR / "rollout-2022.yaml")
    monkeypatch.undo()
    assert reads and len(reads) <= ENUM_MEMBER_READS


# -- issuer authorization ---------------------------------------------------


def test_issuer_serves_only_the_frontend_identity():
    w = build_world(parse_scenario(doc()), Trace(out=io.BytesIO()))
    imposter = w.mint_daemon_idtoken("condor@imposter", ("READ",))
    with pytest.raises(UnauthorizedRequestor):
        w.issuer.fetch_capability(imposter, "ce-a")
    assert len(failures(w, CH_TOKEN_FETCH, "UnauthorizedRequestor")) == 1


def test_issuer_requires_read_level():
    w = build_world(parse_scenario(doc()), Trace(out=io.BytesIO()))
    with pytest.raises(AuthorizationDenied):
        w.issuer.fetch_capability(w.schedd.token, "ce-a")  # ADVERTISE-limited
    denied = pick(records(w), CH_TOKEN_FETCH, outcome="DENIED")
    assert len(denied) == 1
    assert "missing=READ" in denied[0].detail
    # The caller's detail comes first; with none, the missing rights stand
    # alone, with no space before them.
    with pytest.raises(AuthorizationDenied):
        w.authenticate_on(CH_TOKEN_FETCH, w.schedd.token)
    denied = pick(records(w), CH_TOKEN_FETCH, outcome="DENIED")
    assert [r.detail for r in denied] == ["aud=ce-a missing=READ", "missing=READ"]


def test_pilot_records_join_their_extra_only_when_there_is_one():
    w = run_doc()
    submits, starts = (
        [r.detail for r in pick(records(w), TRACE_PILOT, outcome=outcome)]
        for outcome in ("SUBMITTED", "STARTED")
    )
    assert len(submits) == len(starts) == 5
    for submitted, started in zip(submits, starts):
        # No extra: the pilot and its gateway, with no trailing space.
        assert re.fullmatch(r"pilot=pilot-\d{5} ce=ce-a", started)
        # An extra whose own second part is empty (not stuck).
        assert submitted == f"{started} method=SCITOKEN"


def test_capability_tokens_are_refreshed_before_expiry():
    w = run_doc(
        issuer={"url": ISSUER, "kid": "op-1", "scitoken_lifetime": 100},
        clients=[{"id": "cmsprod", "methods": ["IDTOKEN"], "jobs": 0, "duration": 10}],
    )
    fetches = successes(w, CH_TOKEN_FETCH, AuthMethod.IDTOKEN)
    # Refresh at 80% of a 100 s lifetime with a 60 s cycle: t=0, 120, 240, ...
    assert [r.t for r in fetches] == [0, 120, 240, 360, 480, 600]


def test_capability_fetches_wait_for_a_phase_whose_gateways_take_tokens():
    # Under GSI_ONLY no gateway takes a capability token, so the frontend
    # fetches none while it still provisions over its proxy; the first cycle
    # after a step to the fallback phase fetches one.
    gsi_only = run_doc(phase="GSI_ONLY")
    assert successes(gsi_only, CH_PROVISION, AuthMethod.GSI_PROXY)
    assert pick(records(gsi_only), CH_TOKEN_FETCH) == []
    w = run_doc(
        phase="GSI_ONLY",
        plan=[{"at": 90, "action": "set_phase", "phase": "TOKEN_WITH_GSI_FALLBACK"}],
    )
    fetches = pick(records(w), CH_TOKEN_FETCH)
    assert [(r.t, r.outcome) for r in fetches] == [(120, OUTCOME_SUCCESS)]


def test_pilots_join_with_the_pilot_proxy_while_the_collector_takes_no_token():
    # Under GSI_ONLY the collector takes only a proxy from a pilot, so every
    # join and keepalive presents the factories' one pilot proxy; after a
    # step to the fallback phase the next join and keepalive present the
    # pilot's token.
    clients = doc()["clients"]
    clients = clients + [{**clients[0], "id": "cmsprod-late", "jobs": 2, "submit_at": 200}]
    times = [30] * 5 + [270] * 2 + [330] * 5 + [570] * 2  # joins, then keepalives 300 s on
    gsi_only = run_doc(phase="GSI_ONLY", clients=clients)
    joins = pick(records(gsi_only), CH_JOIN)
    assert [r.t for r in joins] == times
    assert [r.detail.split()[1] for r in joins] == ["join=1"] * 7 + ["keepalive=1"] * 7
    assert {(r.method, r.identity, r.outcome) for r in joins} == {("GSI_PROXY", "cms-pilot", OUTCOME_SUCCESS)}
    assert len(gsi_only.collector.members) == 7
    w = run_doc(
        phase="GSI_ONLY",
        clients=clients,
        plan=[{"at": 100, "action": "set_phase", "phase": "TOKEN_WITH_GSI_FALLBACK"}],
    )
    joins = pick(records(w), CH_JOIN)
    assert [(r.t, r.method) for r in joins] == list(zip(times, ["GSI_PROXY"] * 5 + ["IDTOKEN"] * 9))
    assert {r.outcome for r in joins} == {OUTCOME_SUCCESS}


def test_a_pool_that_starts_in_gsi_only_fills():
    # rollout-2022 with no token phase at all: its pilots hold an identity
    # token the collector does not take, and join with the pilot proxy.
    shipped = load_scenario(SCENARIO_DIR / "rollout-2022.yaml")
    plan = tuple(step for step in shipped.plan if step.action != "set_phase")
    report = run_scenario(dataclasses.replace(shipped, phase=MigrationPhase.GSI_ONLY, plan=plan)).report
    assert (report["pool"]["peak"], report["pool"]["tail_fraction"]) == (1980, 1.0)
    assert report["auth"]["failures_by_reason"] == {}
    assert set(report["auth"]["success_by_method"]) == {"GSI_PROXY", "LOCAL_FS"}


# -- factory gates ----------------------------------------------------------


def arc_fleet_doc():
    over = doc(
        sites=[
            {
                "name": "site-a",
                "ces": [
                    {"id": "ce-rest", "flavor": "ARC_CE", "interface": "REST", "capacity": 5},
                    {"id": "ce-ldap", "flavor": "ARC_CE", "interface": "LDAP", "capacity": 5},
                    {"id": "ce-htc", "flavor": "HTCONDOR_CE", "capacity": 5},
                ],
            }
        ],
        factories=[{"id": "fac-1", "condor_major": 9, "rest_adopted": False}],
    )
    return over


def test_factory_interface_gate():
    w = build_world(parse_scenario(arc_fleet_doc()), Trace(out=io.BytesIO()))
    fac = w.factories["fac-1"]
    assert fac.select_interface(w.ces["ce-htc"]) is CEInterface.NATIVE
    assert fac.select_interface(w.ces["ce-ldap"]) is CEInterface.LDAP  # still alive on 9
    assert fac.select_interface(w.ces["ce-rest"]) is CEInterface.LDAP
    fac.rest_adopted = True
    assert fac.select_interface(w.ces["ce-rest"]) is CEInterface.REST
    fac.condor_major = 10
    assert fac.select_interface(w.ces["ce-ldap"]) is None  # LDAP retired on 10
    assert fac.select_interface(w.ces["ce-rest"]) is CEInterface.REST


def test_world_negotiates_the_token_first_under_a_legacy_first_table():
    # The World compiles its table's method order as given; negotiation
    # ranks a token method first all the same.
    w = idle_world()
    w.base_table = policy.PolicyTable(
        {
            channel: dataclasses.replace(pol, methods=pol.methods[::-1])
            for channel, pol in policy.default_table().channels.items()
        },
        policy.default_identity_map(),
    )
    w.set_phase(MigrationPhase.TOKEN_WITH_GSI_FALLBACK)
    both = (AuthMethod.GSI_PROXY, AuthMethod.IDTOKEN)
    assert w.channels[CH_ADVERTISE].methods == both
    offered = (w.schedd.proxy, w.schedd.token)
    assert w.negotiate(CH_ADVERTISE, offered) is w.schedd.token
    assert w.negotiate(CH_ADVERTISE, offered[:1]) is w.schedd.proxy


def test_factory_credential_gate():
    w = build_world(parse_scenario(doc()), Trace(out=io.BytesIO()))
    w.engine.run(10)  # let the frontend cache a capability for ce-a
    fac = w.factories["fac-1"]
    ce = w.ces["ce-a"]
    token = w.frontend.capability_for(ce.id)
    assert token is not None
    assert fac.credentials_for(ce) == [token, w.pilot_proxy]

    fac.token_capable = False
    assert fac.credentials_for(ce) == [w.pilot_proxy]
    fac.token_capable = True

    w.frontend.scitokens.clear()
    assert fac.credentials_for(ce) == [w.pilot_proxy]  # no cached token yet

    w.set_phase(MigrationPhase.TOKEN_ONLY)
    w.frontend.refresh_capabilities()
    token = w.frontend.capability_for(ce.id)
    assert fac.credentials_for(ce) == [token]  # no proxy fallback
    ce.accepts_tokens = False
    assert fac.credentials_for(ce) == []
    # Nothing to present: the pilot is refused before it draws a jti.
    draws = set(w._used_jtis["pool"])
    pilot = fac.submit_one(ce, fac.select_interface(ce), fac.credentials_for(ce))
    assert pilot.state is PilotState.FAILED
    assert w._used_jtis["pool"] == draws
    (refused,) = failures(w, CH_CE_SUBMIT, MISMATCHED_CREDENTIAL)
    assert refused.detail == f"factory=fac-1 ce=ce-a pilot={pilot.id}"


def test_a_factory_resolves_each_request_once(monkeypatch, run_world):
    # Every pilot of one request gets the same interface and credentials,
    # so the factory works them out once per request that passed
    # FRONTEND->FACTORY, not once per pilot.
    passed = []
    authenticate_on = actors.World.authenticate_on

    def counted(world, channel, *args, **kwargs):
        peer = authenticate_on(world, channel, *args, **kwargs)
        if channel == CH_PROVISION:
            passed.append(peer)
        return peer

    monkeypatch.setattr(actors.World, "authenticate_on", counted)
    interfaces = returned(monkeypatch, actors.Factory, "select_interface")
    credentials = returned(monkeypatch, actors.Factory, "credentials_for")
    pilots = returned(monkeypatch, actors.Factory, "submit_one")
    run_world(SCENARIO_DIR / "rollout-2022-tokenonly.yaml")
    assert len(interfaces) == len(credentials) == len(passed) == 1170
    assert len(pilots) == 11700


@pytest.mark.parametrize(
    "ce, step, before, after",
    [
        (
            {"id": "ce-x", "flavor": "HTCONDOR_CE", "capacity": 10},
            {"action": "enable_scitoken", "ce": "ce-x"},
            "method=GSI_PROXY",
            "method=SCITOKEN",
        ),
        (
            {"id": "ce-x", "flavor": "ARC_CE", "interface": "LDAP", "capacity": 10},
            {"action": "upgrade_factory", "factory": "fac-1", "major": 10},
            "method=GSI_PROXY",
            "reason=DeprecatedInterface",
        ),
    ],
)
def test_a_plan_step_between_two_requests_changes_the_next_ones_resolution(
    ce, step, before, after
):
    # Nothing is cached across requests: the step at t=50 and the frontend
    # cycle at t=60 that follows it decide how the second request submits.
    jobless = [{"id": "cmsprod", "methods": ["IDTOKEN"], "jobs": 0, "duration": 10}]
    scenario = parse_scenario(
        doc(
            sites=[{"name": "site-x", "ces": [ce]}],
            factories=[{"id": "fac-1", "condor_major": 9, "rest_adopted": False}],
            clients=jobless,
            plan=[{"at": 50, **step}],
        )
    )
    w = build_world(scenario, Trace(out=io.BytesIO()))
    fac, gateway = w.factories["fac-1"], w.ces["ce-x"]

    def outcomes():
        """How each pilot of one two-pilot request left ``REQUESTED``."""
        seen = len(records(w))
        fac.handle_request(w.frontend.token, gateway, 2)
        return [
            r.detail.split()[-1]
            for r in pick(records(w)[seen:], TRACE_PILOT)
            if r.outcome != PilotState.REQUESTED.value
        ]

    w.engine.run(10)
    assert outcomes() == [before, before]
    w.engine.run(60)
    assert outcomes() == [after, after]


def test_capacity_refusal_is_not_retried_with_the_proxy():
    # Only an authentication failure sends the factory on to its next
    # credential: a capability token refused for capacity stays refused.
    w = idle_world()
    ce = w.ces["ce-a"]
    ce.reserved = ce.capacity
    fac = w.factories["fac-1"]
    pilot = fac.submit_one(ce, fac.select_interface(ce), fac.credentials_for(ce))
    attempts = [
        (r.outcome, r.method) for r in pick(records(w), CH_CE_SUBMIT) if f"pilot={pilot.id}" in r.detail
    ]
    assert attempts == [(OUTCOME_SUCCESS, "SCITOKEN"), ("FAIL:CapacityExceeded", "SCITOKEN")]
    assert pilot.state is PilotState.FAILED


def test_plan_steps_rewire_gateways_and_factories():
    over = doc(
        sites=[
            {
                "name": "site-a",
                "ces": [
                    {"id": "ce-x", "flavor": "ARC_CE", "interface": "LDAP", "capacity": 5}
                ],
            }
        ],
        factories=[{"id": "fac-1", "condor_major": 9, "rest_adopted": True}],
        clients=[{"id": "cmsprod", "methods": ["IDTOKEN"], "jobs": 0, "duration": 10}],
        plan=[
            {"at": 100, "action": "adopt_rest", "ce": "ce-x"},
            {"at": 100, "action": "upgrade_factory", "factory": "fac-1", "major": 10},
            {"at": 150, "action": "enable_scitoken", "ce": "ce-x"},
        ],
    )
    scenario = parse_scenario(over)
    w = build_world(scenario, Trace(out=io.BytesIO()))
    w.engine.run(200)
    assert w.ces["ce-x"].interface is CEInterface.REST
    assert w.ces["ce-x"].accepts_tokens is True
    assert w.factories["fac-1"].condor_major == 10
    plan_records = [r for r in records(w) if r.channel == "PLAN"]
    outcomes = [r.outcome for r in plan_records]
    assert "ADOPT_REST" in outcomes
    assert "UPGRADE_FACTORY" in outcomes
    assert "ENABLE_SCITOKEN" in outcomes


def _allocate_one_at_a_time(deficit, n_pairs, cap):
    """The round-robin loop ``_allocate`` replaced: one pilot per pair in
    turn, skipping full pairs, until the demand is met or every pair is full."""
    counts = [0] * n_pairs
    idx = misses = 0
    while deficit > 0 and misses < n_pairs:
        slot = idx % n_pairs
        if counts[slot] < cap:
            counts[slot] += 1
            deficit -= 1
            misses = 0
        else:
            misses += 1
        idx += 1
    return [(i, counts[i]) for i in range(n_pairs) if counts[i]]


@given(
    n_pairs=st.integers(min_value=0, max_value=30),
    cap=st.integers(min_value=1, max_value=15),
    deficit=st.integers(min_value=0, max_value=500),
)
def test_allocate_matches_one_at_a_time_loop(n_pairs, cap, deficit):
    pairs = list(range(n_pairs))
    assert actors._allocate(deficit, pairs, cap) == _allocate_one_at_a_time(deficit, n_pairs, cap)



# -- refusal records --------------------------------------------------------


def _accepting_only_local_fs(channel):
    """A world at t=0 whose ``channel`` accepts only LOCAL_FS, which no
    daemon offers there, so negotiation on it fails."""
    w = build_world(parse_scenario(doc()), Trace(out=io.BytesIO()))
    channels = dict(w.channels)
    channels[channel] = dataclasses.replace(channels[channel], methods=(AuthMethod.LOCAL_FS,))
    w.channels = channels
    w.engine.run(0)
    return w


def _revoked_join():
    w = idle_world()
    pilot, pilot.token = startd_token(w)
    pilot.state = PilotState.STARTED
    w.sessions.rekey(revoke_key(w.sessions.keyring, pilot.token.header.kid))
    w.collector.receive_join(pilot)
    return w


def _unauthorized_fetch():
    w = build_world(parse_scenario(doc()), Trace(out=io.BytesIO()))
    imposter = w.mint_daemon_idtoken("condor@imposter", ("READ",))
    with pytest.raises(UnauthorizedRequestor):
        w.issuer.fetch_capability(imposter, "ce-a")
    return w


def _locked_out_client():
    client = {"id": "cmsprod", "methods": ["LOCAL_FS"], "jobs": 5, "duration": 86400}
    return run_doc(phase="TOKEN_ONLY", clients=[client])


def _ldap_only_gateway():
    ce = {"id": "ce-x", "flavor": "ARC_CE", "interface": "LDAP", "capacity": 5}
    return run_doc(sites=[{"name": "site-a", "ces": [ce]}])


def _tokenless_gateway_under_token_only():
    over = doc(phase="TOKEN_ONLY")
    over["sites"][0]["ces"][0]["accepts_tokens"] = False
    return run_doc(**over)


def _misconfigured_gateway():
    return run_doc(faults=[{"kind": "CE_TOKEN_MISCONFIG", "target": "ce-a"}])


def _full_gateway():
    return run_doc(clients=[{"id": "cmsprod", "methods": ["IDTOKEN"], "jobs": 15, "duration": 86400}])


#: Each place that refuses a request, and the first refusal record of a run
#: that reaches it: (channel, method, identity, outcome, detail, t).
REFUSALS = [
    pytest.param(
        _revoked_join,
        ("STARTD->COLLECTOR", "IDTOKEN", "-", "FAIL:KeyRevoked", "pilot=pilot-00000 join=1", 10),
        id="join-KeyRevoked",
    ),
    pytest.param(
        _unauthorized_fetch,
        ("FRONTEND->ISSUER", "IDTOKEN", "pool-daemon", "FAIL:UnauthorizedRequestor", "aud=ce-a", 0),
        id="fetch-UnauthorizedRequestor",
    ),
    pytest.param(
        _locked_out_client,
        ("WMCLIENT->SCHEDD", "-", "cmsprod", "FAIL:NoCommonMethod", "client=cmsprod jobs=5", 0),
        id="submit-NoCommonMethod",
    ),
    pytest.param(
        lambda: _accepting_only_local_fs(CH_ADVERTISE),
        ("SCHEDD->COLLECTOR", "-", "-", "FAIL:NoCommonMethod", "daemon=schedd", 0),
        id="advertise-NoCommonMethod",
    ),
    pytest.param(
        lambda: _accepting_only_local_fs(CH_PROVISION),
        ("FRONTEND->FACTORY", "-", "frontend@cmspool", "FAIL:NoCommonMethod", "deficit=5", 0),
        id="provision-NoCommonMethod",
    ),
    pytest.param(
        _ldap_only_gateway,
        ("FACTORY->CE", "-", "-", "FAIL:DeprecatedInterface", "factory=fac-1 ce=ce-x pilot=pilot-00000", 0),
        id="ce-DeprecatedInterface",
    ),
    pytest.param(
        _tokenless_gateway_under_token_only,
        ("FACTORY->CE", "-", "-", "FAIL:MismatchedCredential", "factory=fac-1 ce=ce-a pilot=pilot-00000", 0),
        id="ce-MismatchedCredential",
    ),
    pytest.param(
        _misconfigured_gateway,
        ("FACTORY->CE", "SCITOKEN", "-", "FAIL:UntrustedIssuer", "ce=ce-a pilot=pilot-00000 fault=CE_TOKEN_MISCONFIG", 0),
        id="ce-UntrustedIssuer-fault",
    ),
    pytest.param(
        _full_gateway,
        ("FACTORY->CE", "SCITOKEN", "cms-pilot", "FAIL:CapacityExceeded", "ce=ce-a pilot=pilot-00010", 60),
        id="ce-CapacityExceeded",
    ),
]


@pytest.mark.parametrize("make_world, expected", REFUSALS)
def test_first_refusal_of_each_kind_field_by_field(make_world, expected):
    w = make_world()
    first = next(r for r in records(w) if r.outcome.startswith("FAIL:"))
    assert (first.channel, first.method, first.identity, first.outcome, first.detail, first.t) == expected


def _calls_in(tree, matches):
    """Qualified names of the functions in ``tree`` that make a call for
    which ``matches`` holds."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                inner = scope + (getattr(child, "name", "<lambda>"),)
            elif isinstance(child, ast.Call) and matches(child):
                found.add(".".join(scope) or "<module>")
            visit(child, inner)

    visit(tree, ())
    return found


def _callers(tree, callee):
    """Qualified names of the functions in ``tree`` that call ``callee`` by
    its bare or its dotted name."""
    return _calls_in(
        tree, lambda call: callee in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
    )


def _kind_tests(tree):
    """Qualified names of the functions in ``tree`` that test a value with
    ``isinstance`` against a legacy credential type."""

    def tests_kind(call):
        if getattr(call.func, "id", None) != "isinstance":
            return False
        names = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(call.args[1])}
        return not names.isdisjoint({"ProxyCredential", "LocalFsCredential"})

    return _calls_in(tree, tests_kind)


def test_refusals_are_written_and_methods_negotiated_in_one_place():
    tree = ast.parse(Path(actors.__file__).read_text())
    assert _callers(tree, "fail_outcome") == {"World.refuse"}
    assert _callers(tree, "negotiate_method") == {"World.negotiate"}
    # A credential's method has one rule, ``policy.credential_method``; only
    # ``authenticate`` repeats its type tests, on the path every legacy
    # presentation takes.  No other module tells the credential kinds apart.
    kind_tests = set()
    for path in sorted(Path(policy.__file__).parent.glob("*.py")):
        kind_tests |= {f"{path.stem}.{f}" for f in _kind_tests(ast.parse(path.read_text()))}
    assert kind_tests == {"policy.credential_method", "policy.authenticate"}


def test_pilot_and_job_records_are_written_in_one_place():
    # Each record of a pilot has one writer, which sets no state, and each
    # JOB record naming a job and its pilot has one; only the schedd's
    # QUEUED record, which names a client, is written elsewhere.
    tree = ast.parse(Path(actors.__file__).read_text())

    def writers(head):
        return _calls_in(
            tree,
            lambda call: getattr(call.func, "attr", None) == "record"
            and any(getattr(arg, "id", None) == head for arg in call.args),
        )

    assert writers("TRACE_PILOT") == {"World.pilot_record"}
    assert writers("TRACE_JOB") == {"World.job_record", "Schedd.accept_jobs"}
    assert _callers(tree, "set_pilot_state") == {"World.pilot_event", "Collector.match_tick"}


def test_only_the_cli_parses_tokens():
    # A mint returns the token it signed, already parsed, and each holder
    # keeps it, so the session table is the one cache between a credential
    # and its verdict; only the CLI parses, the tokens it is handed as text.
    parsers = set()
    for path in sorted(Path(tokens.__file__).parent.glob("*.py")):
        parsers |= {f"{path.stem}.{c}" for c in _callers(ast.parse(path.read_text()), "decode_token")}
    assert parsers == {"cli.cmd_token_inspect", "cli.cmd_token_verify"}

    def classes(module):
        tree = ast.parse(Path(module.__file__).read_text())
        return {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}

    assert "Memo" not in classes(tokens) | classes(policy)
    assert "Sessions" in classes(policy)


def test_every_action_is_scheduled_by_schedule_at():
    # ``Engine.schedule_at`` is the one way an action enters the calendar,
    # so a delay is written ``schedule_at(engine.now + delay, ...)`` and a
    # wrapper installed on it (perfbench's dispatch span) sees every event.
    assert not hasattr(Engine, "schedule")
    for path in sorted(Path(actors.__file__).parent.glob("*.py")):
        assert _callers(ast.parse(path.read_text()), "schedule") == set(), path.stem
    assert "Collector.keepalive" in _callers(ast.parse(Path(actors.__file__).read_text()), "schedule_at")


def test_only_policy_constructs_a_channel():
    # A channel is its ``SRC->DST`` name.  The six names have one home,
    # policy's ``CH_*`` constants, which ``default_channels`` is keyed by;
    # every other module imports them.
    written = []
    for path in sorted(Path(policy.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            value = getattr(node, "value", None)
            if isinstance(value, str) and re.fullmatch(r"[A-Z_]+->[A-Z_]+", value):
                written.append(f"{path.stem}.{value}")
    assert sorted(written) == sorted(f"policy.{name}" for name in policy.default_channels())


#: The trace heads that are not an authenticated channel.
NON_AUTH_HEADS = {TRACE_FAULT, TRACE_JOB, TRACE_PILOT, TRACE_PLAN, TRACE_POOL}


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_every_traced_auth_channel_is_a_default_channel(path):
    channels = set(policy.default_channels())
    traced = {channel for channel, *_ in run_scenario(path).trace.head_counts()}
    assert traced - NON_AUTH_HEADS <= channels
    assert traced & channels


def test_no_memo_has_a_size_cap_and_only_the_fold_clears():
    # A session lives as long as its token's holder (``World.forget_token``);
    # no module names a size for a cache, and nothing clears one when it fills.
    sized, clearers = set(), set()
    for path in sorted(Path(tokens.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or ""
            if name.endswith("_SIZE"):
                sized.add(f"{path.stem}.{name}")
        clearers |= {f"{path.stem}.{caller}" for caller in _callers(tree, "clear")}
    assert sized == set()
    # The trace fold's per-instant buffers, and a session table when it is
    # given a new keyring, are the only things cleared.
    assert clearers == {"migration._Pass.close_instant", "policy.Sessions.rekey"}


def _unused(sources):
    """``module.name`` of each module-level function, class and assignment,
    and each method, in ``sources`` (syntax trees by module name) whose name
    no node of any of them uses: a name read, an attribute read or an import.
    Dunder names, which Python calls, are left out."""
    defined, used = {}, set()
    for stem, tree in sources.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[f"{stem}.{node.name}"] = node.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update({f"{stem}.{t.id}": t.id for t in targets if isinstance(t, ast.Name)})
            if isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
                defined.update({f"{stem}.{node.name}.{m.name}": m.name for m in methods})
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return {
        qualified
        for qualified, name in defined.items()
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    }


def test_every_symbol_in_src_is_used():
    # A symbol nothing calls is deleted; the package's exports and what the
    # benchmark's tracer wraps by name are used from outside ``src/``.
    helper = "def used(): pass\ndef unused(): used()\nclass C:\n    def m(self): pass\n"
    assert _unused({"m": ast.parse(helper)}) == {"m.unused", "m.C", "m.C.m"}
    sources = {
        path.stem: ast.parse(path.read_text()) for path in sorted(Path(tokens.__file__).parent.glob("*.py"))
    }
    exported = {f"{stem}.{name}" for stem in sources for name in tokenpool.__all__}
    traced = {f"{module}.{name}" for module, name in load_spans().TRACED}
    assert _unused(sources) - exported - traced == set()
