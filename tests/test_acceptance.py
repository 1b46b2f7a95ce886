"""Release gate: the eight properties this package stands behind.

Each criterion is one test; the ``pytest -v`` line for it is the
per-criterion pass/fail record, and each test prints its measured
numbers so a failure shows exactly what was observed.  The last test
pins the CLI reports of every shipped scenario against ``tests/golden/``.

The golden token vectors live in ``test_jose.GOLDEN_VECTORS``: expected
strings produced by the standalone stdlib reference encoder and frozen
before the library existed.  They are imported rather than restated so
there is exactly one copy to drift.
"""

import ast
import dataclasses
import hashlib
import io
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
import yaml

from test_actors import golden_digest
from test_jose import GOLDEN_VECTORS, oracle_jwt
from test_simnet import pick, written

from tokenpool import errors
from tokenpool.actors import CH_CE_SUBMIT, CH_JOIN
from tokenpool.errors import MalformedToken, SignatureInvalid
from tokenpool.jose import TokenClaims, TokenHeader, decode_token, encode_token
from tokenpool.migration import (
    parse_detail,
    render_report,
    report_dict,
    run_scenario,
)
from tokenpool.policy import (
    AuthenticatedPeer,
    AuthMethod,
    AuthzLevel,
    ChannelPolicy,
    MigrationPhase,
    PolicyTable,
    Sessions,
    authenticate,
    authorize,
)
from tokenpool.scenario import parse_scenario
from tokenpool.tokens import (
    IssuerKey,
    SymmetricKeyring,
    TrustDirectory,
    mint_idtoken,
    mint_scitoken,
    verify_idtoken,
    verify_scitoken,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SOURCE_DIR = Path(__file__).resolve().parent.parent / "src" / "tokenpool"


@pytest.fixture(scope="module")
def shipped():
    """Every scenario shipped under scenarios/, run once, with timings, the
    trace it wrote and the records read back from it."""
    runs = {}
    for path in sorted(SCENARIO_DIR.glob("*.yaml")):
        doc = yaml.safe_load(path.read_text())
        scenario = parse_scenario(doc)
        out = io.BytesIO()
        started = time.perf_counter()
        result = run_scenario(scenario, trace_out=out)
        elapsed = time.perf_counter() - started
        lines = out.getvalue()
        runs[path.stem] = SimpleNamespace(
            path=path,
            doc=doc,
            scenario=scenario,
            result=result,
            elapsed=elapsed,
            lines=lines,
            records=written(lines),
        )
    assert len(runs) == 6
    return runs


# --- criterion 1: golden signature vectors ---------------------------------


def test_criterion_1_golden_vectors_byte_identical():
    started = time.perf_counter()
    for header, claims, secret, expected in GOLDEN_VECTORS:
        assert oracle_jwt(header, claims, secret) == expected
        produced = encode_token(
            TokenHeader.from_json_dict(header),
            TokenClaims.from_json_dict(claims),
            secret,
        )
        assert produced.compact == expected
    elapsed = time.perf_counter() - started
    print(
        f"[criterion 1] {len(GOLDEN_VECTORS)} golden vectors reproduced"
        f" byte-for-byte; {elapsed:.4f}s (budget 1s)"
    )
    assert len(GOLDEN_VECTORS) >= 3
    assert elapsed < 1.0


# --- criterion 2: tamper suite ---------------------------------------------

B64URL_ALPHABET = (
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"
)


def test_criterion_2_payload_tampering_never_verifies():
    rng = random.Random(0x7A3F)
    keyring = SymmetricKeyring.from_secrets({"t": b"tamper-suite-key-0123456789abcd"})
    started = time.perf_counter()
    mutants = rejected_signature = rejected_malformed = accepted = 0
    for i in range(1000):
        limits = ("ADVERTISE",) if i % 2 else ()
        token = mint_idtoken(
            keyring, "t", f"s{i}", limits, 600, 1000 + i, issuer="p", jti=f"{i:04x}"
        )
        head, payload, sig = token.compact.split(".")
        for pos in range(len(payload)):
            replacement = rng.choice(B64URL_ALPHABET)
            while replacement == payload[pos]:
                replacement = rng.choice(B64URL_ALPHABET)
            mutant = f"{head}.{payload[:pos]}{replacement}{payload[pos + 1:]}.{sig}"
            mutants += 1
            try:
                verify_idtoken(decode_token(mutant), keyring, 1000 + i)
            except SignatureInvalid:
                rejected_signature += 1
            except MalformedToken:
                # mutation broke well-formedness (JSON/UTF-8), not a
                # signature question — still a rejection
                rejected_malformed += 1
            else:
                accepted += 1
    elapsed = time.perf_counter() - started
    print(
        f"[criterion 2] {mutants} single-character payload mutants over 1000"
        f" tokens: {rejected_signature} SignatureInvalid,"
        f" {rejected_malformed} malformed, {accepted} false accepts;"
        f" {elapsed:.2f}s (budget 10s)"
    )
    assert accepted == 0
    assert rejected_signature + rejected_malformed == mutants
    # Both classes must be well populated: a mutation usually lands a raw
    # control character inside a JSON string (malformed), but tens of
    # thousands of mutants stay well-formed and must die on the signature.
    assert rejected_signature > 10_000
    assert elapsed < 10.0


def test_criterion_2_tampering_never_verifies_against_a_warm_signature_memo():
    # A capability token that verified opens a session, which spares it the
    # signature check when it is presented again; every mutant of a token
    # with a session must still be rejected.  A mutation that keeps the
    # payload well-formed may also change the issuer, the window or the
    # audience, which fail before or after the signature.
    rng = random.Random(0x5C17)
    issuer = "https://tamper.test"
    key = IssuerKey.generate("t", seed=b"\x07" * 32)
    trust = TrustDirectory.single_issuer(issuer, key)
    sessions = Sessions(PolicyTable({}, (("*", "anyone"),)), SymmetricKeyring({}), trust)
    pol = ChannelPolicy((AuthMethod.SCITOKEN,), required_scopes=frozenset({"compute.create"}))

    def present(token, now):
        return authenticate(
            CH_CE_SUBMIT, pol, token, sessions=sessions, expected_audience="ce-1", now=now
        )

    started = time.perf_counter()
    mutants = accepted = 0
    rejected: Counter[str] = Counter()
    for i in range(100):
        token = mint_scitoken(
            key, issuer, f"s{i}", ("compute.create",), "ce-1", 600, 1000 + i, jti=f"{i:04x}"
        )
        present(token, 1000 + i)
        assert token.compact in sessions
        head, payload, sig = token.compact.split(".")
        for pos in range(len(payload)):
            replacement = rng.choice(B64URL_ALPHABET)
            while replacement == payload[pos]:
                replacement = rng.choice(B64URL_ALPHABET)
            mutant = f"{head}.{payload[:pos]}{replacement}{payload[pos + 1:]}.{sig}"
            mutants += 1
            try:
                present(decode_token(mutant), 1000 + i)
            except errors.TokenPoolError as exc:
                rejected[exc.reason] += 1
            else:
                accepted += 1
    elapsed = time.perf_counter() - started
    print(
        f"[criterion 2, warm sessions] {mutants} single-character payload mutants over"
        f" 100 capability tokens with sessions: {dict(sorted(rejected.items()))},"
        f" {accepted} false accepts; {elapsed:.2f}s (budget 10s)"
    )
    assert accepted == 0
    assert sum(rejected.values()) == mutants
    assert rejected["SignatureInvalid"] > 1_000
    assert elapsed < 10.0


def test_criterion_2_tampering_never_authenticates_against_a_warm_world_session(run_world):
    # A World keeps a session for each token it has accepted; every mutant of
    # such a token is another token, and must still be refused, at parse or
    # at authentication.
    rng = random.Random(0x3E11)
    world = run_world(SCENARIO_DIR / "migration-2022.yaml")
    presented = [(CH_JOIN, p.token, "") for p in list(world.collector.members.values())[:20]]
    presented += [
        (CH_CE_SUBMIT, token, ce_id)
        for ce_id, token in sorted(world.frontend.scitokens.items())
    ]
    started = time.perf_counter()
    mutants = accepted = 0
    rejected: Counter[str] = Counter()
    for channel, token, audience in presented:
        world.authenticate_on(channel, token, audience=audience)
        assert token.compact in world.sessions
        head, payload, sig = token.compact.split(".")
        for pos in range(len(payload)):
            replacement = rng.choice(B64URL_ALPHABET)
            while replacement == payload[pos]:
                replacement = rng.choice(B64URL_ALPHABET)
            mutant = f"{head}.{payload[:pos]}{replacement}{payload[pos + 1:]}.{sig}"
            mutants += 1
            try:
                world.authenticate_on(channel, decode_token(mutant), audience=audience)
            except errors.TokenPoolError as exc:
                rejected[exc.reason] += 1
            else:
                accepted += 1
    elapsed = time.perf_counter() - started
    print(
        f"[criterion 2, warm World sessions] {mutants} single-character payload mutants"
        f" of {len(presented)} tokens a World had accepted:"
        f" {dict(sorted(rejected.items()))}, {accepted} false accepts;"
        f" {elapsed:.2f}s (budget 10s)"
    )
    assert len(presented) > 20
    assert accepted == 0
    assert sum(rejected.values()) == mutants
    assert rejected["SignatureInvalid"] > 500
    assert elapsed < 10.0


# --- criterion 3: 2022-style rollout capacity ------------------------------


def test_criterion_3_rollout_2022_capacity_fractions(shipped):
    fallback = shipped["rollout-2022"]
    token_only = shipped["rollout-2022-tokenonly"]

    for run in (fallback, token_only):
        scenario = run.scenario
        assert len(scenario.sites) == 25
        assert len(scenario.ces) == 45
        assert len({ce.capacity for ce in scenario.ces}) == 1  # equal capacity
        misconfigured = {
            f.target for f in scenario.faults if f.kind.value == "CE_TOKEN_MISCONFIG"
        }
        assert len(misconfigured) == 12

    requested = sum(
        1 for r in pick(fallback.records, "PILOT", outcome="REQUESTED")
    )
    fallback_fill = fallback.result.report["pool"]["tail_fraction"]
    token_only_fill = token_only.result.report["pool"]["tail_fraction"]
    runtime = fallback.elapsed + token_only.elapsed
    print(
        f"[criterion 3] fallback fill={fallback_fill:.4f} (want 1.00±0.02),"
        f" token-only fill={token_only_fill:.4f} (want {33 / 45:.4f}±0.02),"
        f" pilots requested={requested}, runtime={runtime:.2f}s (budget 30s)"
    )
    assert requested >= 1900
    assert fallback_fill == pytest.approx(1.00, abs=0.02)
    assert token_only_fill == pytest.approx(33 / 45, abs=0.02)
    assert runtime < 30.0


# --- criterion 4: phase soundness ------------------------------------------


def test_criterion_4_no_legacy_auth_under_token_only(shipped):
    legacy = {AuthMethod.GSI_PROXY.value, AuthMethod.LOCAL_FS.value}
    for name, run in shipped.items():
        violations = run.result.report["phase_soundness"]["violations"]
        assert violations == [], f"{name}: {violations[:3]}"
        timeline = run.result.report["phase_timeline"]
        legacy_success_in_token_only = [
            rec
            for rec in run.records
            if rec.outcome == "SUCCESS"
            and rec.method in legacy
            and [p["phase"] for p in timeline if p["t"] <= rec.t][-1] == MigrationPhase.TOKEN_ONLY.value
        ]
        assert legacy_success_in_token_only == [], name
    print(f"[criterion 4] phase soundness clean on all {len(shipped)} shipped scenarios")


# --- criterion 5: key-compromise drill -------------------------------------


def test_criterion_5_key_compromise_drill(shipped, run_world):
    run = shipped["drill-keysplit"]
    result = run.result
    assert len(run_world(run.scenario).startd_kids) == 4

    report = result.report.get("drill")
    assert report is not None
    quarter = report["pool_before"] / 4
    evictions = pick(run.records, "PILOT", outcome="EVICT")
    foreign = [
        r for r in evictions if parse_detail(r.detail).get("kid") != report["kid"]
    ]
    final_size = int(
        parse_detail(pick(run.records, "POOL", outcome="SAMPLE")[-1].detail)[
            "size"
        ]
    )
    print(
        f"[criterion 5] kid={report['kid']} evicted={report['evicted']}"
        f" (quarter of {report['pool_before']} ± 1), foreign evictions={len(foreign)},"
        f" recovery={report['recovery_time']}s (bound {report['bound']}s),"
        f" final pool={final_size}"
    )
    assert abs(report["evicted"] - quarter) <= 1
    assert foreign == []  # no pilot outside the compromised key was touched
    assert report["within_bound"]
    assert report["recovery_time"] is not None and report["recovery_time"] <= report["bound"]
    assert final_size >= report["pool_before"]


# --- criterion 6: least-privilege matrix -----------------------------------

# Independent statement of the authorization partial order, kept in full
# rather than derived, so a lattice regression cannot hide.
EXPECTED_ALLOW = {
    (AuthzLevel.ADMIN, AuthzLevel.ADMIN),
    (AuthzLevel.ADMIN, AuthzLevel.DAEMON),
    (AuthzLevel.ADMIN, AuthzLevel.ADVERTISE),
    (AuthzLevel.ADMIN, AuthzLevel.READ),
    (AuthzLevel.ADMIN, AuthzLevel.WRITE),
    (AuthzLevel.DAEMON, AuthzLevel.DAEMON),
    (AuthzLevel.DAEMON, AuthzLevel.ADVERTISE),
    (AuthzLevel.ADVERTISE, AuthzLevel.ADVERTISE),
    (AuthzLevel.READ, AuthzLevel.READ),
    (AuthzLevel.WRITE, AuthzLevel.WRITE),
}


def test_criterion_6_authorize_matches_declared_partial_order():
    checked = allowed = 0
    for held in AuthzLevel:
        for required in AuthzLevel:
            peer = AuthenticatedPeer("peer", AuthMethod.IDTOKEN, frozenset({held}))
            decision = authorize(
                peer, ChannelPolicy((AuthMethod.IDTOKEN,), required)
            )
            expected = (held, required) in EXPECTED_ALLOW
            assert decision.allowed == expected, (held, required)
            if not decision.allowed:
                assert decision.missing == (required.value,)
            checked += 1
            allowed += decision.allowed
    print(f"[criterion 6] authorize() matrix {checked}/25 pairs exact, {allowed} allowed")
    assert checked == 25
    assert allowed == len(EXPECTED_ALLOW) == 10


# --- criterion 7: determinism ----------------------------------------------


def test_criterion_7_trace_digests_are_seed_deterministic(shipped):
    for name, run in shipped.items():
        replay = run_scenario(run.scenario)
        assert replay.digest == run.result.digest, f"{name}: replay digest drifted"
        reseeded = run_scenario(run.scenario, seed=run.scenario.seed + 1)
        assert reseeded.digest != run.result.digest, f"{name}: digest ignores seed"
        # No shipped scenario drops messages, so the seed moves only jtis
        # and key bytes, which no report fact reads.
        facts, reseeded_facts = report_dict(run.result), report_dict(reseeded)
        for report in (facts, reseeded_facts):
            del report["digest"], report["seed"]
        assert reseeded_facts == facts, f"{name}: the seed leaks into the report"
    print(
        f"[criterion 7] {len(shipped)} scenarios: replay digest identical,"
        " reseeded digest distinct, reseeded report the same"
    )


def test_runs_report_the_same_with_and_without_trace_out(shipped):
    """A run that writes no trace states the same digest and reports as one
    that writes it, and the lines written hash to that digest."""
    for name, run in shipped.items():
        unwritten = run_scenario(run.scenario)
        assert unwritten.digest == run.result.digest, name
        assert hashlib.sha256(run.lines).hexdigest() == run.result.digest, name
        assert len(unwritten.trace.records) == len(run.result.trace.records) == len(run.records), name
        assert report_dict(unwritten) == report_dict(run.result), name
        for fmt in ("text", "json"):
            assert render_report(unwritten, fmt) == render_report(run.result, fmt), name


# --- criterion 8: deprecated LDAP interface --------------------------------


def test_criterion_8_ldap_only_ce_is_dark_on_condor_10(shipped):
    run = shipped["arc-ldap-deprecation"]

    attempts = [
        r for r in pick(run.records, "FACTORY->CE") if "ce=ce-ldap" in r.detail
    ]
    assert attempts, "no submission attempts recorded for the LDAP-only CE"
    assert all(r.outcome == "FAIL:DeprecatedInterface" for r in attempts)

    pilot_states = {
        r.outcome
        for r in pick(run.records, "PILOT")
        if "ce=ce-ldap" in r.detail
    }
    assert pilot_states == {"REQUESTED", "FAILED"}  # never submitted, never joined

    # Control: the identical fleet under a condor 9 factory still reaches
    # the CE over LDAP, so the refusal above is the version gate.
    older_doc = dict(run.doc, name="arc-ldap-on-9")
    older_doc["factories"] = [dict(run.doc["factories"][0], condor_major=9)]
    older_out = io.BytesIO()
    run_scenario(parse_scenario(older_doc), trace_out=older_out)
    submitted = [
        r
        for r in pick(written(older_out.getvalue()), "PILOT", outcome="SUBMITTED")
        if "ce=ce-ldap" in r.detail
    ]
    print(
        f"[criterion 8] condor 10: {len(attempts)} attempts all"
        f" DeprecatedInterface, pilot records {sorted(pilot_states)};"
        f" condor 9 control: {len(submitted)} pilots submitted over LDAP"
    )
    assert submitted


# --- golden pins: reports and CLI output of every shipped scenario ---------

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def test_golden_reports_byte_identical(shipped, monkeypatch, capsys):
    """The CLI output of every shipped scenario at its shipped seed is pinned
    byte for byte: ``tokenpool report`` (JSON, digest included) as
    ``<stem>.json``, ``tokenpool sim run`` (text) as ``<stem>.txt``, and
    ``tokenpool sim drill`` as ``<stem>.drill.txt`` for drill scenarios.
    The CLI runs on the fixture's results, so no scenario runs again.

    Regenerate, from the repository root, only for an announced behaviour
    change::

        for f in scenarios/*.yaml; do s=$(basename $f .yaml)
          PYTHONPATH=src python -m tokenpool.cli report $f > tests/golden/$s.json
          PYTHONPATH=src python -m tokenpool.cli sim run $f > tests/golden/$s.txt
        done
        PYTHONPATH=src python -m tokenpool.cli sim drill \\
          scenarios/drill-keysplit.yaml > tests/golden/drill-keysplit.drill.txt
    """
    from tokenpool import cli

    def cli_output(run, *argv):
        def replay(scenario, seed=None, trace_out=None):
            assert scenario == run.scenario and seed is None and trace_out is None
            return run.result

        monkeypatch.setattr(cli, "run_scenario", replay)
        rc = cli.main([*argv, str(run.path)])
        out = capsys.readouterr().out
        assert rc == 0, argv
        return out

    pinned = 0
    for name, run in shipped.items():
        for suffix, argv in (
            (".json", ["report"]),
            (".txt", ["sim", "run"]),
            (".drill.txt", ["sim", "drill"]),
        ):
            golden = GOLDEN_DIR / f"{name}{suffix}"
            if suffix == ".drill.txt" and not golden.exists():
                continue
            assert cli_output(run, *argv) == golden.read_text(), f"{name}{suffix}"
            pinned += 1
    print(f"[golden] {pinned} CLI outputs byte-identical to tests/golden/")
    assert pinned == 2 * len(shipped) + 1


def test_text_report_formats_the_report_model_alone(shipped):
    """With its scenario and trace taken away, a result still renders every
    golden text report: the text reads ``result.report`` and nothing else."""
    for name, run in shipped.items():
        bare = dataclasses.replace(run.result, scenario=None, trace=None)
        assert render_report(bare) == (GOLDEN_DIR / f"{name}.txt").read_text(), name


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_digests_do_not_depend_on_the_hash_seed(hash_seed):
    """A fresh interpreter under ``PYTHONHASHSEED`` runs the six shipped
    scenarios and prints the golden digests: no set or dict order keyed on
    a ``str`` hash reaches the trace."""
    script = (
        "import sys\n"
        "from tokenpool.migration import run_scenario\n"
        "for path in sys.argv[1:]:\n"
        "    print(run_scenario(path).digest)\n"
    )
    paths = sorted(SCENARIO_DIR.glob("*.yaml"))
    src = str(SCENARIO_DIR.parent / "src")
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, paths)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert len(paths) == 6
    assert done.stdout.split() == [golden_digest(path) for path in paths]


def test_trace_reasons_come_from_the_closed_vocabulary(shipped):
    """Every ``FAIL:<reason>`` outcome and ``reason=<reason>`` detail of the
    shipped traces is in ``errors.TRACE_REASONS``, and every entry of that
    set names a failure class or is one of the declared outcome strings."""
    declared = {
        errors.DEPRECATED_INTERFACE,
        errors.CAPACITY_EXCEEDED,
        errors.MISMATCHED_CREDENTIAL,
        errors.AUTH_REJECTED,
        errors.KEY_COMPROMISE,
        errors.IDLE,
    }
    for reason in errors.TRACE_REASONS - declared:
        assert issubclass(getattr(errors, reason), errors.TokenPoolError), reason
    assert not any(hasattr(errors, reason) for reason in declared)

    seen = Counter()
    for run in shipped.values():
        for record in run.records:
            outcome = record.outcome
            if outcome.startswith("FAIL:"):
                seen[outcome[len("FAIL:"):]] += 1
            if "reason" in (detail := parse_detail(record.detail)):
                seen[detail["reason"]] += 1
    unknown = sorted(set(seen) - errors.TRACE_REASONS)
    print(f"[vocabulary] reasons in the shipped traces: {dict(sorted(seen.items()))}")
    assert seen and unknown == []


@pytest.mark.parametrize("path", sorted(SOURCE_DIR.glob("*.py")), ids=lambda path: path.name)
def test_sources_parse_as_the_oldest_supported_python(path):
    # pyproject.toml allows Python 3.10, so no module may use syntax that
    # only a later version parses (``except*``, say).
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
