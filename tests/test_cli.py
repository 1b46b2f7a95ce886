"""Command-line behavior: exit codes, output contracts, key hygiene."""

import copy
import hashlib
import io
import json
import re

import pytest
import yaml
from test_simnet import written

from tokenpool.cli import main
from tokenpool.migration import run_scenario
from tokenpool.simnet import Record

SECRET = bytes(range(32))
ISSUER = "https://issuer.test"

SCENARIO = {
    "name": "cli-small",
    "seed": 33,
    "horizon": 400,
    "phase": "TOKEN_WITH_GSI_FALLBACK",
    "issuer": {"url": ISSUER, "kid": "op-1"},
    "keys": [
        {"kid": "pool-daemon", "purpose": "daemon"},
        {"kid": "startd-1", "purpose": "startd"},
    ],
    "sites": [
        {
            "name": "site-a",
            "ces": [
                {
                    "id": "ce-a",
                    "flavor": "HTCONDOR_CE",
                    "capacity": 5,
                    "accepts_tokens": True,
                }
            ],
        }
    ],
    "factories": [{"id": "fac-1", "condor_major": 10, "rest_adopted": True}],
    "clients": [{"id": "cmsprod", "methods": ["IDTOKEN"], "jobs": 3, "duration": 86400}],
}

DRILL = {
    **SCENARIO,
    "name": "cli-drill",
    "horizon": 600,
    "keys": [
        {"kid": "pool-daemon", "purpose": "daemon"},
        {"kid": "startd-1", "purpose": "startd"},
        {"kid": "startd-2", "purpose": "startd"},
    ],
    "frontend": {"cycle": 1000, "match_interval": 60},
    "clients": [{"id": "cmsprod", "methods": ["IDTOKEN"], "jobs": 4, "duration": 86400}],
    "faults": [{"kind": "KEY_COMPROMISE", "target": "startd-1", "start": 300}],
    "drill": {"reprovision_delay": 60},
}


@pytest.fixture(autouse=True)
def _clean_seed_env(monkeypatch):
    monkeypatch.delenv("TOKENPOOL_SEED", raising=False)


@pytest.fixture()
def key_file(tmp_path):
    path = tmp_path / "key.hex"
    path.write_text(SECRET.hex() + "\n")
    path.chmod(0o600)
    return str(path)


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "small.yaml"
    path.write_text(yaml.safe_dump(SCENARIO))
    return str(path)


@pytest.fixture()
def drill_file(tmp_path):
    path = tmp_path / "drill.yaml"
    path.write_text(yaml.safe_dump(DRILL))
    return str(path)


def mint(capsys, key_file, *extra):
    rc = main(
        [
            "token",
            "mint",
            "--key-file",
            key_file,
            "--kid",
            "k1",
            "--subject",
            "alice",
            "--lifetime",
            "600",
            "--now",
            "1000",
            *extra,
        ]
    )
    assert rc == 0
    return capsys.readouterr().out.strip()


def test_mint_then_verify_round_trip(capsys, key_file):
    token = mint(capsys, key_file, "--limits", "READ,WRITE")
    assert token.count(".") == 2
    rc = main(["token", "verify", token, "--key-file", key_file, "--now", "1100"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("valid sub=alice limits=READ,WRITE kid=k1 jti=")


def test_mint_without_limits_is_unlimited(capsys, key_file):
    token = mint(capsys, key_file)
    main(["token", "verify", token, "--key-file", key_file, "--now", "1100"])
    assert "limits=(unlimited)" in capsys.readouterr().out


def test_inspect_prints_claims_without_verifying(capsys, key_file):
    token = mint(capsys, key_file, "--audience", "collector.test")
    rc = main(["token", "inspect", token])
    assert rc == 0
    decoded = json.loads(capsys.readouterr().out)
    assert decoded["header"]["kid"] == "k1"
    assert decoded["claims"]["sub"] == "alice"
    assert decoded["claims"]["aud"] == "collector.test"
    assert decoded["claims"]["exp"] == 1600


def test_verify_expired_token_fails(capsys, key_file):
    token = mint(capsys, key_file)
    rc = main(["token", "verify", token, "--key-file", key_file, "--now", "999999"])
    assert rc == 1
    assert "invalid: Expired" in capsys.readouterr().err


def test_verify_with_wrong_key_fails(capsys, key_file, tmp_path):
    token = mint(capsys, key_file)
    other = tmp_path / "other.hex"
    other.write_text(bytes(range(1, 33)).hex())
    other.chmod(0o600)
    rc = main(["token", "verify", token, "--key-file", str(other), "--now", "1100"])
    assert rc == 1
    assert "invalid: SignatureInvalid" in capsys.readouterr().err


def test_verify_kid_override_must_match_header(capsys, key_file):
    token = mint(capsys, key_file)
    rc = main(
        ["token", "verify", token, "--key-file", key_file, "--kid", "other", "--now", "1100"]
    )
    assert rc == 1
    assert "invalid: UnknownKey" in capsys.readouterr().err


def test_verify_rejects_negative_skew(capsys, key_file):
    # A negative allowance would shrink the token's window instead of
    # widening it; it is refused rather than applied.
    token = mint(capsys, key_file, "--lifetime", "100", "--now", "100")
    verify = ["token", "verify", token, "--key-file", key_file, "--now", "150"]
    assert main([*verify, "--skew", "-100"]) == 2
    assert capsys.readouterr().err == "error: --skew must not be negative, got -100\n"
    assert main([*verify, "--skew", "0"]) == 0


@pytest.mark.parametrize("lifetime", ["-100", "0"])
def test_mint_rejects_a_lifetime_below_one(capsys, key_file, lifetime):
    # A token that is never valid is a mistake in the arguments, not a
    # failed mint.
    argv = ["token", "mint", "--key-file", key_file, "--kid", "k1", "--subject", "a"]
    assert main([*argv, "--lifetime", lifetime, "--now", "1000"]) == 2
    assert capsys.readouterr().err == f"error: --lifetime must be at least 1, got {lifetime}\n"
    assert main([*argv, "--lifetime", "1", "--now", "1000"]) == 0


def test_world_readable_key_file_is_refused(capsys, key_file, tmp_path):
    token = mint(capsys, key_file)
    loose = tmp_path / "loose.hex"
    loose.write_text(SECRET.hex())
    loose.chmod(0o644)
    for argv in (
        ["token", "mint", "--key-file", str(loose), "--kid", "k1", "--subject", "a"],
        ["token", "verify", token, "--key-file", str(loose)],
    ):
        assert main(argv) == 2
        assert "0600" in capsys.readouterr().err


def test_missing_empty_and_non_hex_key_files(capsys, tmp_path):
    def mint_with(path):
        return main(
            ["token", "mint", "--key-file", str(path), "--kid", "k1", "--subject", "a"]
        )

    assert mint_with(tmp_path / "absent.hex") == 2
    assert "not found" in capsys.readouterr().err

    bad = tmp_path / "bad.hex"
    bad.write_text("zzzz")
    bad.chmod(0o600)
    assert mint_with(bad) == 2
    assert "hex" in capsys.readouterr().err

    empty = tmp_path / "empty.hex"
    empty.write_text("\n")
    empty.chmod(0o600)
    assert mint_with(empty) == 2
    assert "empty" in capsys.readouterr().err


def test_key_file_that_is_not_utf8_is_a_usage_error(capsys, tmp_path):
    binary = tmp_path / "binary.hex"
    binary.write_bytes(b"\xff\xfe" + SECRET)
    binary.chmod(0o600)
    rc = main(["token", "mint", "--key-file", str(binary), "--kid", "k1", "--subject", "a"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read key file {str(binary)!r}: ")


def test_mint_rejects_unknown_limits(capsys, key_file):
    rc = main(
        [
            "token",
            "mint",
            "--key-file",
            key_file,
            "--kid",
            "k1",
            "--subject",
            "a",
            "--limits",
            "READ,FULL",
        ]
    )
    assert rc == 2
    assert "unknown authorization level(s) FULL" in capsys.readouterr().err


def test_token_argument_dash_reads_stdin(capsys, key_file, monkeypatch):
    token = mint(capsys, key_file)
    monkeypatch.setattr("sys.stdin", io.StringIO(token + "\n"))
    rc = main(["token", "verify", "-", "--key-file", key_file, "--now", "1100"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("valid sub=alice")


def test_inspect_garbage_fails_cleanly(capsys):
    rc = main(["token", "inspect", "not-a-token"])
    assert rc == 1
    assert "invalid: MalformedToken" in capsys.readouterr().err


def test_sim_run_reports_digest_and_writes_trace(capsys, scenario_file, tmp_path):
    trace_out = tmp_path / "trace.jsonl"
    rc = main(["sim", "run", scenario_file, "--trace-out", str(trace_out)])
    assert rc == 0
    out = capsys.readouterr().out
    match = re.search(r"digest: ([0-9a-f]{64})", out)
    assert match
    assert hashlib.sha256(trace_out.read_bytes()).hexdigest() == match.group(1)
    assert "tail_fill=" in out
    lines = trace_out.read_bytes().splitlines(keepends=True)
    assert lines
    for line in lines:
        obj = json.loads(line)
        assert sorted(obj) == sorted(Record._fields)
        assert written(line) == [Record(**obj)]


def test_sim_run_trace_out_to_a_missing_directory_is_a_usage_error(capsys, scenario_file, tmp_path):
    rc = main(["sim", "run", scenario_file, "--trace-out", str(tmp_path / "absent" / "t.jsonl")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write trace: ")
    assert captured.out == ""


def test_sim_run_opens_trace_out_before_the_run(capsys, scenario_file, tmp_path, monkeypatch):
    from tokenpool import migration

    def no_run(*args, **kwargs):
        raise AssertionError("the run started before the trace file was opened")

    monkeypatch.setattr(migration, "build_world", no_run)
    rc = main(["sim", "run", scenario_file, "--trace-out", str(tmp_path / "absent" / "t.jsonl")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: cannot write trace: ")


def test_sim_run_trace_out_serialises_each_record_once(scenario_file, tmp_path, monkeypatch):
    """Each line is written as its record is made: when the run returns, the
    file already holds the whole trace, whose SHA-256 is the run's digest,
    and the report writes nothing more."""
    from tokenpool import cli

    trace_out = tmp_path / "trace.jsonl"
    seen = []

    def run(scenario, **kwargs):
        result = run_scenario(scenario, **kwargs)
        kwargs["trace_out"].flush()
        seen.append(trace_out.read_bytes())
        assert hashlib.sha256(seen[0]).hexdigest() == result.digest
        assert seen[0].count(b"\n") == len(result.trace.records) > 0
        return result

    monkeypatch.setattr(cli, "run_scenario", run)
    assert main(["sim", "run", scenario_file, "--trace-out", str(trace_out)]) == 0
    assert [trace_out.read_bytes()] == seen


def test_sim_run_json_format(capsys, scenario_file):
    rc = main(["sim", "run", scenario_file, "--format", "json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scenario"] == "cli-small"
    assert report["pool"]["capacity"] == 5
    assert report["phase_soundness"]["ok"] is True


def run_digest(capsys, scenario_file, *extra):
    rc = main(["sim", "run", scenario_file, "--format", "json", *extra])
    assert rc == 0
    return json.loads(capsys.readouterr().out)["digest"]


def test_seed_flag_and_environment_agree(capsys, scenario_file, monkeypatch):
    via_flag = run_digest(capsys, scenario_file, "--seed", "5")
    monkeypatch.setenv("TOKENPOOL_SEED", "5")
    via_env = run_digest(capsys, scenario_file)
    assert via_env == via_flag
    flag_overrides_env = run_digest(capsys, scenario_file, "--seed", "7")
    monkeypatch.delenv("TOKENPOOL_SEED")
    assert flag_overrides_env == run_digest(capsys, scenario_file, "--seed", "7")
    assert flag_overrides_env != via_flag


def test_bad_environment_seed_is_a_usage_error(capsys, scenario_file, monkeypatch):
    monkeypatch.setenv("TOKENPOOL_SEED", "abc")
    rc = main(["sim", "run", scenario_file])
    assert rc == 2
    assert "TOKENPOOL_SEED" in capsys.readouterr().err


def test_sim_drill_judges_recovery(capsys, drill_file):
    rc = main(["sim", "drill", drill_file])
    out = capsys.readouterr().out
    assert rc == 0
    assert "within_bound=True" in out
    assert "evicted=2/4" in out


def test_sim_drill_without_compromise_fails(capsys, scenario_file):
    rc = main(["sim", "drill", scenario_file])
    assert rc == 1
    assert "no key-compromise exercise" in capsys.readouterr().err


def test_report_defaults_to_json(capsys, scenario_file):
    rc = main(["report", scenario_file])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scenario"] == "cli-small"


def test_missing_scenario_file(capsys, tmp_path):
    rc = main(["sim", "run", str(tmp_path / "absent.yaml")])
    assert rc == 2
    assert "cannot read scenario" in capsys.readouterr().err


def test_broken_scenario_file(capsys, tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text(yaml.safe_dump({"name": "x"}))
    rc = main(["sim", "run", str(path)])
    assert rc == 2
    assert "bad scenario" in capsys.readouterr().err


def _with(path, value):
    """``SCENARIO`` with the value at ``path`` (keys and list indices)
    replaced."""
    doc = copy.deepcopy(SCENARIO)
    *head, last = path
    node = doc
    for key in head:
        node = node[key]
    node[last] = value
    return doc


@pytest.mark.parametrize(
    "path, value, named",
    [
        (("keys", 1, "kid"), "", "keys[1].kid: ''"),
        (("keys", 1, "kid"), "startd-1 x", "keys[1].kid: 'startd-1 x'"),
        (("sites", 0, "ces", 0, "id"), "*", "gateway sites[0].ces[0].id: '*'"),
        (("clients", 0, "jobs"), 2**70, "clients[0].jobs: must be <= "),
        (("horizon",), 2**70, "horizon: must be <= "),
        (
            ("faults",),
            [
                {"kind": "MESSAGE_DROP", "target": "*", "rate": 0.0},
                {"kind": "MESSAGE_DROP", "target": "STARTD->COLLECTOR", "rate": 1.0},
            ],
            "faults[0] and faults[1]: MESSAGE_DROP windows overlap",
        ),
    ],
    ids=["empty-kid", "kid-with-space", "gateway-star", "huge-jobs", "huge-horizon", "overlapping-drops"],
)
def test_scenario_the_run_cannot_carry_is_refused_before_it_starts(
    capsys, tmp_path, monkeypatch, path, value, named
):
    # An empty kid fails the run at its first mint, a space splits a trace
    # detail, a gateway named ``*`` cannot be a fault's only target,
    # 2**70 jobs or simulated seconds never finish, and of two overlapping
    # drop faults the second never acts: each is refused before the run
    # starts.
    from tokenpool import migration

    def no_run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(migration, "build_world", no_run)
    scenario = tmp_path / "bad.yaml"
    scenario.write_text(yaml.safe_dump(_with(path, value)))
    assert main(["sim", "run", str(scenario)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad scenario: {named}"), err


@pytest.mark.parametrize(
    "held",
    [b'"\\ud800\\udc00"', b"\xed\xa0\x80\xed\xb0\x80"],
    ids=["escaped", "encoded"],
)
def test_scenario_with_a_surrogate_id_is_a_usage_error(capsys, tmp_path, held):
    # A gateway id held as a surrogate pair, written as YAML escapes or as
    # the pair's UTF-8-style bytes (not UTF-8), is refused without a
    # traceback: by libyaml's reader, or else by the id rule.
    text = yaml.safe_dump(_with(("sites", 0, "ces", 0, "id"), "GATEWAY-ID")).encode()
    path = tmp_path / "surrogate.yaml"
    path.write_bytes(text.replace(b"GATEWAY-ID", held))
    assert main(["sim", "run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad scenario: ") and "Traceback" not in err, err


def test_wrongly_typed_plan_step_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "plan.yaml"
    path.write_text(yaml.safe_dump({**SCENARIO, "plan": [5]}))
    rc = main(["report", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad scenario: plan[0]: expected a mapping")
    assert "Traceback" not in err


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
