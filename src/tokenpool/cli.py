"""Command-line front door: token utilities, scenario runs, reports.

Exit codes: 0 success, 1 the operation itself failed (invalid token,
missed drill bound), 2 usage or environment problems (bad arguments,
unreadable files, broken scenario).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import BinaryIO

from . import jose
from .errors import ScenarioError, SimulationError, TokenError, TokenPoolError
from .migration import drill_line, drill_report, render_report, run_scenario
from .policy import AuthzLevel
from .scenario import load_scenario
from .tokens import DEFAULT_SKEW, SymmetricKeyring, mint_idtoken, verify_idtoken

SEED_ENV = "TOKENPOOL_SEED"


class _UsageError(Exception):
    pass


def _load_key_file(path: str) -> bytes:
    p = Path(path)
    if not p.is_file():
        raise _UsageError(f"key file {path!r} not found")
    if p.stat().st_mode & 0o077:
        raise _UsageError(
            f"key file {path!r} is readable by group/other; tighten it to 0600"
        )
    try:
        text = p.read_text(encoding="utf-8").strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read key file {path!r}: {exc}") from None
    try:
        secret = bytes.fromhex(text)
    except ValueError:
        raise _UsageError(f"key file {path!r} must hold the key as hex") from None
    if not secret:
        raise _UsageError(f"key file {path!r} is empty")
    return secret


def _read_token_arg(raw: str) -> str:
    if raw == "-":
        return sys.stdin.read().strip()
    return raw


def _parse_limits(raw: str | None) -> tuple[str, ...]:
    if not raw:
        return ()
    names = tuple(part.strip() for part in raw.split(",") if part.strip())
    valid = {level.value for level in AuthzLevel}
    unknown = sorted(set(names) - valid)
    if unknown:
        raise _UsageError(
            f"unknown authorization level(s) {', '.join(unknown)};"
            f" valid: {', '.join(sorted(valid))}"
        )
    return names


def _resolve_seed(args: argparse.Namespace) -> int | None:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if env:
        try:
            return int(env)
        except ValueError:
            raise _UsageError(f"{SEED_ENV} must be an integer, got {env!r}") from None
    return None


def _load(args: argparse.Namespace, trace_out: BinaryIO | None = None):
    try:
        scenario = load_scenario(args.scenario)
    except OSError as exc:
        raise _UsageError(f"cannot read scenario: {exc}") from None
    except ScenarioError as exc:
        raise _UsageError(f"bad scenario: {exc}") from None
    try:
        return run_scenario(scenario, seed=_resolve_seed(args), trace_out=trace_out)
    except (ScenarioError, SimulationError) as exc:
        raise _UsageError(f"run failed: {exc}") from None


def cmd_token_mint(args: argparse.Namespace) -> int:
    if args.lifetime < 1:
        raise _UsageError(f"--lifetime must be at least 1, got {args.lifetime}")
    secret = _load_key_file(args.key_file)
    keyring = SymmetricKeyring.from_secrets({args.kid: secret})
    now = args.now if args.now is not None else int(time.time())
    token = mint_idtoken(
        keyring,
        args.kid,
        args.subject,
        _parse_limits(args.limits),
        args.lifetime,
        now,
        issuer=args.issuer,
        audience=args.audience,
    )
    print(token.compact)
    return 0


def cmd_token_inspect(args: argparse.Namespace) -> int:
    token = _read_token_arg(args.token)
    try:
        parsed = jose.decode_token(token)
    except TokenError as exc:
        print(f"invalid: {exc.reason}: {exc}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {"header": parsed.header.to_json_dict(), "claims": parsed.claims.to_json_dict()},
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def cmd_token_verify(args: argparse.Namespace) -> int:
    if args.skew < 0:
        raise _UsageError(f"--skew must not be negative, got {args.skew}")
    secret = _load_key_file(args.key_file)
    token = _read_token_arg(args.token)
    now = args.now if args.now is not None else int(time.time())
    try:
        parsed = jose.decode_token(token)
        kid = args.kid if args.kid is not None else parsed.header.kid
        keyring = SymmetricKeyring.from_secrets({kid: secret})
        verified = verify_idtoken(parsed, keyring, now, skew=args.skew)
    except TokenError as exc:
        print(f"invalid: {exc.reason}: {exc}", file=sys.stderr)
        return 1
    limits = ",".join(sorted(verified.authz_limits)) or "(unlimited)"
    print(
        f"valid sub={verified.subject} limits={limits}"
        f" kid={parsed.header.kid} jti={parsed.claims.jti}"
    )
    return 0


def cmd_sim_run(args: argparse.Namespace) -> int:
    if args.trace_out:
        # Opened before the run, so a path it cannot write fails at once.
        try:
            with open(args.trace_out, "wb") as out:
                result = _load(args, out)
        except OSError as exc:
            raise _UsageError(f"cannot write trace: {exc}") from None
    else:
        result = _load(args)
    print(render_report(result, args.format), end="")
    return 0


def cmd_sim_drill(args: argparse.Namespace) -> int:
    drill = drill_report(_load(args))
    if drill is None:
        print("no key-compromise exercise in this run", file=sys.stderr)
        return 1
    print(drill_line(drill))
    return 0 if drill["within_bound"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokenpool",
        description="Token-auth pool model: mint and check tokens, run scenarios, emit reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    token = sub.add_parser("token", help="token utilities")
    token_sub = token.add_subparsers(dest="token_command", required=True)

    mint = token_sub.add_parser("mint", help="mint an identity token")
    mint.add_argument("--key-file", required=True, help="hex-encoded symmetric key; must be mode 0600")
    mint.add_argument("--kid", required=True, help="key id to put in the header")
    mint.add_argument("--subject", required=True, help="identity the token asserts")
    mint.add_argument("--limits", help="comma-separated authorization levels; empty = unlimited")
    mint.add_argument("--lifetime", type=int, default=3600, help="seconds of validity (default 3600)")
    mint.add_argument("--now", type=int, help="issue instant (default: wall clock)")
    mint.add_argument("--issuer", default="condor-pool", help="iss claim (default condor-pool)")
    mint.add_argument("--audience", help="optional aud claim")
    mint.set_defaults(func=cmd_token_mint)

    inspect = token_sub.add_parser("inspect", help="decode a token without verifying it")
    inspect.add_argument("token", help="token string, or - for stdin")
    inspect.set_defaults(func=cmd_token_inspect)

    verify = token_sub.add_parser("verify", help="verify an identity token")
    verify.add_argument("token", help="token string, or - for stdin")
    verify.add_argument("--key-file", required=True, help="hex-encoded symmetric key; must be mode 0600")
    verify.add_argument("--kid", help="bind the key to this kid (default: the token's header kid)")
    verify.add_argument("--now", type=int, help="verification instant (default: wall clock)")
    verify.add_argument("--skew", type=int, default=DEFAULT_SKEW, help=f"clock-skew allowance (default {DEFAULT_SKEW}s)")
    verify.set_defaults(func=cmd_token_verify)

    sim = sub.add_parser("sim", help="run scenarios")
    sim_sub = sim.add_subparsers(dest="sim_command", required=True)

    run = sim_sub.add_parser("run", help="run a scenario and print its report")
    run.add_argument("scenario", help="scenario YAML file")
    run.add_argument("--seed", type=int, help=f"override the scenario seed (or set {SEED_ENV})")
    run.add_argument("--format", choices=("text", "json"), default="text")
    run.add_argument("--trace-out", help="also write the audit trace as JSONL here")
    run.set_defaults(func=cmd_sim_run)

    drill = sim_sub.add_parser("drill", help="run a scenario and judge its key-compromise exercise")
    drill.add_argument("scenario", help="scenario YAML file")
    drill.add_argument("--seed", type=int, help=f"override the scenario seed (or set {SEED_ENV})")
    drill.set_defaults(func=cmd_sim_drill)

    # `report` is `sim run` with JSON as its default format and no --trace-out.
    report = sub.add_parser("report", help="run a scenario and emit its report")
    report.add_argument("scenario", help="scenario YAML file")
    report.add_argument("--seed", type=int, help=f"override the scenario seed (or set {SEED_ENV})")
    report.add_argument("--format", choices=("text", "json"), default="json")
    report.set_defaults(func=cmd_sim_run, trace_out=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TokenPoolError as exc:
        print(f"error: {exc.reason}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
