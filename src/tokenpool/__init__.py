"""Deterministic desk-scale model of a token-authenticated HTCondor-style
pool: token minting and verification, per-channel auth policy, a seeded
event simulation of the pilot pipeline, and migration tooling.
"""

from .errors import (
    AuthPolicyError,
    AuthorizationDenied,
    ScenarioError,
    SimulationError,
    TokenError,
    TokenPoolError,
)
from .jose import Token, TokenClaims, TokenHeader, decode_token, encode_token
from .migration import (
    RunResult,
    check_phase_soundness,
    compute_metrics,
    drill_report,
    render_report,
    run_scenario,
)
from .policy import (
    AuthMethod,
    AuthzLevel,
    CompiledPolicy,
    MigrationPhase,
    PolicyTable,
    apply_phase,
    authenticate,
    authorize,
    default_table,
    dominates,
    negotiate_method,
)
from .scenario import Scenario, load_scenario, parse_scenario
from .tokens import (
    IssuerKey,
    SymmetricKeyring,
    TrustDirectory,
    mint_idtoken,
    mint_scitoken,
    revoke_key,
    rotate_key,
    verify_idtoken,
    verify_scitoken,
)

__version__ = "0.1.0"

__all__ = [
    "AuthMethod",
    "AuthPolicyError",
    "AuthorizationDenied",
    "AuthzLevel",
    "CompiledPolicy",
    "IssuerKey",
    "MigrationPhase",
    "PolicyTable",
    "RunResult",
    "Scenario",
    "ScenarioError",
    "SimulationError",
    "SymmetricKeyring",
    "Token",
    "TokenClaims",
    "TokenError",
    "TokenHeader",
    "TokenPoolError",
    "TrustDirectory",
    "apply_phase",
    "authenticate",
    "authorize",
    "check_phase_soundness",
    "compute_metrics",
    "decode_token",
    "default_table",
    "dominates",
    "drill_report",
    "encode_token",
    "load_scenario",
    "mint_idtoken",
    "mint_scitoken",
    "negotiate_method",
    "parse_scenario",
    "render_report",
    "revoke_key",
    "rotate_key",
    "run_scenario",
    "verify_idtoken",
    "verify_scitoken",
]
