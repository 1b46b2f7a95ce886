"""Exception hierarchy shared across the package, and the trace reasons.

A failure that is raised writes its class name as the reason in traces
and reports (:attr:`TokenPoolError.reason`).  Outcomes that nothing raises
have a reason string of their own below.  :data:`TRACE_REASONS` is the
closed set of every reason a trace may carry, in ``FAIL:<reason>``
outcomes and ``reason=<reason>`` details.
"""


class TokenPoolError(Exception):
    """Base class for all package errors."""

    @property
    def reason(self) -> str:
        return type(self).__name__


# --- token core ---

class TokenError(TokenPoolError):
    """Base class for token encode/decode/verify failures."""


class MalformedToken(TokenError):
    """Token is not a parseable three-segment JWT, or its claim set does
    not fit the flavor being verified."""


class InvalidClaims(TokenError):
    """Claim set violates a mint-time invariant (e.g. exp <= iat)."""


class AlgKeyMismatch(TokenError):
    """Signing key kind does not match the header algorithm."""


class UnknownKey(TokenError):
    """Key id is not present in the keyring / issuer key set."""


class KeyRevoked(TokenError):
    """Key id exists but has been revoked."""


class DuplicateKid(TokenError):
    """Attempt to add a key under an id that is already present."""


class SignatureInvalid(TokenError):
    """Signature does not verify, or the algorithm cannot be verified."""


class Expired(TokenError):
    """Token expiry lies before now - skew."""


class NotYetValid(TokenError):
    """Token issue time lies after now + skew."""


class UntrustedIssuer(TokenError):
    """Issuer is absent from the trust directory."""


class AudienceMismatch(TokenError):
    """Token audience does not match the verifying audience."""


class InsufficientScope(TokenError):
    """Required capability scopes are not all granted by the token."""


# --- auth policy ---

class AuthPolicyError(TokenPoolError):
    """Base class for policy-level authentication failures."""


class NoCommonMethod(AuthPolicyError):
    """Client and channel share no permitted authentication method."""


class ProxyExpired(AuthPolicyError):
    """Proxy credential has expired."""


class UntrustedCA(AuthPolicyError):
    """Proxy credential is attested by an unknown CA."""


class UnmappedIdentity(AuthPolicyError):
    """Verified subject matches no identity mapping rule."""


class InvalidPolicy(AuthPolicyError):
    """Policy table violates a structural invariant at load time."""


# --- actors ---

class AuthorizationDenied(TokenPoolError):
    """Authenticated peer lacks the required authorization level."""


class UnauthorizedRequestor(TokenPoolError):
    """Token request from an identity the issuer does not serve."""


# --- simulation / scenario ---

class SimulationError(TokenPoolError):
    """Base class for engine-level errors."""


class ScenarioError(TokenPoolError):
    """Scenario file failed to parse or validate."""


# --- trace reasons ---

#: A submission used LDAP, and the factory runtime has dropped it.
DEPRECATED_INTERFACE = "DeprecatedInterface"
#: A CE authenticated the pilot but had no free slot for it.
CAPACITY_EXCEEDED = "CapacityExceeded"
#: The factory held no credential kind the CE accepts.
MISMATCHED_CREDENTIAL = "MismatchedCredential"
#: A CE refused every credential the factory presented for the pilot.
AUTH_REJECTED = "AuthRejected"
#: A pool member was evicted because its key was compromised.
KEY_COMPROMISE = "KeyCompromise"
#: A joined pilot that matched no job in time retired.
IDLE = "idle"

#: Every reason a trace may carry: the failures an authentication, an
#: authorization or a request can raise, and the outcomes above.
TRACE_REASONS = frozenset(
    cls.__name__
    for cls in (
        MalformedToken,
        InvalidClaims,
        UnknownKey,
        KeyRevoked,
        SignatureInvalid,
        Expired,
        NotYetValid,
        UntrustedIssuer,
        AudienceMismatch,
        InsufficientScope,
        NoCommonMethod,
        ProxyExpired,
        UntrustedCA,
        UnmappedIdentity,
        InvalidPolicy,
        AuthorizationDenied,
        UnauthorizedRequestor,
    )
) | {
    DEPRECATED_INTERFACE,
    CAPACITY_EXCEEDED,
    MISMATCHED_CREDENTIAL,
    AUTH_REJECTED,
    KEY_COMPROMISE,
    IDLE,
}
