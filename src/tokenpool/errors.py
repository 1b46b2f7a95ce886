"""Exception hierarchy shared across the package.

Every failure mode that can show up in a trace record has its own class;
the class name is the stable reason string written to traces and reports.
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


# --- actors / submission outcomes ---

class SubmissionError(TokenPoolError):
    """Base class for pilot submission failures."""


class DeprecatedInterface(SubmissionError):
    """LDAP submission attempted with a factory runtime that dropped it."""


class MismatchedCredential(SubmissionError):
    """No credential kind held by the factory is accepted by the CE."""


class CapacityExceeded(SubmissionError):
    """CE has no free pilot slots."""


class AuthorizationDenied(TokenPoolError):
    """Authenticated peer lacks the required authorization level."""


class UnauthorizedRequestor(TokenPoolError):
    """Token request from an identity the issuer does not serve."""


# --- simulation / scenario ---

class SimulationError(TokenPoolError):
    """Base class for engine-level errors."""


class UnknownTarget(SimulationError):
    """Fault injection names a target that does not exist."""


class ScenarioError(TokenPoolError):
    """Scenario file failed to parse or validate."""
