"""Keyrings, trust directories, and the two token flavors.

Identity tokens (HS256) authenticate pool daemons against named symmetric
keys; capability tokens (Ed25519) grant scoped rights at a target audience
and verify against public keys published per issuer.  Keyring updates are
pure: revoke/rotate return a new keyring, the old value stays intact.
"""

from __future__ import annotations

import enum
import os
import secrets
from dataclasses import dataclass
from types import MappingProxyType
from typing import Collection, Iterable, Mapping

from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import ed25519

from . import jose
from .errors import (
    AudienceMismatch,
    DuplicateKid,
    Expired,
    InsufficientScope,
    InvalidClaims,
    KeyRevoked,
    MalformedToken,
    NotYetValid,
    SignatureInvalid,
    UnknownKey,
    UntrustedIssuer,
)
from .jose import IDTOKEN_ALG, SCITOKEN_ALG, Token, TokenClaims, TokenHeader

DEFAULT_SKEW = 60


class KeyStatus(enum.Enum):
    ACTIVE = "ACTIVE"
    REVOKED = "REVOKED"


#: Bound once: on Python 3.10 and 3.11 a read through the class goes
#: through ``EnumMeta.__getattr__``.
_REVOKED = KeyStatus.REVOKED


@dataclass(frozen=True)
class SymmetricKey:
    secret: bytes
    status: KeyStatus = KeyStatus.ACTIVE


@dataclass(frozen=True)
class SymmetricKeyring:
    """Named symmetric keys for identity-token minting and verification.

    Revoked keys are retained (audit), they just refuse to mint or verify.
    The keyring remembers nothing: every MAC it is asked about is computed.
    ``entries`` is copied into a read-only mapping, so the caller's cannot
    change it.
    """

    entries: Mapping[str, SymmetricKey]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))

    @classmethod
    def from_secrets(cls, secrets_by_kid: Mapping[str, bytes]) -> "SymmetricKeyring":
        return cls({k: SymmetricKey(v) for k, v in secrets_by_kid.items()})

    def lookup(self, kid: str) -> SymmetricKey:
        try:
            return self.entries[kid]
        except KeyError:
            raise UnknownKey(f"no key {kid!r} in keyring") from None

    def active_secret(self, kid: str) -> bytes:
        key = self.lookup(kid)
        if key.status is _REVOKED:
            raise KeyRevoked(f"key {kid!r} is revoked")
        return key.secret

    def check_mac(self, token: Token) -> None:
        """Check that the ACTIVE key ``kid`` made ``token``'s HMAC.

        Raises:
            UnknownKey, KeyRevoked, SignatureInvalid
        """
        secret = self.active_secret(token.header.kid)
        if not jose.hs256_matches(secret, token.signing_input, token.signature):
            raise SignatureInvalid("HMAC mismatch")


def rotate_key(keyring: SymmetricKeyring, new_kid: str, secret: bytes | None = None) -> SymmetricKeyring:
    """Return a keyring extended with a fresh ACTIVE key.

    The secret may be supplied (simulations derive it from the seeded RNG);
    otherwise it is drawn from the OS.
    """
    if new_kid in keyring.entries:
        raise DuplicateKid(f"kid {new_kid!r} already present")
    entries = dict(keyring.entries)
    entries[new_kid] = SymmetricKey(secret if secret is not None else os.urandom(32))
    return SymmetricKeyring(entries)


def revoke_key(keyring: SymmetricKeyring, kid: str) -> SymmetricKeyring:
    """Return a keyring with ``kid`` marked REVOKED (entry retained)."""
    old = keyring.lookup(kid)
    entries = dict(keyring.entries)
    entries[kid] = SymmetricKey(old.secret, KeyStatus.REVOKED)
    return SymmetricKeyring(entries)


@dataclass(frozen=True)
class IssuerKey:
    """An issuer's Ed25519 signing key plus its key id."""

    kid: str
    private_key: ed25519.Ed25519PrivateKey

    @classmethod
    def generate(cls, kid: str, seed: bytes | None = None) -> "IssuerKey":
        if seed is not None:
            if len(seed) != 32:
                raise ValueError("Ed25519 seed must be 32 bytes")
            return cls(kid, ed25519.Ed25519PrivateKey.from_private_bytes(seed))
        return cls(kid, ed25519.Ed25519PrivateKey.generate())

    @property
    def public_bytes(self) -> bytes:
        return self.private_key.public_key().public_bytes(
            serialization.Encoding.Raw, serialization.PublicFormat.Raw
        )


@dataclass(frozen=True)
class TrustDirectory:
    """Issuer URL -> kid -> raw Ed25519 public key, plus allowed audiences.

    An empty audience tuple means the issuer is unrestricted.  The
    directory remembers nothing: every signature it is asked about is
    checked.  Both mappings are copied into read-only ones, so the caller's
    cannot change them.
    """

    issuers: Mapping[str, Mapping[str, bytes]]
    audiences: Mapping[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        issuers = {iss: MappingProxyType(dict(keys)) for iss, keys in self.issuers.items()}
        audiences = {iss: tuple(auds) for iss, auds in self.audiences.items()}
        object.__setattr__(self, "issuers", MappingProxyType(issuers))
        object.__setattr__(self, "audiences", MappingProxyType(audiences))

    @classmethod
    def single_issuer(
        cls, issuer: str, key: IssuerKey, audiences: Iterable[str] = ()
    ) -> "TrustDirectory":
        return cls(issuers={issuer: {key.kid: key.public_bytes}}, audiences={issuer: audiences})

    def verification_key(self, issuer: str, kid: str) -> bytes:
        if issuer not in self.issuers:
            raise UntrustedIssuer(f"issuer {issuer!r} not trusted")
        keys = self.issuers[issuer]
        if kid not in keys:
            raise UnknownKey(f"kid {kid!r} unknown for issuer {issuer!r}")
        return keys[kid]

    def check_signature(self, token: Token) -> None:
        """Check that the key ``kid`` of the issuer ``iss`` signed ``token``.

        Raises:
            UntrustedIssuer, UnknownKey, SignatureInvalid
        """
        public = self.verification_key(token.claims.iss, token.header.kid)
        if not jose.ed25519_matches(public, token.signing_input, token.signature):
            raise SignatureInvalid("Ed25519 signature mismatch")


@dataclass(frozen=True)
class VerifiedIdentity:
    """Result of a successful identity-token verification."""

    subject: str
    authz_limits: frozenset[str]


@dataclass(frozen=True)
class VerifiedCapability:
    """Result of a successful capability-token verification."""

    subject: str
    granted_scopes: frozenset[str]


def _fresh_jti() -> str:
    return secrets.token_hex(8)


def mint_idtoken(
    keyring: SymmetricKeyring,
    kid: str,
    identity: str,
    authz_limits: Iterable[str],
    lifetime: int,
    now: int,
    *,
    issuer: str = "condor-pool",
    audience: str | None = None,
    jti: str | None = None,
) -> Token:
    """Mint an HS256 identity token under an ACTIVE key.

    ``authz_limits`` lists the authorization levels the holder may
    exercise; an empty iterable means unlimited.  Simulations pass an
    explicit ``jti``; the default draws a random one.
    """
    secret = keyring.active_secret(kid)
    claims = TokenClaims(
        sub=identity,
        iss=issuer,
        aud=audience,
        iat=now,
        exp=now + lifetime,
        jti=jti if jti is not None else _fresh_jti(),
        authz_limits=tuple(sorted(authz_limits)),
    )
    return jose.encode_token(TokenHeader(IDTOKEN_ALG, kid), claims, secret)


def mint_scitoken(
    issuer_key: IssuerKey,
    issuer: str,
    subject: str,
    scope: Iterable[str],
    audience: str,
    lifetime: int,
    now: int,
    *,
    jti: str | None = None,
) -> Token:
    """Mint an Ed25519 capability token for ``audience`` with ``scope``."""
    claims = TokenClaims(
        sub=subject,
        iss=issuer,
        aud=audience,
        iat=now,
        exp=now + lifetime,
        jti=jti if jti is not None else _fresh_jti(),
        scope=tuple(scope),
    )
    return jose.encode_token(
        TokenHeader(SCITOKEN_ALG, issuer_key.kid), claims, issuer_key.private_key
    )


def _check_window(claims: TokenClaims, now: int, skew: int = DEFAULT_SKEW) -> None:
    if now > claims.exp + skew:
        raise Expired(f"expired at {claims.exp} (now {now}, skew {skew})")
    if now < claims.iat - skew:
        raise NotYetValid(f"issued at {claims.iat} (now {now}, skew {skew})")


def verify_idtoken(
    token: Token,
    keyring: SymmetricKeyring,
    now: int,
    skew: int = DEFAULT_SKEW,
) -> VerifiedIdentity:
    """Verify a parsed identity token against the keyring.

    Check order: algorithm, typ, flavor, key status, signature, time
    window.  A revoked key fails with KeyRevoked no matter what the
    signature says.  Every check, the HMAC included, runs on every call.

    Raises:
        MalformedToken, UnknownKey, KeyRevoked, SignatureInvalid,
        Expired, NotYetValid
    """
    header, claims = token.header, token.claims
    if header.alg != IDTOKEN_ALG:
        raise SignatureInvalid(f"alg {header.alg!r} not valid for an identity token")
    if header.typ != "JWT":
        raise MalformedToken(f"unexpected typ {header.typ!r}")
    if not claims.is_idtoken:
        raise MalformedToken("capability claims presented for identity verification")
    keyring.check_mac(token)
    _check_window(claims, now, skew)
    return VerifiedIdentity(
        subject=claims.sub,
        authz_limits=frozenset(claims.authz_limits or ()),
    )


def verify_scitoken(
    token: Token,
    trust: TrustDirectory,
    expected_audience: str,
    required_scopes: Collection[str],
    now: int,
    skew: int = DEFAULT_SKEW,
) -> VerifiedCapability:
    """Verify a parsed capability token: algorithm, flavor, issuer trust,
    signature, window, audience, and scope coverage, in that order.

    Every check, the signature included, runs on every call.

    Raises:
        MalformedToken, UntrustedIssuer, UnknownKey, SignatureInvalid,
        Expired, NotYetValid, AudienceMismatch, InsufficientScope
    """
    header, claims = token.header, token.claims
    if header.alg != SCITOKEN_ALG:
        raise SignatureInvalid(f"alg {header.alg!r} not valid for a capability token")
    if not claims.is_scitoken:
        raise MalformedToken("identity claims presented for capability verification")
    if claims.iss is None:
        raise MalformedToken("capability token lacks an issuer claim")
    trust.check_signature(token)
    _check_window(claims, now, skew)
    if claims.aud != expected_audience:
        raise AudienceMismatch(f"token aud {claims.aud!r} != {expected_audience!r}")
    allowed = trust.audiences.get(claims.iss, ())
    if allowed and claims.aud not in allowed:
        raise AudienceMismatch(f"audience {claims.aud!r} not allowed for issuer")
    granted = frozenset(claims.scope or ())
    if not granted.issuperset(required_scopes):
        missing = sorted(set(required_scopes) - granted)
        raise InsufficientScope(f"missing scopes: {' '.join(missing)}")
    return VerifiedCapability(subject=claims.sub, granted_scopes=granted)
