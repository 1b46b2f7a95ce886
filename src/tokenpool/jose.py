"""Compact JWT wire format: canonical JSON, base64url, sign and parse.

Two algorithms are supported: HS256 (HMAC-SHA256 over a shared secret,
used for pool identity tokens) and EdDSA (Ed25519, used for issuer-signed
capability tokens).  Claim serialization is canonical -- keys sorted,
no whitespace -- so encoding is byte-deterministic and tokens can be
compared or hashed directly.

Parsing (:func:`decode_token`) is strictly separated from verification:
it rejects malformed structure and wrongly typed values but accepts unknown
algorithms and absent claims, deferring judgement to the verify layer.  It
returns a :class:`Token`, which keeps its compact string and reads its
signature, and the bytes that signature covers, off it.  Signing
(:func:`encode_token`) returns the same :class:`Token`, built from what it
signed, so a token made here is never parsed.  Tokens of one key share the
strings, the parsed header and the limit and scope tuples they repeat.
"""

from __future__ import annotations

import binascii
import hmac
import json
import sys
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric import ed25519

from .errors import AlgKeyMismatch, InvalidClaims, MalformedToken

IDTOKEN_ALG = "HS256"
SCITOKEN_ALG = "EdDSA"


_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"
_TO_STD = bytes.maketrans(b"-_", b"+/")
_TO_URLSAFE = bytes.maketrans(b"+/", b"-_")
#: By segment length mod 4: the padding to add, and the last characters
#: whose unused low bits are zero (``None``: any character, or none valid).
_TAILS = ((b"", None), None, (b"==", _ALPHABET[::16]), (b"=", _ALPHABET[::4]))


def b64url_encode(data: bytes) -> str:
    """Base64url without padding."""
    return binascii.b2a_base64(data, newline=False).translate(_TO_URLSAFE, b"=").decode("ascii")


def b64url_decode(segment: str) -> bytes:
    """Strict base64url decode: any character outside the alphabet fails,
    and so does a final character whose unused low bits are not zero, so
    each byte string has exactly one accepted segment."""
    try:
        raw = segment.encode("ascii")
    except UnicodeEncodeError:
        raise MalformedToken("segment holds non-base64url characters") from None
    if raw.translate(None, _ALPHABET):
        raise MalformedToken("segment holds non-base64url characters")
    tail = _TAILS[len(raw) % 4]
    if tail is None:
        raise MalformedToken("segment length invalid for base64url")
    pad, clean_last = tail
    if clean_last is not None and raw[-1] not in clean_last:
        raise MalformedToken("segment's last character has non-zero unused bits")
    return binascii.a2b_base64(raw.translate(_TO_STD) + pad)


#: Canonical serialization: sorted keys, no whitespace, ASCII escapes.  One
#: encoder for every call; ``json.dumps`` would build one per call.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@dataclass(frozen=True, slots=True)
class TokenHeader:
    """JOSE header. ``alg`` is carried verbatim; unsupported values are
    only rejected at verification time, never at parse time."""

    alg: str
    kid: str
    typ: str = "JWT"

    def to_json_dict(self) -> dict:
        return {"alg": self.alg, "kid": self.kid, "typ": self.typ}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TokenHeader":
        return cls(
            alg=sys.intern(_typed(obj, "alg", str, "")),
            kid=sys.intern(_typed(obj, "kid", str, "")),
            typ=sys.intern(_typed(obj, "typ", str, "")),
        )


@dataclass(frozen=True, slots=True)
class TokenClaims:
    """Claim set for both token flavors.

    ``authz_limits`` marks an identity token (empty tuple = unlimited);
    ``scope`` marks a capability token.  ``None`` means the claim is
    absent from the serialized form.  Construction does not validate;
    call :meth:`validate` (encode does) so that decode can represent
    arbitrary parsed claim sets.
    """

    sub: str = ""
    iss: str | None = None
    aud: str | None = None
    iat: int = 0
    exp: int = 0
    jti: str = ""
    scope: tuple[str, ...] | None = None
    authz_limits: tuple[str, ...] | None = None

    def validate(self) -> None:
        """Raise InvalidClaims on any mint-time invariant violation."""
        if not self.sub:
            raise InvalidClaims("sub must be non-empty")
        if not self.jti:
            raise InvalidClaims("jti must be non-empty")
        if self.exp <= self.iat:
            raise InvalidClaims(f"exp ({self.exp}) must be > iat ({self.iat})")
        if self.scope is not None and self.authz_limits is not None:
            raise InvalidClaims("scope and authz_limits are mutually exclusive")
        if self.scope is not None:
            if not self.scope:
                raise InvalidClaims("scope must be non-empty")
            if not self.aud:
                raise InvalidClaims("capability tokens require an audience")

    def to_json_dict(self) -> dict:
        out: dict = {}
        if self.iss is not None:
            out["iss"] = self.iss
        if self.sub:
            out["sub"] = self.sub
        if self.aud is not None:
            out["aud"] = self.aud
        out["iat"] = self.iat
        out["exp"] = self.exp
        if self.jti:
            out["jti"] = self.jti
        if self.scope is not None:
            out["scope"] = " ".join(self.scope)
        if self.authz_limits is not None:
            out["authz_limits"] = sorted(self.authz_limits)
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TokenClaims":
        iss = _typed(obj, "iss", str, None)
        aud = _typed(obj, "aud", str, None)
        scope = _typed(obj, "scope", str, None)
        limits = _typed(obj, "authz_limits", list, None)
        if limits is not None and not all(type(x) is str for x in limits):
            raise MalformedToken("authz_limits must be a list of strings")
        return cls(
            sub=_typed(obj, "sub", str, ""),
            iss=sys.intern(iss) if iss is not None else None,
            aud=sys.intern(aud) if aud is not None else None,
            iat=_typed(obj, "iat", int, 0),
            exp=_typed(obj, "exp", int, 0),
            jti=_typed(obj, "jti", str, ""),
            scope=_shared(tuple(map(sys.intern, scope.split()))) if scope is not None else None,
            authz_limits=_shared(tuple(sorted(map(sys.intern, limits)))) if limits is not None else None,
        )

    @property
    def is_idtoken(self) -> bool:
        return self.scope is None

    @property
    def is_scitoken(self) -> bool:
        return self.scope is not None and self.authz_limits is None


SigningKey = bytes | ed25519.Ed25519PrivateKey


def _sign(alg: str, key: SigningKey, signing_input: bytes) -> bytes:
    if alg == IDTOKEN_ALG:
        if not isinstance(key, bytes):
            raise AlgKeyMismatch(f"{alg} requires a symmetric secret")
        return hs256_signature(key, signing_input)
    if alg == SCITOKEN_ALG:
        if not isinstance(key, ed25519.Ed25519PrivateKey):
            raise AlgKeyMismatch(f"{alg} requires an Ed25519 private key")
        return key.sign(signing_input)
    raise AlgKeyMismatch(f"unsupported algorithm {alg!r}")


def encode_token(header: TokenHeader, claims: TokenClaims, key: SigningKey) -> Token:
    """Serialize and sign a token, and return it parsed.

    The wire form is ``b64url(header) . b64url(claims) . b64url(signature)``
    with canonical JSON in the first two segments; identical inputs always
    produce identical bytes.  The returned token's header and claims are
    read from the JSON objects just serialised, under the checks and
    sharing a parse applies, so it equals ``decode_token(token.compact)``.

    Raises:
        InvalidClaims: claim invariants violated.
        AlgKeyMismatch: key kind does not fit ``header.alg``.
        MalformedToken: a value a parse would refuse, such as ``iat=True``.
    """
    if not header.kid:
        raise InvalidClaims("header kid must be non-empty")
    claims.validate()
    claims_obj = claims.to_json_dict()
    try:
        header_b64 = _HEADERS.get(header)
    except TypeError:  # an unhashable field, which the parse below refuses
        header_b64 = None
    if header_b64 is None:
        header_b64 = b64url_encode(canonical_json(header.to_json_dict()).encode())
    signing_input = header_b64 + "." + b64url_encode(canonical_json(claims_obj).encode())
    signature = _sign(header.alg, key, signing_input.encode("ascii"))
    signed = _HEADERS.get(header_b64)
    if signed is None:
        signed = TokenHeader.from_json_dict(header.to_json_dict())
    token = object.__new__(Token)
    object.__setattr__(token, "compact", signing_input + "." + b64url_encode(signature))
    _settle(token, header_b64, signed, TokenClaims.from_json_dict(claims_obj))
    _HEADERS.setdefault(signed, header_b64)
    return token


@dataclass(frozen=True, slots=True)
class Token:
    """A compact token, kept with its wire form.

    ``header`` and ``claims`` are parsed from ``compact``, or, for a token
    :func:`encode_token` returns, built from what it signed; either way they
    equal a parse of ``compact``.  ``signing_input`` is its first two
    segments exactly as received, and ``signature`` its third segment
    decoded.  The compact string is the only constructor argument: neither
    ``Token(...)`` nor ``dataclasses.replace`` can pair claims with bytes
    they were not parsed from, so the claims a verifier reads are the claims
    under the signature it checks.  Tokens compare and hash by their wire
    form.

    Raises:
        MalformedToken
    """

    compact: str
    header: TokenHeader = field(init=False, compare=False)
    claims: TokenClaims = field(init=False, compare=False)

    def __post_init__(self) -> None:
        parts = self.compact.split(".")
        if len(parts) != 3:
            raise MalformedToken(f"expected 3 segments, got {len(parts)}")
        header_b64, claims_b64, sig_b64 = parts
        header = _HEADERS.get(header_b64)
        if header is None:
            header = TokenHeader.from_json_dict(_parse_json_object(header_b64, "header"))
        claims = TokenClaims.from_json_dict(_parse_json_object(claims_b64, "claims"))
        b64url_decode(sig_b64)  # refused here; decoded again when a verifier asks
        _settle(self, header_b64, header, claims)

    def __hash__(self) -> int:
        return hash(self.compact)

    @property
    def signing_input(self) -> bytes:
        """The bytes the signature covers: the first two segments as received."""
        # Both segments passed the base64url alphabet check, so this is ASCII.
        return self.compact[: self.compact.rindex(".")].encode("ascii")

    @property
    def signature(self) -> bytes:
        """The signature: the third segment, decoded when a verifier asks."""
        return b64url_decode(self.compact[self.compact.rindex(".") + 1 :])


def decode_token(token: str) -> Token:
    """Parse a compact token, text from outside, without verifying anything.

    Rejects structural problems: wrong segment count, bad base64url, bad
    JSON, non-object JSON, and header or claim values of the wrong JSON
    type.  Unknown algorithms and absent claims parse fine.

    Raises:
        MalformedToken
    """
    return Token(token)


def hs256_signature(secret: bytes, signing_input: bytes) -> bytes:
    return hmac.digest(secret, signing_input, "sha256")


def hs256_matches(secret: bytes, signing_input: bytes, signature: bytes) -> bool:
    return hmac.compare_digest(hs256_signature(secret, signing_input), signature)


def ed25519_matches(public_key_bytes: bytes, signing_input: bytes, signature: bytes) -> bool:
    try:
        key = ed25519.Ed25519PublicKey.from_public_bytes(public_key_bytes)
        key.verify(signature, signing_input)
        return True
    except (InvalidSignature, ValueError):
        return False


#: What tokens of one key repeat, held once: the parsed header by its exact
#: segment (a header is a function of those characters alone), the
#: canonical segment of each header a mint signed by that header, and each
#: distinct scope or limit tuple.  Only a token that parsed or was minted
#: whole adds an entry, so both grow with the distinct headers and name sets
#: of accepted tokens, never with refused input.
_HEADERS: dict[str | TokenHeader, TokenHeader | str] = {}
_NAMES: dict[tuple[str, ...], tuple[str, ...]] = {}


def _shared(names: tuple[str, ...]) -> tuple[str, ...]:
    return _NAMES.get(names, names)


def _settle(token: Token, header_b64: str, header: TokenHeader, claims: TokenClaims) -> None:
    """Give ``token`` its header and claims.  The whole token has parsed or
    been signed, so its parts may be shared from now on."""
    _HEADERS.setdefault(header_b64, header)
    for names in (claims.scope, claims.authz_limits):
        if names is not None:
            _NAMES.setdefault(names, names)
    set_field = object.__setattr__
    set_field(token, "header", header)
    set_field(token, "claims", claims)


_ABSENT = object()


def _typed(obj: dict, key: str, kind: type, default):
    """``obj[key]`` if it has exactly JSON type ``kind``, ``default`` if absent.

    The check is exact, so ``true`` is not an integer and ``null`` is not
    a string.
    """
    value = obj.get(key, _ABSENT)
    if value is _ABSENT:
        return default
    if type(value) is not kind:
        raise MalformedToken(f"{key} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _parse_json_object(segment: str, what: str) -> dict:
    # RFC 7515 and 7519 allow UTF-8 only; json.loads(bytes) would also take
    # UTF-16 and UTF-32, a BOM and encoded surrogates.
    try:
        obj = json.loads(b64url_decode(segment).decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedToken(f"bad {what} JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedToken(f"{what} is not a JSON object")
    return obj
