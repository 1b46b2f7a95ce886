"""Wire format: canonical JSON, base64url strictness, sign/parse split."""

import base64
import binascii
import contextlib
import dataclasses
import hashlib
import hmac
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenpool import jose
from tokenpool.errors import AlgKeyMismatch, InvalidClaims, MalformedToken
from tokenpool.jose import TokenClaims, TokenHeader

from cryptography.hazmat.primitives.asymmetric import ed25519


def oracle_jwt(header: dict, claims: dict, key: bytes | ed25519.Ed25519PrivateKey) -> str:
    """Reference encoder from the standard library and Ed25519 signing,
    sharing no code with the package: HS256 for a secret, EdDSA for a key."""

    def seg(obj: dict) -> str:
        raw = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
        return base64.urlsafe_b64encode(raw).rstrip(b"=").decode("ascii")

    signing = seg(header) + "." + seg(claims)
    if isinstance(key, bytes):
        sig = hmac.new(key, signing.encode("ascii"), hashlib.sha256).digest()
    else:
        sig = key.sign(signing.encode("ascii"))
    return signing + "." + base64.urlsafe_b64encode(sig).rstrip(b"=").decode("ascii")


# Expected strings were computed with the reference encoder above before the
# package existed and are frozen here; the package must reproduce them
# byte for byte.
GOLDEN_VECTORS = [
    (
        {"alg": "HS256", "kid": "a", "typ": "JWT"},
        {"exp": 60, "iat": 0, "jti": "j", "sub": "x"},
        b"secret",
        "eyJhbGciOiJIUzI1NiIsImtpZCI6ImEiLCJ0eXAiOiJKV1QifQ."
        "eyJleHAiOjYwLCJpYXQiOjAsImp0aSI6ImoiLCJzdWIiOiJ4In0."
        "kUkTGo5bwdWpuUphX7sU544t0QlGDVKO5lostzIDdk0",
    ),
    (
        {"alg": "HS256", "kid": "pool1", "typ": "JWT"},
        {
            "authz_limits": ["ADVERTISE"],
            "exp": 2000,
            "iat": 1000,
            "iss": "cmspool",
            "jti": "t1",
            "sub": "startd@siteA",
        },
        b"k",
        "eyJhbGciOiJIUzI1NiIsImtpZCI6InBvb2wxIiwidHlwIjoiSldUIn0."
        "eyJhdXRoel9saW1pdHMiOlsiQURWRVJUSVNFIl0sImV4cCI6MjAwMCwiaWF0IjoxMDAwLCJpc3Mi"
        "OiJjbXNwb29sIiwianRpIjoidDEiLCJzdWIiOiJzdGFydGRAc2l0ZUEifQ."
        "zYPJeBGipqc3255OBJQUbLcYIvtj7Ep7jmNP5YZMSEY",
    ),
    (
        {"alg": "HS256", "kid": "k2", "typ": "JWT"},
        {
            "aud": "collector.cmspool",
            "authz_limits": ["ADVERTISE", "DAEMON"],
            "exp": 7200,
            "iat": 3600,
            "iss": "cmspool",
            "jti": "9f",
            "sub": "schedd@cern",
        },
        b"0123456789abcdef",
        "eyJhbGciOiJIUzI1NiIsImtpZCI6ImsyIiwidHlwIjoiSldUIn0."
        "eyJhdWQiOiJjb2xsZWN0b3IuY21zcG9vbCIsImF1dGh6X2xpbWl0cyI6WyJBRFZFUlRJU0UiLCJE"
        "QUVNT04iXSwiZXhwIjo3MjAwLCJpYXQiOjM2MDAsImlzcyI6ImNtc3Bvb2wiLCJqdGkiOiI5ZiIs"
        "InN1YiI6InNjaGVkZEBjZXJuIn0."
        "EKhEO1E7vz8BLfGHnVwxDTYyTyej0KYc9OXlq7EqKOs",
    ),
    (
        {"alg": "HS256", "kid": "root", "typ": "JWT"},
        {
            "authz_limits": [],
            "exp": 120,
            "iat": 60,
            "iss": "p",
            "jti": "zz",
            "sub": "admin@p",
        },
        b"topsecretkey0001",
        "eyJhbGciOiJIUzI1NiIsImtpZCI6InJvb3QiLCJ0eXAiOiJKV1QifQ."
        "eyJhdXRoel9saW1pdHMiOltdLCJleHAiOjEyMCwiaWF0Ijo2MCwiaXNzIjoicCIsImp0aSI6Inp6"
        "Iiwic3ViIjoiYWRtaW5AcCJ9."
        "L6M1oxYwK0QszcjDxla4G14F9mPaoe9bx6mQW4cMV3o",
    ),
]


def test_golden_vectors_match_frozen_and_oracle():
    for header, claims, secret, expected in GOLDEN_VECTORS:
        assert oracle_jwt(header, claims, secret) == expected
        produced = jose.encode_token(
            TokenHeader.from_json_dict(header),
            TokenClaims.from_json_dict(claims),
            secret,
        )
        assert produced.compact == expected


def test_golden_vectors_round_trip_decode():
    for header, claims, secret, expected in GOLDEN_VECTORS:
        token = jose.decode_token(expected)
        assert token.header.to_json_dict() == header
        assert token.claims.to_json_dict() == claims
        assert jose.hs256_matches(secret, token.signing_input, token.signature)


def test_b64url_round_trip():
    rng = random.Random(7)
    for length in (0, 1, 2, 3, 31, 32, 64, 255):
        blob = rng.randbytes(length)
        assert jose.b64url_decode(jose.b64url_encode(blob)) == blob


def test_b64url_encode_has_no_padding_or_plus_slash():
    for length in range(1, 10):
        out = jose.b64url_encode(b"\xff" * length)
        assert "=" not in out and "+" not in out and "/" not in out


@pytest.mark.parametrize(
    "segment",
    [
        "ab+d",  # '+' is standard base64, not base64url
        "ab/d",  # likewise '/'
        "ab=d",  # padding mid-segment
        "a.b",  # '.' never valid inside a segment
        "abcde",  # len % 4 == 1 cannot come from any byte string
        "ab d",  # whitespace
        "ab\nd",
        "QR",  # b"A" is "QQ"; the last character's 4 unused bits must be zero
        "QUF",  # b"AA" is "QUE"; likewise its 2 unused bits
    ],
)
def test_b64url_decode_rejects_nonstrict_input(segment):
    with pytest.raises(MalformedToken):
        jose.b64url_decode(segment)


B64URL_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"


def last_character_variants(segment: str) -> list[str]:
    """``segment`` with its last character changed only in its unused bits."""
    unused = {2: 4, 3: 2}[len(segment) % 4]
    index = B64URL_ALPHABET.index(segment[-1])
    base = index >> unused << unused
    return [
        segment[:-1] + B64URL_ALPHABET[base + low]
        for low in range(1 << unused)
        if base + low != index
    ]


def reference_b64url_decode(segment: str) -> bytes:
    """The strict decoder as written over ``base64.b64decode``: the reference
    ``jose.b64url_decode`` must agree with, in bytes or in refusal."""
    if not set(segment) <= set(B64URL_ALPHABET):
        raise MalformedToken("segment holds non-base64url characters")
    pad = -len(segment) % 4
    if pad == 3:
        raise MalformedToken("segment length invalid for base64url")
    try:
        raw = base64.b64decode(segment + "=" * pad, altchars=b"-_", validate=True)
    except (binascii.Error, ValueError) as exc:
        raise MalformedToken(f"bad base64url segment: {exc}") from exc
    if pad and base64.urlsafe_b64encode(raw).rstrip(b"=").decode("ascii") != segment:
        raise MalformedToken("segment's last character has non-zero unused bits")
    return raw


#: Characters a segment must not hold: the standard alphabet and padding,
#: whitespace, the segment separator and non-ASCII (a lone surrogate too).
SEGMENT_NOISE = "+/= \t\n.\u00e9\u00ff\u2028\U0001d538\ud800"


def segments(tail: int) -> st.SearchStrategy[str]:
    """Text whose length is ``tail`` mod 4, in the alphabet or mixed with noise."""

    def of(chars: str) -> st.SearchStrategy[str]:
        return st.integers(0, 4).flatmap(
            lambda k: st.text(st.sampled_from(chars), min_size=4 * k + tail, max_size=4 * k + tail)
        )

    return of(B64URL_ALPHABET) | of(B64URL_ALPHABET + SEGMENT_NOISE)


@pytest.mark.parametrize("tail", range(4))
@given(data=st.data())
def test_b64url_decode_agrees_with_the_reference(tail, data):
    segment = data.draw(segments(tail))
    try:
        want = reference_b64url_decode(segment)
    except MalformedToken:
        with pytest.raises(MalformedToken):
            jose.b64url_decode(segment)
    else:
        assert jose.b64url_decode(segment) == want


@given(blob=st.binary(max_size=70))
def test_b64url_encode_is_unpadded_urlsafe_base64(blob):
    assert jose.b64url_encode(blob) == base64.urlsafe_b64encode(blob).rstrip(b"=").decode()
    assert jose.b64url_decode(jose.b64url_encode(blob)) == blob


ED_KEY = ed25519.Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
#: Any text but lone surrogates.
ANY_TEXT = st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=12)
#: Lists of scope words or limit names: text with no whitespace.
WORDS = st.lists(
    st.text(st.characters(exclude_categories=("Cs", "Cc", "Zs", "Zl", "Zp")), min_size=1, max_size=8),
    max_size=4,
)


@st.composite
def claim_sets(draw) -> tuple[dict, dict, bytes | ed25519.Ed25519PrivateKey]:
    """(header JSON, claims JSON, signing key) of an identity or a capability token."""
    capability = draw(st.booleans())
    iat = draw(st.integers(0, 2**40))
    claims = {"sub": draw(ANY_TEXT), "iat": iat, "exp": iat + draw(st.integers(1, 2**31)), "jti": draw(ANY_TEXT)}
    if draw(st.booleans()):
        claims["iss"] = draw(ANY_TEXT)
    if capability or draw(st.booleans()):
        claims["aud"] = draw(ANY_TEXT)
    if capability:
        claims["scope"] = " ".join(draw(WORDS.filter(bool)))
    elif draw(st.booleans()):
        claims["authz_limits"] = sorted(draw(WORDS))
    header = {"alg": "EdDSA" if capability else "HS256", "kid": draw(ANY_TEXT), "typ": "JWT"}
    return header, claims, ED_KEY if capability else draw(st.binary(max_size=40))


@given(minted=claim_sets())
def test_encode_token_matches_the_reference_and_decodes_back(minted):
    header, claims, key = minted
    parsed_claims = TokenClaims(
        sub=claims["sub"],
        iss=claims.get("iss"),
        aud=claims.get("aud"),
        iat=claims["iat"],
        exp=claims["exp"],
        jti=claims["jti"],
        scope=tuple(claims["scope"].split(" ")) if "scope" in claims else None,
        authz_limits=tuple(claims["authz_limits"]) if "authz_limits" in claims else None,
    )
    parsed_header = TokenHeader(header["alg"], header["kid"])
    token = jose.encode_token(parsed_header, parsed_claims, key)
    assert token.compact == oracle_jwt(header, claims, key)
    assert (token.header, token.claims) == (parsed_header, parsed_claims)
    assert token.header.to_json_dict() == header and token.claims.to_json_dict() == claims


def test_each_signature_has_exactly_one_wire_form():
    claims = TokenClaims(sub="s", iss="i", aud="ce", iat=1, exp=2, jti="j", scope=("x",))
    ed = jose.encode_token(
        TokenHeader("EdDSA", "k"), claims, ed25519.Ed25519PrivateKey.from_private_bytes(b"\x01" * 32)
    ).compact
    hs = GOLDEN_VECTORS[0][3]
    for token, variants in ((ed, 15), (hs, 3)):
        signing_input, sig = token.rsplit(".", 1)
        assert jose.decode_token(token).signature == jose.b64url_decode(sig)
        forms = last_character_variants(sig)
        assert len(forms) == variants
        for form in forms:
            with pytest.raises(MalformedToken):
                jose.decode_token(f"{signing_input}.{form}")


def test_canonical_json_is_sorted_and_tight():
    assert jose.canonical_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'


def test_encode_is_deterministic():
    header = TokenHeader("HS256", "kid-1")
    claims = TokenClaims(sub="s", iat=10, exp=20, jti="x", authz_limits=("READ",))
    assert jose.encode_token(header, claims, b"sec") == jose.encode_token(
        header, claims, b"sec"
    )


def test_claims_serialization_sorts_limits_and_splits_scope():
    claims = TokenClaims.from_json_dict(
        {"sub": "s", "iat": 1, "exp": 2, "jti": "j", "authz_limits": ["WRITE", "READ"]}
    )
    assert claims.authz_limits == ("READ", "WRITE")
    cap = TokenClaims.from_json_dict(
        {"sub": "s", "iat": 1, "exp": 2, "jti": "j", "aud": "a", "scope": "x.y z"}
    )
    assert cap.scope == ("x.y", "z")
    assert cap.to_json_dict()["scope"] == "x.y z"


def test_flavor_predicates():
    idt = TokenClaims(sub="s", iat=1, exp=2, jti="j", authz_limits=("READ",))
    cap = TokenClaims(sub="s", iat=1, exp=2, jti="j", aud="a", scope=("x",))
    assert idt.is_idtoken and not idt.is_scitoken
    assert cap.is_scitoken and not cap.is_idtoken
    bare = TokenClaims(sub="s", iat=1, exp=2, jti="j")
    assert bare.is_idtoken  # no scope claim means identity flavor


@pytest.mark.parametrize(
    "claims",
    [
        TokenClaims(sub="", iat=1, exp=2, jti="j"),
        TokenClaims(sub="s", iat=1, exp=2, jti=""),
        TokenClaims(sub="s", iat=5, exp=5, jti="j"),
        TokenClaims(sub="s", iat=5, exp=4, jti="j"),
        TokenClaims(sub="s", iat=1, exp=2, jti="j", scope=("x",), authz_limits=("READ",)),
        TokenClaims(sub="s", iat=1, exp=2, jti="j", aud="a", scope=()),
        TokenClaims(sub="s", iat=1, exp=2, jti="j", scope=("x",)),  # no audience
    ],
)
def test_claim_invariants_rejected_at_mint(claims):
    with pytest.raises(InvalidClaims):
        jose.encode_token(TokenHeader("HS256", "k"), claims, b"sec")


def test_empty_kid_rejected_at_mint():
    claims = TokenClaims(sub="s", iat=1, exp=2, jti="j")
    with pytest.raises(InvalidClaims):
        jose.encode_token(TokenHeader("HS256", ""), claims, b"sec")


def test_sign_rejects_wrong_key_kind_and_unknown_alg():
    claims = TokenClaims(sub="s", iat=1, exp=2, jti="j")
    ed_key = ed25519.Ed25519PrivateKey.generate()
    with pytest.raises(AlgKeyMismatch):
        jose.encode_token(TokenHeader("HS256", "k"), claims, ed_key)
    with pytest.raises(AlgKeyMismatch):
        jose.encode_token(TokenHeader("EdDSA", "k"), claims, b"not-a-key")
    with pytest.raises(AlgKeyMismatch):
        jose.encode_token(TokenHeader("RS256", "k"), claims, b"sec")


def test_signature_is_read_off_the_wire_and_checked_at_parse():
    # The token keeps no decoded signature, yet a bad third segment is
    # still refused when the token is parsed, not when it is verified.
    for _, _, _, compact in GOLDEN_VECTORS:
        sig = compact.rsplit(".", 1)[1]
        assert jose.decode_token(compact).signature == jose.b64url_decode(sig)
    signing_input, sig = GOLDEN_VECTORS[0][3].rsplit(".", 1)
    assert len(sig) % 4 == 3
    for bad in (
        sig[:-1] + "+",  # outside the base64url alphabet
        last_character_variants(sig)[0],  # non-zero unused bits
        sig + "AA",  # length 1 mod 4
    ):
        with pytest.raises(MalformedToken):
            jose.decode_token(f"{signing_input}.{bad}")


def test_decode_rejects_wrong_segment_count():
    with pytest.raises(MalformedToken):
        jose.decode_token("onlyone")
    with pytest.raises(MalformedToken):
        jose.decode_token("a.b")
    with pytest.raises(MalformedToken):
        jose.decode_token("a.b.c.d")


def test_decode_rejects_bad_json_and_non_objects():
    good = jose.b64url_encode(b'{"alg":"HS256","kid":"k","typ":"JWT"}')
    sig = jose.b64url_encode(b"\x00" * 32)
    with pytest.raises(MalformedToken):
        jose.decode_token(f"{good}.{jose.b64url_encode(b'not json')}.{sig}")
    with pytest.raises(MalformedToken):
        jose.decode_token(f"{good}.{jose.b64url_encode(b'[1,2]')}.{sig}")
    with pytest.raises(MalformedToken):
        jose.decode_token(f"{jose.b64url_encode(b'42')}.{good}.{sig}")


ID_HEADER = b'{"alg":"HS256","kid":"k","typ":"JWT"}'
ID_CLAIMS = b'"sub":"s","iat":1,"exp":2,"jti":"j"'

#: (header JSON, claims JSON) pairs with one value of the wrong JSON type.
WRONGLY_TYPED = [
    (ID_HEADER, b'{"sub":"s","iat":"soon","exp":2,"jti":"j"}'),
    (ID_HEADER, b'{"sub":null,"iat":1,"exp":2,"jti":"j"}'),
    (ID_HEADER, b'{"sub":"s","iat":true,"exp":2,"jti":"j"}'),
    (ID_HEADER, b'{"sub":"s","iat":1,"exp":1.9,"jti":"j"}'),
    (ID_HEADER, b'{"sub":"s","iat":"100","exp":200,"jti":"j"}'),
    (ID_HEADER, b'{' + ID_CLAIMS + b',"aud":5}'),
    (ID_HEADER, b'{' + ID_CLAIMS + b',"authz_limits":"ADVERTISE"}'),
    (ID_HEADER, b'{' + ID_CLAIMS + b',"authz_limits":["READ",1]}'),
    (b'{"alg":"EdDSA","kid":"k","typ":"JWT"}', b'{' + ID_CLAIMS + b',"aud":"a","scope":["a","b"]}'),
    (b'{"alg":"HS256","kid":3,"typ":"JWT"}', b'{' + ID_CLAIMS + b'}'),
    (b'{"alg":null,"kid":"k","typ":"JWT"}', b'{' + ID_CLAIMS + b'}'),
]


def test_decode_rejects_wrongly_typed_claim_values():
    sig = jose.b64url_encode(b"\x00" * 32)
    for header_json, claims_json in WRONGLY_TYPED:
        header = jose.b64url_encode(header_json)
        claims = jose.b64url_encode(claims_json)
        with pytest.raises(MalformedToken):
            jose.decode_token(f"{header}.{claims}.{sig}")
    # The well-typed form of the same claims parses.
    header, claims = jose.b64url_encode(ID_HEADER), jose.b64url_encode(b"{" + ID_CLAIMS + b"}")
    assert jose.decode_token(f"{header}.{claims}.{sig}").claims == TokenClaims(sub="s", iat=1, exp=2, jti="j")


#: A JSON text in a form other than plain UTF-8.  ``json.loads(bytes)``
#: takes every one of them; RFC 7515 and RFC 7519 allow only UTF-8.
NOT_UTF8 = {
    "utf-16": lambda text: text.encode("utf-16"),
    "utf-16-be": lambda text: text.encode("utf-16-be"),
    "utf-32": lambda text: text.encode("utf-32"),
    "utf-32-le": lambda text: text.encode("utf-32-le"),
    "bom": lambda text: text.encode("utf-8-sig"),
    # The first string value gains a surrogate, encoded as UTF-8 bytes.
    "surrogate": lambda text: text.replace(':"', ':"\ud800', 1).encode("utf-8", "surrogatepass"),
}


@pytest.mark.parametrize("form", NOT_UTF8)
@pytest.mark.parametrize("segment", ["header", "claims"])
def test_decode_takes_utf8_json_only(segment, form):
    texts = {"header": ID_HEADER.decode(), "claims": "{" + ID_CLAIMS.decode() + "}"}
    parts = {name: jose.b64url_encode(text.encode()) for name, text in texts.items()}
    sig = jose.b64url_encode(b"\x00" * 32)
    assert jose.decode_token(f"{parts['header']}.{parts['claims']}.{sig}")
    parts[segment] = jose.b64url_encode(NOT_UTF8[form](texts[segment]))
    with pytest.raises(MalformedToken, match=f"bad {segment} JSON"):
        jose.decode_token(f"{parts['header']}.{parts['claims']}.{sig}")


def test_decode_leaves_absent_claims_at_their_defaults():
    header = jose.b64url_encode(b'{"alg":"HS256"}')
    claims = jose.b64url_encode(b"{}")
    token = jose.decode_token(f"{header}.{claims}.")
    assert token.header == TokenHeader(alg="HS256", kid="", typ="")
    assert token.claims == TokenClaims()


def test_decode_accepts_unknown_algorithms():
    # Parsing is judgement-free; the verify layer rejects the algorithm.
    header = jose.b64url_encode(b'{"alg":"none","kid":"k","typ":"JWT"}')
    claims = jose.b64url_encode(b'{"sub":"s","iat":1,"exp":2,"jti":"j"}')
    sig = jose.b64url_encode(b"")
    token = jose.decode_token(f"{header}.{claims}.{sig}")
    assert token.header.alg == "none"
    assert token.signature == b""


def test_signing_input_covers_raw_transmitted_segments():
    secret, token = GOLDEN_VECTORS[0][2:]
    head, _, sig_seg = token.rpartition(".")
    assert jose.decode_token(token).signing_input == head.encode("ascii")
    # The signature is over the exact bytes on the wire, so re-encoding the
    # claims differently (e.g. unsorted keys) must break verification even
    # when the JSON content is identical.
    header_seg, claims_seg = head.split(".")
    obj = json.loads(jose.b64url_decode(claims_seg))
    reordered = json.dumps(obj, sort_keys=False, separators=(", ", ": ")).encode()
    alt = f"{header_seg}.{jose.b64url_encode(reordered)}.{sig_seg}"
    parsed = jose.decode_token(alt)
    assert parsed.claims == jose.decode_token(token).claims
    assert parsed.signing_input == alt.rpartition(".")[0].encode("ascii")
    assert not jose.hs256_matches(secret, parsed.signing_input, parsed.signature)


def test_token_holds_only_claims_from_its_signed_bytes():
    token = jose.decode_token(GOLDEN_VECTORS[0][3])
    forged = TokenClaims(sub="root", iat=0, exp=2**40, jti="x")
    # The compact string is the only constructor argument ...
    with pytest.raises(TypeError):
        jose.Token(
            header=token.header,
            claims=forged,
            signature=token.signature,
            signing_input=token.signing_input,
        )
    # ... and replace() can only re-parse a compact string, never swap
    # a parsed field under the same signed bytes.
    for change in (
        {"claims": forged},
        {"header": TokenHeader("HS256", "root")},
    ):
        with pytest.raises(ValueError):
            dataclasses.replace(token, **change)
    # The signed bytes and the signature are no fields at all: they are
    # read off the wire form.
    for change in ({"signing_input": b"e30.e30"}, {"signature": b""}):
        with pytest.raises(TypeError):
            dataclasses.replace(token, **change)
    with pytest.raises(dataclasses.FrozenInstanceError):
        token.claims = forged
    other = GOLDEN_VECTORS[1][3]
    assert dataclasses.replace(token, compact=other) == jose.decode_token(other)
    assert dataclasses.replace(token, compact=other).claims.sub == GOLDEN_VECTORS[1][1]["sub"]
    # Slotted, so no attribute can be added beside the parsed ones.
    for value in (token, token.header, token.claims):
        assert not hasattr(value, "__dict__")
    # Equal wire forms parse to equal tokens, which hash equal.
    again = jose.decode_token(GOLDEN_VECTORS[0][3].encode().decode())  # another str
    assert again is not token and again == token and hash(again) == hash(token)
    assert token != jose.decode_token(other)
    head, _, _ = GOLDEN_VECTORS[0][3].rpartition(".")
    assert token.signing_input == head.encode("ascii")


def test_tokens_of_one_key_share_the_strings_they_repeat():
    # The header, the limit and scope tuples, and alg, kid, typ, iss, aud
    # and the names in those tuples are kept once, however many tokens of
    # a key or issuer are minted.
    secret, private = b"k" * 32, ed25519.Ed25519PrivateKey.generate()

    def minted(jti, **claims):
        key = private if "scope" in claims else secret
        alg = "EdDSA" if "scope" in claims else "HS256"
        claims = TokenClaims(
            sub=f"sub-{jti}", iss="https://iss.test", aud="ce-1", iat=0, exp=60, jti=jti, **claims
        )
        return jose.encode_token(TokenHeader(alg, "kid-1"), claims, key)

    for kw in ({"authz_limits": ("ADVERTISE", "READ")}, {"scope": ("compute.create", "compute.read")}):
        one, two = minted("j1", **kw), minted("j2", **kw)
        shared = [
            (one.header, two.header),
            (one.claims.authz_limits, two.claims.authz_limits),
            (one.claims.scope, two.claims.scope),
            (one.header.alg, two.header.alg),
            (one.header.kid, two.header.kid),
            (one.header.typ, two.header.typ),
            (one.claims.iss, two.claims.iss),
            (one.claims.aud, two.claims.aud),
            *zip(one.claims.authz_limits or (), two.claims.authz_limits or ()),
            *zip(one.claims.scope or (), two.claims.scope or ()),
        ]
        assert all(a == b and a is b for a, b in shared), shared
        assert one.claims.sub != two.claims.sub


#: JSON values of every type but a string.
NOT_A_STRING = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.lists(st.integers(), max_size=2)
)


@st.composite
def header_segments(draw) -> str:
    """A header segment that parses, or one refused for its base64url, its
    JSON, a JSON value that is no object, or an ``alg``, ``kid`` or ``typ``
    of the wrong JSON type."""
    header = {"alg": draw(st.sampled_from(["HS256", "EdDSA", "none"])), "kid": draw(ANY_TEXT), "typ": "JWT"}
    fault = draw(st.sampled_from(["none", "typed", "not-an-object", "not-json", "not-base64url"]))
    if fault == "typed":
        header[draw(st.sampled_from(sorted(header)))] = draw(NOT_A_STRING)
    raw = jose.canonical_json(header).encode()
    if fault == "not-an-object":
        raw = jose.canonical_json(draw(NOT_A_STRING | ANY_TEXT)).encode()
    elif fault == "not-json":
        raw = raw[: draw(st.integers(0, len(raw) - 1))]
    segment = jose.b64url_encode(raw)
    if fault == "not-base64url":
        at = draw(st.integers(0, len(segment)))
        segment = segment[:at] + draw(st.sampled_from("+/= \u00e9")) + segment[at:]
    return segment


@st.composite
def tokens_and_twins(draw) -> tuple[str, str]:
    """A compact token refused at any segment or none, and its twin: the
    same header segment and limit or scope names, well-formed claims and a
    well-formed signature."""
    header = draw(header_segments())
    names = draw(WORDS.filter(bool))
    claims = {"sub": draw(ANY_TEXT), "iat": 1, "exp": 2, "jti": "j"}
    if draw(st.booleans()):
        claims["authz_limits"] = names
    else:
        claims |= {"aud": "ce", "scope": " ".join(names)}
    twin = f"{header}.{jose.b64url_encode(jose.canonical_json(claims).encode())}.{jose.b64url_encode(bytes(32))}"
    if draw(st.booleans()):
        claims[draw(st.sampled_from(sorted(claims)))] = draw(NOT_A_STRING)
    signature = draw(st.sampled_from([jose.b64url_encode(bytes(32)), "QR", "a+b", ""]))
    token = f"{header}.{jose.b64url_encode(jose.canonical_json(claims).encode())}.{signature}"
    return token, twin


@contextlib.contextmanager
def cold_tables():
    """``jose``'s shared header and name tables, empty for the block; their
    entries are put back after it."""
    tables = (jose._HEADERS, jose._NAMES)
    saved = [dict(table) for table in tables]
    try:
        for table in tables:
            table.clear()
        yield tables
    finally:
        for table, entries in zip(tables, saved):
            table.clear()
            table.update(entries)


@given(pair=tokens_and_twins())
def test_a_warm_table_never_changes_a_parse(pair):
    token, twin = pair

    def parse(compact):
        try:
            parsed = jose.decode_token(compact)
        except MalformedToken as exc:
            return str(exc)
        return parsed.header, parsed.claims

    with cold_tables() as tables:
        cold = parse(token)
        if isinstance(cold, str):
            # Refused at some segment: nothing of it is kept.
            assert not any(tables), tables
        parse(twin)
        warm = parse(token)
        assert warm == cold
        if not isinstance(warm, str):
            segment = token.partition(".")[0]
            assert warm[0] is jose._HEADERS[segment]
            names = warm[1].scope or warm[1].authz_limits
            assert names is jose._NAMES[names]


#: Text with at least one character outside ASCII, so its JSON form escapes it.
NON_ASCII = st.builds(
    "".join, st.tuples(ANY_TEXT | st.just(""), st.characters(min_codepoint=0x80, exclude_categories=("Cs",)))
)


@st.composite
def mints(draw) -> tuple[TokenHeader, TokenClaims, bytes | ed25519.Ed25519PrivateKey]:
    """A header, a claim set with a non-ASCII subject and optional issuer and
    audience, and a key: an identity token with or without limits, or a
    capability token with a scope."""
    capability = draw(st.booleans())
    iat = draw(st.integers(0, 2**40))
    names = draw(WORDS.filter(bool) if capability else st.none() | WORDS)
    claims = TokenClaims(
        sub=draw(NON_ASCII),
        iss=draw(st.none() | ANY_TEXT),
        aud=draw(ANY_TEXT if capability else st.none() | ANY_TEXT),
        iat=iat,
        exp=iat + draw(st.integers(1, 2**31)),
        jti=draw(ANY_TEXT),
        scope=tuple(names) if capability else None,
        authz_limits=tuple(names) if not capability and names is not None else None,
    )
    header = TokenHeader("EdDSA" if capability else "HS256", draw(ANY_TEXT), draw(st.sampled_from(["JWT", "at+jwt"])))
    return header, claims, ED_KEY if capability else draw(st.binary(max_size=40))


@settings(max_examples=150)
@given(minted=mints())
def test_a_minted_token_is_what_its_wire_form_parses_to(minted):
    # A mint reads its token from what it signed, with the checks and the
    # sharing of a parse, so the token it returns is the parse of its own
    # wire form, field by field and, for the header and the name tuples,
    # object by object; with cold tables (the mint adds the entries) and
    # with warm ones (the mint reads them).
    header, claims, key = minted
    with cold_tables():
        for _ in range(2):
            token = jose.encode_token(header, claims, key)
            parsed = jose.decode_token(token.compact)
            assert token == parsed
            assert token.header is parsed.header
            assert token.header is jose._HEADERS[token.compact.partition(".")[0]]
            for field in dataclasses.fields(TokenClaims):
                assert getattr(token.claims, field.name) == getattr(parsed.claims, field.name), field.name
            assert token.claims.scope is parsed.claims.scope
            assert token.claims.authz_limits is parsed.claims.authz_limits
            assert (token.signing_input, token.signature) == (parsed.signing_input, parsed.signature)


@pytest.mark.parametrize(
    "header, claims",
    [
        (TokenHeader("HS256", "k"), TokenClaims(sub="s", iat=True, exp=2, jti="j")),
        (TokenHeader("HS256", "k"), TokenClaims(sub="s", iss=7, iat=0, exp=2, jti="j")),
        (TokenHeader("HS256", "k"), TokenClaims(sub="s", iat=0, exp=2, jti="j", authz_limits=(1,))),
        (TokenHeader("HS256", "k", typ=None), TokenClaims(sub="s", iat=0, exp=2, jti="j")),
        (TokenHeader("HS256", ["k"]), TokenClaims(sub="s", iat=0, exp=2, jti="j")),
    ],
    ids=["bool-iat", "int-iss", "int-limit", "null-typ", "list-kid"],
)
def test_mint_refuses_what_a_parse_of_its_wire_form_would_refuse(header, claims):
    wire = oracle_jwt(header.to_json_dict(), claims.to_json_dict(), b"sec")
    with pytest.raises(MalformedToken):
        jose.decode_token(wire)
    with cold_tables() as tables:
        with pytest.raises(MalformedToken):
            jose.encode_token(header, claims, b"sec")
        assert not any(tables), tables


def test_hs256_matches_true_and_false():
    sig = jose.hs256_signature(b"key", b"payload")
    assert jose.hs256_matches(b"key", b"payload", sig)
    assert not jose.hs256_matches(b"key", b"payload2", sig)
    assert not jose.hs256_matches(b"other", b"payload", sig)


def test_ed25519_matches_true_false_and_garbage_key():
    private = ed25519.Ed25519PrivateKey.generate()
    from cryptography.hazmat.primitives import serialization

    public = private.public_key().public_bytes(
        serialization.Encoding.Raw, serialization.PublicFormat.Raw
    )
    sig = private.sign(b"msg")
    assert jose.ed25519_matches(public, b"msg", sig)
    assert not jose.ed25519_matches(public, b"msg2", sig)
    assert not jose.ed25519_matches(b"\x00" * 5, b"msg", sig)  # not a valid key
