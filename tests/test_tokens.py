"""Keyring lifecycle, trust directory, and both verification paths."""

import random
import string
from collections import Counter
from pathlib import Path

import pytest

from tokenpool import actors, jose, policy, tokens
from tokenpool.actors import CH_JOIN
from tokenpool.errors import (
    AudienceMismatch,
    DuplicateKid,
    Expired,
    InsufficientScope,
    KeyRevoked,
    MalformedToken,
    NotYetValid,
    SignatureInvalid,
    TokenPoolError,
    UnknownKey,
    UntrustedIssuer,
)
from tokenpool.jose import TokenClaims, TokenHeader, decode_token
from tokenpool.migration import run_scenario
from tokenpool.tokens import (
    IssuerKey,
    KeyStatus,
    SymmetricKey,
    SymmetricKeyring,
    TrustDirectory,
    mint_idtoken,
    mint_scitoken,
    revoke_key,
    rotate_key,
    verify_idtoken,
    verify_scitoken,
)

NOW = 1_000_000
ISSUER = "https://issuer.test"
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def keyring():
    return SymmetricKeyring.from_secrets({"k1": b"a" * 32, "k2": b"b" * 32})


@pytest.fixture
def issuer_key():
    return IssuerKey.generate("op-1", seed=b"\x11" * 32)


@pytest.fixture
def trust(issuer_key):
    return TrustDirectory.single_issuer(ISSUER, issuer_key)


# -- keyring ----------------------------------------------------------------


def active_kids(keyring):
    return tuple(k for k, v in keyring.entries.items() if v.status is KeyStatus.ACTIVE)


def test_keyring_lookup_and_active_kids(keyring):
    assert keyring.lookup("k1").secret == b"a" * 32
    assert active_kids(keyring) == ("k1", "k2")
    with pytest.raises(UnknownKey):
        keyring.lookup("missing")


def test_rotate_adds_key_without_mutating_original(keyring):
    grown = rotate_key(keyring, "k3", b"c" * 32)
    assert active_kids(grown) == ("k1", "k2", "k3")
    assert active_kids(keyring) == ("k1", "k2")
    with pytest.raises(DuplicateKid):
        rotate_key(grown, "k1")


def test_rotate_draws_a_fresh_secret_when_none_given(keyring):
    first = rotate_key(keyring, "r1").lookup("r1").secret
    second = rotate_key(keyring, "r1").lookup("r1").secret
    assert len(first) == 32
    assert first != second


def test_revoke_marks_key_and_leaves_original_untouched(keyring):
    revoked = revoke_key(keyring, "k1")
    assert revoked.lookup("k1").status is KeyStatus.REVOKED
    assert active_kids(revoked) == ("k2",)
    assert keyring.lookup("k1").status is KeyStatus.ACTIVE
    with pytest.raises(KeyRevoked):
        revoked.active_secret("k1")
    with pytest.raises(UnknownKey):
        revoke_key(keyring, "missing")


def test_mint_refuses_revoked_key(keyring):
    revoked = revoke_key(keyring, "k1")
    with pytest.raises(KeyRevoked):
        mint_idtoken(revoked, "k1", "daemon@x", ("READ",), 600, NOW)


# -- identity tokens --------------------------------------------------------


def test_idtoken_round_trip(keyring):
    token = mint_idtoken(
        keyring, "k1", "schedd@host", ("ADVERTISE", "READ"), 600, NOW, jti="j1"
    )
    parsed = decode_token(token.compact)
    got = verify_idtoken(parsed, keyring, NOW + 10)
    assert got.subject == "schedd@host"
    assert got.authz_limits == frozenset({"ADVERTISE", "READ"})
    assert parsed.header.kid == "k1"
    assert parsed.claims.jti == "j1"


def test_idtoken_empty_limits_means_unlimited(keyring):
    token = mint_idtoken(keyring, "k1", "admin@x", (), 600, NOW)
    got = verify_idtoken(token, keyring, NOW)
    assert got.authz_limits == frozenset()


def test_idtoken_default_jti_is_random(keyring):
    a = mint_idtoken(keyring, "k1", "s", (), 600, NOW)
    b = mint_idtoken(keyring, "k1", "s", (), 600, NOW)
    claims_a, claims_b = a.claims, b.claims
    assert claims_a.jti and claims_b.jti and claims_a.jti != claims_b.jti


def test_idtoken_wrong_secret_fails(keyring):
    token = mint_idtoken(keyring, "k1", "s", (), 600, NOW)
    other = SymmetricKeyring.from_secrets({"k1": b"z" * 32})
    with pytest.raises(SignatureInvalid):
        verify_idtoken(token, other, NOW)


def test_idtoken_unknown_kid_fails(keyring):
    token = mint_idtoken(keyring, "k1", "s", (), 600, NOW)
    small = SymmetricKeyring.from_secrets({"k2": b"b" * 32})
    with pytest.raises(UnknownKey):
        verify_idtoken(token, small, NOW)


def test_idtoken_revoked_key_beats_valid_signature(keyring):
    token = mint_idtoken(keyring, "k1", "s", (), 600, NOW)
    revoked = revoke_key(keyring, "k1")
    with pytest.raises(KeyRevoked):
        verify_idtoken(token, revoked, NOW)


def test_idtoken_payload_tamper_fails(keyring):
    token = mint_idtoken(keyring, "k1", "s", (), 600, NOW)
    head, claims_seg, sig = token.compact.split(".")
    pos = 5
    flipped = "A" if claims_seg[pos] != "A" else "B"
    tampered = f"{head}.{claims_seg[:pos]}{flipped}{claims_seg[pos + 1:]}.{sig}"
    with pytest.raises((SignatureInvalid, MalformedToken)):
        verify_idtoken(decode_token(tampered), keyring, NOW)


def test_idtoken_expiry_window_with_skew(keyring):
    token = mint_idtoken(keyring, "k1", "s", (), 600, NOW)
    verify_idtoken(token, keyring, NOW + 600 + tokens.DEFAULT_SKEW)  # boundary ok
    with pytest.raises(Expired):
        verify_idtoken(token, keyring, NOW + 600 + tokens.DEFAULT_SKEW + 1)
    verify_idtoken(token, keyring, NOW - tokens.DEFAULT_SKEW)  # boundary ok
    with pytest.raises(NotYetValid):
        verify_idtoken(token, keyring, NOW - tokens.DEFAULT_SKEW - 1)


def test_idtoken_rejects_foreign_algorithms(keyring, issuer_key):
    cap = mint_scitoken(issuer_key, ISSUER, "s", ("x",), "aud", 600, NOW)
    with pytest.raises(SignatureInvalid):
        verify_idtoken(cap, keyring, NOW)


def test_idtoken_rejects_capability_claims_under_hs256(keyring):
    # Hand-rolled confusion attempt: HS256 header over scope-bearing claims.
    claims = TokenClaims(sub="s", aud="a", iat=NOW, exp=NOW + 60, jti="j", scope=("x",))
    forged = jose.encode_token(TokenHeader("HS256", "k1"), claims, b"a" * 32)
    with pytest.raises(MalformedToken):
        verify_idtoken(forged, keyring, NOW)


def test_idtoken_rejects_unexpected_typ(keyring):
    claims = TokenClaims(sub="s", iat=NOW, exp=NOW + 60, jti="j")
    odd = jose.encode_token(TokenHeader("HS256", "k1", typ="JOSE"), claims, b"a" * 32)
    with pytest.raises(MalformedToken):
        verify_idtoken(odd, keyring, NOW)


def test_idtoken_check_order_signature_before_window(keyring):
    # An expired token with a broken signature reports the signature first:
    # time claims are attacker-controlled until the signature holds.
    token = mint_idtoken(keyring, "k1", "s", (), 600, NOW)
    head, claims_seg, _ = token.compact.split(".")
    bad_sig = jose.b64url_encode(b"\x01" * 32)
    with pytest.raises(SignatureInvalid):
        verify_idtoken(decode_token(f"{head}.{claims_seg}.{bad_sig}"), keyring, NOW + 10_000)


# -- issuer keys and trust --------------------------------------------------


def test_issuer_key_seed_is_deterministic():
    a = IssuerKey.generate("kid", seed=b"\x22" * 32)
    b = IssuerKey.generate("kid", seed=b"\x22" * 32)
    c = IssuerKey.generate("kid", seed=b"\x23" * 32)
    assert a.public_bytes == b.public_bytes
    assert a.public_bytes != c.public_bytes
    with pytest.raises(ValueError):
        IssuerKey.generate("kid", seed=b"short")


def test_trust_directory_lookup(trust, issuer_key):
    assert trust.verification_key(ISSUER, "op-1") == issuer_key.public_bytes
    with pytest.raises(UntrustedIssuer):
        trust.verification_key("https://evil.test", "op-1")
    with pytest.raises(UnknownKey):
        trust.verification_key(ISSUER, "op-2")


# -- capability tokens ------------------------------------------------------


def test_scitoken_round_trip(issuer_key, trust):
    token = mint_scitoken(
        issuer_key, ISSUER, "pilot-ops", ("compute.create", "compute.read"),
        "ce-1", 1200, NOW, jti="c1",
    )
    parsed = decode_token(token.compact)
    got = verify_scitoken(parsed, trust, "ce-1", ("compute.create",), NOW + 5)
    assert got.subject == "pilot-ops"
    assert got.granted_scopes == frozenset({"compute.create", "compute.read"})
    assert parsed.claims.iss == ISSUER
    assert parsed.header.kid == "op-1"
    assert parsed.claims.jti == "c1"


def test_scitoken_untrusted_issuer(issuer_key, trust):
    token = mint_scitoken(issuer_key, "https://evil.test", "s", ("x",), "ce-1", 600, NOW)
    with pytest.raises(UntrustedIssuer):
        verify_scitoken(token, trust, "ce-1", (), NOW)


def test_scitoken_unknown_issuer_kid(issuer_key, trust):
    rogue = IssuerKey.generate("op-9", seed=b"\x44" * 32)
    token = mint_scitoken(rogue, ISSUER, "s", ("x",), "ce-1", 600, NOW)
    with pytest.raises(UnknownKey):
        verify_scitoken(token, trust, "ce-1", (), NOW)


def test_scitoken_signature_mismatch(trust):
    # Same kid as the trusted key, different private half.
    imposter = IssuerKey.generate("op-1", seed=b"\x55" * 32)
    token = mint_scitoken(imposter, ISSUER, "s", ("x",), "ce-1", 600, NOW)
    with pytest.raises(SignatureInvalid):
        verify_scitoken(token, trust, "ce-1", (), NOW)


def test_scitoken_audience_must_match(issuer_key, trust):
    token = mint_scitoken(issuer_key, ISSUER, "s", ("x",), "ce-1", 600, NOW)
    with pytest.raises(AudienceMismatch):
        verify_scitoken(token, trust, "ce-2", (), NOW)


def test_scitoken_issuer_audience_allowlist(issuer_key):
    restricted = TrustDirectory.single_issuer(ISSUER, issuer_key, audiences=("ce-a",))
    ok = mint_scitoken(issuer_key, ISSUER, "s", ("x",), "ce-a", 600, NOW)
    verify_scitoken(ok, restricted, "ce-a", (), NOW)
    off_list = mint_scitoken(issuer_key, ISSUER, "s", ("x",), "ce-b", 600, NOW)
    with pytest.raises(AudienceMismatch):
        verify_scitoken(off_list, restricted, "ce-b", (), NOW)


def test_scitoken_scope_coverage(issuer_key, trust):
    token = mint_scitoken(issuer_key, ISSUER, "s", ("compute.create",), "ce-1", 600, NOW)
    verify_scitoken(token, trust, "ce-1", ("compute.create",), NOW)
    with pytest.raises(InsufficientScope):
        verify_scitoken(
            token, trust, "ce-1", ("compute.create", "compute.cancel"), NOW
        )


def test_scitoken_expiry(issuer_key, trust):
    token = mint_scitoken(issuer_key, ISSUER, "s", ("x",), "ce-1", 600, NOW)
    with pytest.raises(Expired):
        verify_scitoken(token, trust, "ce-1", (), NOW + 600 + tokens.DEFAULT_SKEW + 1)
    with pytest.raises(NotYetValid):
        verify_scitoken(token, trust, "ce-1", (), NOW - tokens.DEFAULT_SKEW - 1)


def test_scitoken_rejects_hs256_identity_token(keyring, trust):
    idt = mint_idtoken(keyring, "k1", "s", (), 600, NOW)
    with pytest.raises(SignatureInvalid):
        verify_scitoken(idt, trust, "ce-1", (), NOW)


def test_scitoken_requires_issuer_claim(issuer_key, trust):
    claims = TokenClaims(sub="s", aud="ce-1", iat=NOW, exp=NOW + 60, jti="j", scope=("x",))
    token = jose.encode_token(
        TokenHeader("EdDSA", issuer_key.kid), claims, issuer_key.private_key
    )
    with pytest.raises(MalformedToken):
        verify_scitoken(token, trust, "ce-1", (), NOW)


# -- sessions -------------------------------------------------------------


#: An identity map that maps every subject, so that only the token decides
#: whether a session opens.
ANYONE = policy.PolicyTable({}, (("*", "anyone"),))


@pytest.fixture
def sessions(keyring, trust):
    """A session table of ``ANYONE`` under the ``keyring`` and ``trust`` fixtures."""
    return policy.Sessions(ANYONE, keyring, trust)


def present_on(sessions, channel, pol, token, *, audience="", now=NOW):
    """Present ``token`` on ``channel`` as ``World.authenticate_on`` does:
    its session's peer if ``sessions.admit`` takes it, else what a full
    verification returns, which opens a session."""
    peer = sessions.admit(pol, token, audience, now)
    if peer is None:
        peer = policy.authenticate(
            channel, pol, token, sessions=sessions, expected_audience=audience, now=now
        )
    return peer


def present(sessions, token, *, audience="ce-1", scopes=None, now=NOW):
    """Present ``token`` through ``sessions`` on a channel that accepts its
    method and asks for ``scopes``, or for ADVERTISE when there are none;
    ``scopes`` defaults to the job-submit scope for a capability token."""
    method = policy.credential_method(token)
    if scopes is None and method is policy.AuthMethod.SCITOKEN:
        scopes = (policy.JOB_SUBMIT_SCOPE,)
    if scopes:
        pol = policy.ChannelPolicy((method,), required_scopes=frozenset(scopes))
    else:
        pol = policy.ChannelPolicy((method,), policy.AuthzLevel.ADVERTISE)
    return present_on(sessions, policy.CH_CE_SUBMIT, pol, token, audience=audience, now=now)


def served_tokens(monkeypatch):
    """Every token a World presents, as (method, token, filling), in order:
    those ``admit`` took on their session and those ``authenticate``
    verified in full.  A filling is the session table that served the
    token with the keyring and trust directory it was then filled under."""
    served = []
    real_admit = policy.Sessions.admit
    real = actors.authenticate

    def admitting(sessions, pol, token, *args):
        peer = real_admit(sessions, pol, token, *args)
        if peer is not None:
            served.append((peer.method, token, (sessions, sessions.keyring, sessions.trust)))
        return peer

    def recording(channel, pol, credential, *, sessions, **kw):
        peer = real(channel, pol, credential, sessions=sessions, **kw)
        if isinstance(credential, jose.Token):
            served.append((peer.method, credential, (sessions, sessions.keyring, sessions.trust)))
        return peer

    monkeypatch.setattr(policy.Sessions, "admit", admitting)
    monkeypatch.setattr(actors, "authenticate", recording)
    return served


def fillings(served, method):
    """The distinct fillings, as id triples, that served ``method`` tokens;
    ``served`` keeps every object alive, so ids are not reused."""
    return {tuple(map(id, filling)) for m, _, filling in served if m is method}


def sessions_opened(served, method):
    """Distinct (token, filling) pairs among the ``method`` tokens served."""
    return len({(token, tuple(map(id, filling))) for m, token, filling in served if m is method})


def _with_flipped_signature_byte(token: str) -> str:
    head, payload, sig = token.split(".")
    raw = bytearray(jose.b64url_decode(sig))
    raw[0] ^= 0x01
    return f"{head}.{payload}.{jose.b64url_encode(bytes(raw))}"


@pytest.fixture
def warm(issuer_key, trust, sessions):
    """The wire form of a capability token with a session in ``sessions``."""
    token = mint_scitoken(issuer_key, ISSUER, "s", ("compute.create",), "ce-1", 600, NOW)
    present(sessions, token, scopes=("compute.create",))
    assert token.compact in sessions
    return token.compact


@pytest.mark.parametrize(
    "shown, audience, scopes, now, error",
    [
        (_with_flipped_signature_byte, "ce-1", (), NOW, SignatureInvalid),
        (str, "ce-1", (), NOW + 600 + tokens.DEFAULT_SKEW + 1, Expired),
        (str, "ce-2", (), NOW, AudienceMismatch),
        (str, "ce-1", ("compute.create", "compute.cancel"), NOW, InsufficientScope),
    ],
    ids=["flipped-signature-byte", "expired", "other-audience", "missing-scope"],
)
def test_remembered_signature_still_runs_every_other_check(
    warm, sessions, shown, audience, scopes, now, error
):
    with pytest.raises(error):
        present(sessions, decode_token(shown(warm)), audience=audience, scopes=scopes, now=now)


def test_remembered_signature_does_not_vouch_for_another_key(warm, sessions, issuer_key):
    # Same issuer and kid, different public key: a table holding that
    # directory has no session for the token, checks the signature itself
    # and rejects it.
    other = TrustDirectory.single_issuer(
        ISSUER, IssuerKey.generate(issuer_key.kid, seed=b"\x66" * 32)
    )
    with pytest.raises(SignatureInvalid):
        present(policy.Sessions(ANYONE, sessions.keyring, other), decode_token(warm))


@pytest.fixture
def ed25519_checks(monkeypatch):
    """Every argument tuple ``jose.ed25519_matches`` is called with."""
    checks = []
    real = jose.ed25519_matches

    def counting(*args):
        checks.append(args)
        return real(*args)

    monkeypatch.setattr(jose, "ed25519_matches", counting)
    return checks


def test_only_verified_signatures_are_remembered(warm, sessions, ed25519_checks):
    # Only a token whose signature verified opens a session; a forged one
    # is checked, and refused, at every presentation.
    token = decode_token(warm)
    forged = decode_token(_with_flipped_signature_byte(warm))
    for _ in range(2):
        present(sessions, token)
        with pytest.raises(SignatureInvalid):
            present(sessions, forged)
    assert [sig for _, _, sig in ed25519_checks] == [forged.signature, forged.signature]
    assert sessions.keys() == {token.compact}


def test_run_checks_each_capability_signature_once(ed25519_checks, monkeypatch):
    # One Ed25519 check per distinct capability token and filling: one
    # session table per World, filled under one keyring and trust directory,
    # since neither run changes either, across migration-2022's phase
    # switches; these runs refuse no token after its signature check.
    served = served_tokens(monkeypatch)
    for name in ("split-2022", "migration-2022"):
        run_scenario(SCENARIO_DIR / f"{name}.yaml")
    capability = [s for s in served if s[0] is policy.AuthMethod.SCITOKEN]
    opened = sessions_opened(served, policy.AuthMethod.SCITOKEN)
    assert len({id(filling[0]) for _, _, filling in capability}) == 2
    assert len(fillings(served, policy.AuthMethod.SCITOKEN)) == 2
    assert len(capability) > opened > 0
    assert len(ed25519_checks) == opened


# -- MAC check ----------------------------------------------------------------


@pytest.fixture
def hs256_macs(monkeypatch):
    """The signing input of every MAC ``jose.hs256_signature`` computes,
    for a mint or a verification."""
    macs = []
    real = jose.hs256_signature

    def counting(secret, signing_input):
        macs.append(signing_input)
        return real(secret, signing_input)

    monkeypatch.setattr(jose, "hs256_signature", counting)
    return macs


@pytest.fixture
def warm_id(keyring, sessions):
    """The wire form of an identity token under k1 with a session in ``sessions``."""
    token = mint_idtoken(keyring, "k1", "s", ("ADVERTISE",), 600, NOW, jti="w1")
    present(sessions, token)
    assert token.compact in sessions
    return token.compact


def _with_payload_of_another_token(token: str) -> str:
    # Another token under the same kid and secret as the ``keyring`` fixture's
    # k1: its payload behind ``token``'s header and MAC.
    keyring = SymmetricKeyring.from_secrets({"k1": b"a" * 32})
    other = mint_idtoken(keyring, "k1", "mallory", ("ADVERTISE",), 600, NOW, jti="w2")
    head, _, mac = token.split(".")
    return f"{head}.{other.compact.split('.')[1]}.{mac}"


@pytest.mark.parametrize(
    "shown, now, error",
    [
        (_with_flipped_signature_byte, NOW, SignatureInvalid),
        (_with_payload_of_another_token, NOW, SignatureInvalid),
        (str, NOW + 600 + tokens.DEFAULT_SKEW + 1, Expired),
    ],
    ids=["flipped-mac-byte", "other-payload", "expired"],
)
def test_remembered_mac_still_runs_every_other_check(warm_id, sessions, shown, now, error):
    with pytest.raises(error):
        present(sessions, decode_token(shown(warm_id)), now=now)


@pytest.mark.parametrize(
    "now_bound_to, error",
    [
        (SymmetricKey(b"a" * 32, KeyStatus.REVOKED), KeyRevoked),
        (SymmetricKey(b"z" * 32), SignatureInvalid),
    ],
    ids=["same-secret-revoked", "another-secret"],
)
def test_remembered_mac_is_tied_to_the_key_not_its_name(now_bound_to, error):
    # Verification reads the key's status and secret at every call: when a
    # keyring revokes k1 or binds it to another secret, a token the keyring
    # before it had verified is refused.
    entries = {"k1": SymmetricKey(b"a" * 32)}
    keyring = SymmetricKeyring(entries)
    token = mint_idtoken(keyring, "k1", "s", (), 600, NOW)
    verify_idtoken(token, keyring, NOW)
    rebound = SymmetricKeyring({**entries, "k1": now_bound_to})
    with pytest.raises(error):
        verify_idtoken(token, rebound, NOW)
    verify_idtoken(token, keyring, NOW)


def _outcome(check):
    """What ``check()`` came to: ``"ok"`` or the name of what it raised."""
    try:
        check()
    except TokenPoolError as exc:
        return type(exc).__name__
    return "ok"


def test_sessions_and_verification_agree_after_the_callers_mappings_change(issuer_key):
    # A keyring and a trust directory copy the mappings they are built from,
    # so a caller changing its dicts after a session opened changes neither:
    # a session hit and a full verification still reach the same outcome.
    entries = {"k1": SymmetricKey(b"a" * 32)}
    keys = {issuer_key.kid: issuer_key.public_bytes}
    issuers, audiences = {ISSUER: keys}, {ISSUER: ("ce-1",)}
    keyring, trust = SymmetricKeyring(entries), TrustDirectory(issuers, audiences)
    sessions = policy.Sessions(ANYONE, keyring, trust)
    scopes = ("compute.create",)
    id_token = mint_idtoken(keyring, "k1", "s", (), 600, NOW)
    cap = mint_scitoken(issuer_key, ISSUER, "s", scopes, "ce-1", 600, NOW)
    present(sessions, id_token)
    present(sessions, cap, scopes=scopes)
    assert sessions.keys() == {id_token.compact, cap.compact}
    entries["k1"] = SymmetricKey(b"a" * 32, KeyStatus.REVOKED)
    keys[issuer_key.kid] = IssuerKey.generate("op-1", seed=b"\x22" * 32).public_bytes
    audiences[ISSUER] = ("elsewhere",)
    del issuers[ISSUER]
    for session, verification in (
        (
            lambda: present(sessions, id_token),
            lambda: verify_idtoken(id_token, keyring, NOW),
        ),
        (
            lambda: present(sessions, cap, scopes=scopes),
            lambda: verify_scitoken(cap, trust, "ce-1", scopes, NOW),
        ),
    ):
        assert _outcome(session) == _outcome(verification) == "ok"
    assert sessions.keyring is keyring and sessions.trust is trust


def test_only_matching_macs_are_remembered(warm_id, sessions, hs256_macs):
    # Only a token whose MAC matched opens a session; a forged one is
    # checked, and refused, at every presentation.
    token = decode_token(warm_id)
    forged = decode_token(_with_flipped_signature_byte(warm_id))
    for _ in range(2):
        present(sessions, token)
        with pytest.raises(SignatureInvalid):
            present(sessions, forged)
    assert hs256_macs == [forged.signing_input, forged.signing_input]
    assert sessions.keys() == {token.compact}


def test_rotated_or_revoked_keyring_checks_each_mac_again(sessions, keyring, hs256_macs):
    # A keyring made by revoke_key or rotate_key has no sessions: rekeying
    # starts the table over, and the token's MAC is computed once under each.
    token = mint_idtoken(keyring, "k2", "s", (), 600, NOW)
    for _ in range(2):
        present(sessions, token)
    assert len(hs256_macs) == 2  # the mint, then one verification
    for changed in (revoke_key(keyring, "k1"), rotate_key(keyring, "k3", b"c" * 32)):
        sessions.rekey(changed)
        for _ in range(2):
            present(sessions, token)
        assert sessions.keyring is changed
        assert sessions.keys() == {token.compact}
    assert len(hs256_macs) == 4


def test_sessions_with_equal_verdicts_share_one_peer(sessions, keyring, issuer_key):
    # Two startd tokens under one keyring get the identical peer; capability
    # tokens with other scopes get their own; dropping one token's session
    # leaves the other's; a new keyring starts a table that shares nothing.
    startd = [
        mint_idtoken(keyring, "k1", "startd@wn-1", ("ADVERTISE",), 600, NOW, jti=jti)
        for jti in ("s1", "s2")
    ]
    peers = [present(sessions, token) for token in startd]
    assert peers[0] is peers[1]
    assert sessions[startd[0].compact] is sessions[startd[1].compact] is peers[0]
    caps = [
        mint_scitoken(issuer_key, ISSUER, "s", scopes, "ce-1", 600, NOW)
        for scopes in (("compute.create",), ("compute.create", "compute.read"))
    ]
    cap_peers = [present(sessions, cap, scopes=("compute.create",)) for cap in caps]
    assert cap_peers[0] != cap_peers[1]
    assert len({id(peer) for peer in (*peers, *cap_peers)}) == 3
    sessions.pop(startd[0].compact)
    assert sessions[startd[1].compact] is peers[1]
    assert present(sessions, startd[1]) is peers[1]
    sessions.rekey(rotate_key(keyring, "k3", b"c" * 32))
    again = present(sessions, startd[1])
    assert again == peers[1] and again is not peers[1]


def test_tampering_never_authenticates_against_a_warm_session(run_world):
    # Every member's identity token has a session in the World's policy from
    # its join and keepalives; every single-character payload mutant of one,
    # presented to that World, keeps the MAC and must still be refused.
    rng = random.Random(0x4D1C)
    alphabet = string.ascii_letters + string.digits + "-_"
    world = run_world(SCENARIO_DIR / "rollout-2022.yaml")
    presented = [p.token for p in list(world.collector.members.values())[:20]]
    mutants = accepted = 0
    rejected: Counter[str] = Counter()
    for token in presented:
        world.authenticate_on(CH_JOIN, token)
        assert token.compact in world.sessions
        head, payload, mac = token.compact.split(".")
        for pos in range(len(payload)):
            replacement = rng.choice(alphabet.replace(payload[pos], ""))
            mutant = f"{head}.{payload[:pos]}{replacement}{payload[pos + 1:]}.{mac}"
            mutants += 1
            try:
                world.authenticate_on(CH_JOIN, decode_token(mutant))
            except TokenPoolError as exc:
                rejected[exc.reason] += 1
            else:
                accepted += 1
    assert len(presented) == 20
    assert accepted == 0
    assert sum(rejected.values()) == mutants
    assert rejected["SignatureInvalid"] > 500


def test_run_computes_one_mac_per_mint_and_per_distinct_identity_token(
    hs256_macs, monkeypatch
):
    # One HMAC per mint, and one per distinct identity token and filling:
    # one session table per World, filled once per keyring, and
    # drill-keysplit's key compromise gives its World a second one; these
    # runs refuse no token after its MAC.
    minted = []
    real_encode = jose.encode_token

    def recording_encode(header, claims, key):
        token = real_encode(header, claims, key)
        if header.alg == jose.IDTOKEN_ALG:
            minted.append(token)
        return token

    monkeypatch.setattr(jose, "encode_token", recording_encode)
    served = served_tokens(monkeypatch)
    for name in ("rollout-2022", "drill-keysplit"):
        run_scenario(SCENARIO_DIR / f"{name}.yaml")
    identity = [s for s in served if s[0] is policy.AuthMethod.IDTOKEN]
    opened = sessions_opened(served, policy.AuthMethod.IDTOKEN)
    assert len({id(filling[0]) for _, _, filling in identity}) == 2
    assert len(fillings(served, policy.AuthMethod.IDTOKEN)) == 3
    assert len(identity) > opened > 0
    assert len(hs256_macs) == len(minted) + opened


def test_a_phase_switch_verifies_no_identity_token_again(monkeypatch):
    # A session outlives a phase switch, as HTCondor keeps an authenticated
    # security session across one: each identity token of a migration-2022
    # run is verified in full once, though the run switches phase at t=750.
    verified = []
    real = policy.verify_idtoken

    def counting(token, *args):
        verified.append(token.compact)
        return real(token, *args)

    monkeypatch.setattr(policy, "verify_idtoken", counting)
    run_scenario(SCENARIO_DIR / "migration-2022.yaml")
    assert len(verified) == len(set(verified)) == 84
