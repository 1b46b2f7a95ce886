"""Negotiation, the privilege order, identity mapping, phase projection."""

import itertools
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenpool.errors import (
    AudienceMismatch,
    Expired,
    InsufficientScope,
    InvalidClaims,
    KeyRevoked,
    InvalidPolicy,
    NoCommonMethod,
    NotYetValid,
    ProxyExpired,
    TokenPoolError,
    UnmappedIdentity,
    UntrustedCA,
)
from tokenpool.jose import Token
from tokenpool.policy import (
    _ALL_LEVELS,
    _LEVELS_NAMED,
    CH_ADVERTISE,
    CH_CE_SUBMIT,
    CH_SUBMIT,
    CH_TOKEN_FETCH,
    JOB_SUBMIT_SCOPE,
    PHASE_PERMITS,
    AuthenticatedPeer,
    AuthMethod,
    AuthzLevel,
    ChannelPolicy,
    CompiledPolicy,
    Decision,
    LocalFsCredential,
    MigrationPhase,
    PolicyTable,
    ProxyCredential,
    apply_phase,
    authenticate,
    authorize,
    credential_method,
    default_table,
    dominates,
    negotiate_method,
    validate_table,
)
from tokenpool.tokens import (
    DEFAULT_SKEW,
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

NOW = 500_000
HOST = "submit.host"
CA = "test-ca"
ISSUER = "https://issuer.test"

# The full privilege order, written out pair by pair so the implementation
# is checked against an independent statement of the same relation.
ALLOWED_PAIRS = {
    (AuthzLevel.ADMIN, AuthzLevel.ADMIN),
    (AuthzLevel.ADMIN, AuthzLevel.DAEMON),
    (AuthzLevel.ADMIN, AuthzLevel.ADVERTISE),
    (AuthzLevel.ADMIN, AuthzLevel.READ),
    (AuthzLevel.ADMIN, AuthzLevel.WRITE),
    (AuthzLevel.DAEMON, AuthzLevel.DAEMON),
    (AuthzLevel.DAEMON, AuthzLevel.ADVERTISE),
    (AuthzLevel.READ, AuthzLevel.READ),
    (AuthzLevel.WRITE, AuthzLevel.WRITE),
    (AuthzLevel.ADVERTISE, AuthzLevel.ADVERTISE),
}


def test_dominance_matches_pairwise_table():
    for held, required in itertools.product(AuthzLevel, AuthzLevel):
        assert dominates(held, required) == ((held, required) in ALLOWED_PAIRS)
    assert len(ALLOWED_PAIRS) == 10  # 10 allowed, 15 denied of the 25 pairs


def test_phase_permits_shape():
    assert PHASE_PERMITS[MigrationPhase.GSI_ONLY] == frozenset(
        {AuthMethod.GSI_PROXY, AuthMethod.LOCAL_FS}
    )
    assert PHASE_PERMITS[MigrationPhase.TOKEN_WITH_GSI_FALLBACK] == frozenset(AuthMethod)
    assert PHASE_PERMITS[MigrationPhase.TOKEN_ONLY] == frozenset(
        {AuthMethod.IDTOKEN, AuthMethod.SCITOKEN}
    )


# -- negotiation ------------------------------------------------------------


def test_negotiation_prefers_tokens_over_server_order():
    picked = negotiate_method(
        [AuthMethod.GSI_PROXY, AuthMethod.IDTOKEN],
        (AuthMethod.GSI_PROXY, AuthMethod.IDTOKEN),
    )
    assert picked is AuthMethod.IDTOKEN


def test_negotiation_breaks_token_tie_on_server_order():
    picked = negotiate_method(
        [AuthMethod.IDTOKEN, AuthMethod.SCITOKEN],
        (AuthMethod.SCITOKEN, AuthMethod.IDTOKEN),
    )
    assert picked is AuthMethod.SCITOKEN


def test_negotiation_falls_back_to_legacy():
    picked = negotiate_method(
        [AuthMethod.GSI_PROXY], (AuthMethod.IDTOKEN, AuthMethod.GSI_PROXY)
    )
    assert picked is AuthMethod.GSI_PROXY


def test_negotiation_without_overlap_fails():
    with pytest.raises(NoCommonMethod):
        negotiate_method([AuthMethod.LOCAL_FS], (AuthMethod.IDTOKEN,))
    with pytest.raises(NoCommonMethod):
        negotiate_method([AuthMethod.IDTOKEN], ())


# -- table structure --------------------------------------------------------


def test_channel_policy_needs_exactly_one_requirement():
    with pytest.raises(InvalidPolicy):
        ChannelPolicy((AuthMethod.IDTOKEN,))
    with pytest.raises(InvalidPolicy):
        ChannelPolicy(
            (AuthMethod.IDTOKEN,),
            required_level=AuthzLevel.READ,
            required_scopes=frozenset({"x"}),
        )


def test_identity_map_first_match_and_wildcards():
    table = PolicyTable(
        {},
        (
            ("condor@special", "operator"),
            ("condor@*", "pool-daemon"),
            ("exact", "mapped-exact"),
        ),
    )
    assert table.map_identity("condor@special") == "operator"
    assert table.map_identity("condor@anything.else") == "pool-daemon"
    assert table.map_identity("exact") == "mapped-exact"
    with pytest.raises(UnmappedIdentity):
        table.map_identity("stranger")


def test_validate_table_rejects_structural_problems():
    level = AuthzLevel.READ
    with pytest.raises(InvalidPolicy):
        validate_table(
            PolicyTable({CH_SUBMIT: ChannelPolicy((), level)})
        )
    dup = (AuthMethod.IDTOKEN, AuthMethod.IDTOKEN)
    with pytest.raises(InvalidPolicy):
        validate_table(
            PolicyTable({CH_SUBMIT: ChannelPolicy(dup, level)})
        )
    with pytest.raises(InvalidPolicy):
        validate_table(PolicyTable({}, (("a*b", "x"),)))
    with pytest.raises(InvalidPolicy):
        validate_table(PolicyTable({}, (("", "x"),)))


def test_default_table_is_valid_and_closed():
    table = default_table()
    assert len(table.channels) == 6
    assert table.map_identity("cmsprod") == "cms-prod"
    assert table.map_identity("cmsprod-t0") == "cms-prod"
    assert table.map_identity("startd@pilot-00042") == "pool-daemon"
    assert table.map_identity("frontend@cmspool") == "cms-frontend"
    ce_pol = table.channels[CH_CE_SUBMIT]
    assert ce_pol.required_scopes == frozenset({JOB_SUBMIT_SCOPE})


# -- authenticate -----------------------------------------------------------


@pytest.fixture
def keyring():
    return SymmetricKeyring.from_secrets({"pool-1": b"p" * 32})


@pytest.fixture
def issuer_key():
    return IssuerKey.generate("op-1", seed=b"\x09" * 32)


@pytest.fixture
def trust(issuer_key):
    return TrustDirectory.single_issuer(ISSUER, issuer_key)


@pytest.fixture
def table():
    return PolicyTable(
        {
            CH_SUBMIT: ChannelPolicy(
                (AuthMethod.IDTOKEN, AuthMethod.LOCAL_FS), AuthzLevel.WRITE
            ),
            CH_ADVERTISE: ChannelPolicy(
                (AuthMethod.IDTOKEN, AuthMethod.GSI_PROXY), AuthzLevel.ADVERTISE
            ),
            CH_TOKEN_FETCH: ChannelPolicy(
                (AuthMethod.IDTOKEN,), AuthzLevel.READ
            ),
            CH_CE_SUBMIT: ChannelPolicy(
                (AuthMethod.SCITOKEN, AuthMethod.GSI_PROXY),
                required_scopes=frozenset({JOB_SUBMIT_SCOPE}),
            ),
        },
        (
            ("condor@*", "pool-daemon"),
            ("pilot-ops", "cms-pilot"),
            ("prod-user", "cms-prod"),
            ("/DC=x/CN=Service*", "pool-daemon"),
        ),
    )


def auth(table, channel, credential, compiled=None, **kw):
    kw.setdefault("trusted_cas", frozenset({CA}))
    kw.setdefault("local_host", HOST)
    kw.setdefault("now", NOW)
    if compiled is None:
        compiled = CompiledPolicy(table)
    pol = compiled.channels[channel]
    return authenticate(channel, pol, credential, compiled=compiled, **kw)


def test_authenticate_proxy_grants_legacy_admin(table):
    proxy = ProxyCredential("/DC=x/CN=Service one", NOW + 100, CA)
    peer = auth(table, CH_ADVERTISE, proxy)
    assert peer.method is AuthMethod.GSI_PROXY
    assert peer.canonical_identity == "pool-daemon"
    assert peer.granted_levels == frozenset({AuthzLevel.ADMIN})


def test_authenticate_proxy_failures(table):
    channel = CH_ADVERTISE
    with pytest.raises(UntrustedCA):
        auth(table, channel, ProxyCredential("/DC=x/CN=Service one", NOW + 100, "rogue-ca"))
    with pytest.raises(ProxyExpired):
        auth(table, channel, ProxyCredential("/DC=x/CN=Service one", NOW, CA))
    with pytest.raises(NoCommonMethod):
        # This channel only accepts identity tokens.
        auth(table, CH_TOKEN_FETCH, ProxyCredential("/DC=x/CN=Service one", NOW + 100, CA))


def test_authenticate_local_fs_host_binding(table):
    channel = CH_SUBMIT
    peer = auth(table, channel, LocalFsCredential("prod-user", HOST))
    assert peer.method is AuthMethod.LOCAL_FS
    assert peer.canonical_identity == "cms-prod"
    assert peer.granted_levels == frozenset({AuthzLevel.ADMIN})
    with pytest.raises(UntrustedCA):
        auth(table, channel, LocalFsCredential("prod-user", "other.host"))


def test_authenticate_idtoken_carries_limits(table, keyring):
    token = mint_idtoken(keyring, "pool-1", "condor@sched", ("ADVERTISE",), 600, NOW)
    peer = auth(table, CH_ADVERTISE, token, keyring=keyring)
    assert peer.method is AuthMethod.IDTOKEN
    assert peer.canonical_identity == "pool-daemon"
    assert peer.granted_levels == frozenset({AuthzLevel.ADVERTISE})
    # Who, how and with what rights, and no copy of the token's own fields.
    assert [f.name for f in fields(peer)] == [
        "canonical_identity", "method", "granted_levels", "granted_scopes"
    ]


def test_authenticate_idtoken_without_limits_is_unlimited(table, keyring):
    token = mint_idtoken(keyring, "pool-1", "condor@sched", (), 600, NOW)
    peer = auth(table, CH_ADVERTISE, token, keyring=keyring)
    assert peer.granted_levels == frozenset(AuthzLevel)


def test_authenticate_idtoken_unknown_limit_name_rejected(table, keyring):
    token = mint_idtoken(keyring, "pool-1", "condor@sched", ("SUPERUSER",), 600, NOW)
    with pytest.raises(InvalidClaims):
        auth(table, CH_ADVERTISE, token, keyring=keyring)


def test_authenticate_idtoken_unmapped_subject(table, keyring):
    token = mint_idtoken(keyring, "pool-1", "nobody@nowhere", (), 600, NOW)
    with pytest.raises(UnmappedIdentity):
        auth(table, CH_ADVERTISE, token, keyring=keyring)


def test_authenticate_scitoken_grants_scopes_not_levels(table, trust, issuer_key):
    token = mint_scitoken(
        issuer_key, ISSUER, "pilot-ops", (JOB_SUBMIT_SCOPE,), "ce-1", 600, NOW
    )
    peer = auth(
        table, CH_CE_SUBMIT, token, trust=trust, expected_audience="ce-1"
    )
    assert peer.method is AuthMethod.SCITOKEN
    assert peer.canonical_identity == "cms-pilot"
    assert peer.granted_levels == frozenset()
    assert peer.granted_scopes == frozenset({JOB_SUBMIT_SCOPE})


def test_authenticate_token_method_must_be_accepted(table, keyring, trust, issuer_key):
    # An identity token shown on a capability-only channel is refused before
    # any verification.
    idt = mint_idtoken(keyring, "pool-1", "condor@x", (), 600, NOW)
    cap_only = PolicyTable(
        {
            CH_CE_SUBMIT: ChannelPolicy(
                (AuthMethod.SCITOKEN,), required_scopes=frozenset({JOB_SUBMIT_SCOPE})
            )
        },
        (("condor@*", "pool-daemon"),),
    )
    with pytest.raises(NoCommonMethod):
        auth(cap_only, CH_CE_SUBMIT, idt, keyring=keyring, trust=trust)


def test_credential_method_maps_each_kind_of_credential(keyring, issuer_key):
    idt = mint_idtoken(keyring, "pool-1", "condor@x", (), 600, NOW)
    cap = mint_scitoken(issuer_key, ISSUER, "pilot-ops", (JOB_SUBMIT_SCOPE,), "ce-1", 600, NOW)
    kinds = [
        (ProxyCredential("/DC=x/CN=Service one", NOW + 100, CA), AuthMethod.GSI_PROXY),
        (LocalFsCredential("prod-user", HOST), AuthMethod.LOCAL_FS),
        (idt, AuthMethod.IDTOKEN),
        (cap, AuthMethod.SCITOKEN),
    ]
    # One token of each algorithm: an HS256 identity, an EdDSA capability.
    assert [c.header.alg for c, _ in kinds[2:]] == ["HS256", "EdDSA"]
    assert [credential_method(c) for c, _ in kinds] == [m for _, m in kinds]


# -- the compiled policy's limits table and sessions ------------------------


def test_sessions_remember_only_mapped_subjects(table, keyring):
    compiled = CompiledPolicy(table)
    join = CH_ADVERTISE
    stranger = mint_idtoken(keyring, "pool-1", "stranger", (), 600, NOW)
    for _ in range(2):
        with pytest.raises(UnmappedIdentity):
            auth(table, join, stranger, compiled, keyring=keyring)
    assert not compiled.sessions
    known = mint_idtoken(keyring, "pool-1", "condor@a", (), 600, NOW)
    peer = auth(table, join, known, compiled, keyring=keyring)
    assert compiled.sessions == {known.compact: peer}


def test_unknown_limit_names_are_never_remembered(table, keyring):
    compiled = CompiledPolicy(table)
    bad = mint_idtoken(keyring, "pool-1", "condor@a", ("READ", "SUPERUSER"), 600, NOW)
    for _ in range(2):
        with pytest.raises(InvalidClaims, match="unknown authz limits: SUPERUSER$"):
            auth(table, CH_ADVERTISE, bad, compiled, keyring=keyring)
        assert not compiled.sessions


def test_limits_table_names_what_the_old_rule_named():
    # The rule the table replaced, run on every subset of the level names:
    # an empty limits claim means every level, the token's full rights.
    names = [level.value for level in AuthzLevel]
    subsets = [
        frozenset(chosen) for n in range(len(names) + 1) for chosen in itertools.combinations(names, n)
    ]
    assert len(subsets) == 32
    assert _LEVELS_NAMED == {
        limits: frozenset(AuthzLevel(name) for name in limits) if limits else frozenset(AuthzLevel)
        for limits in subsets
    }
    assert _LEVELS_NAMED[frozenset()] is _ALL_LEVELS
    assert _LEVELS_NAMED.get(frozenset({"SUPERUSER"})) is None
    assert _LEVELS_NAMED.get(frozenset({"READ", "SUPERUSER"})) is None


def test_memoised_subject_still_fails_every_check(table, keyring, trust, issuer_key):
    # A session spares a token only the checks that cannot change between
    # its presentations: the channel's method, the time window, the key's
    # status and, for a capability, the audience and scopes are checked on
    # every presentation, and ``authenticate`` checks all of them even for
    # a token with a session.
    compiled = CompiledPolicy(table)
    join = CH_ADVERTISE
    token = mint_idtoken(keyring, "pool-1", "condor@a", (), 600, NOW)
    auth(table, join, token, compiled, keyring=keyring)
    assert token.compact in compiled.sessions
    with pytest.raises(Expired):
        auth(table, join, token, compiled, keyring=keyring, now=NOW + 10_000)
    with pytest.raises(NotYetValid):
        auth(table, join, token, compiled, keyring=keyring, now=NOW - 10_000)
    with pytest.raises(NoCommonMethod):
        auth(table, CH_CE_SUBMIT, token, compiled, keyring=keyring)
    with pytest.raises(KeyRevoked):
        auth(table, join, token, compiled, keyring=revoke_key(keyring, "pool-1"))

    ce = CH_CE_SUBMIT
    cap = mint_scitoken(issuer_key, ISSUER, "pilot-ops", (JOB_SUBMIT_SCOPE,), "ce-1", 600, NOW)
    auth(table, ce, cap, compiled, trust=trust, expected_audience="ce-1")
    assert cap.compact in compiled.sessions
    with pytest.raises(AudienceMismatch):
        auth(table, ce, cap, compiled, trust=trust, expected_audience="ce-2")
    wider = ChannelPolicy(
        (AuthMethod.SCITOKEN,), required_scopes=frozenset({JOB_SUBMIT_SCOPE, "compute.cancel"})
    )
    with pytest.raises(InsufficientScope, match="compute.cancel"):
        authenticate(
            ce, wider, cap, compiled=compiled, trust=trust, expected_audience="ce-1", now=NOW
        )


@pytest.mark.parametrize("session", [False, True], ids=["verified", "session"])
def test_scope_refusal_names_every_missing_scope_in_order(
    session, table, trust, issuer_key
):
    # The same message whether or not the token has a session: every
    # missing scope, sorted.
    compiled = CompiledPolicy(table)
    cap = mint_scitoken(issuer_key, ISSUER, "pilot-ops", (JOB_SUBMIT_SCOPE,), "ce-1", 600, NOW)
    if session:
        auth(table, CH_CE_SUBMIT, cap, compiled, trust=trust, expected_audience="ce-1")
    assert (cap.compact in compiled.sessions) is session
    wider = ChannelPolicy(
        (AuthMethod.SCITOKEN,),
        required_scopes=frozenset({"compute.read", JOB_SUBMIT_SCOPE, "compute.cancel"}),
    )
    missing = r"^missing scopes: compute\.cancel compute\.read$"
    with pytest.raises(InsufficientScope, match=missing):
        authenticate(
            CH_CE_SUBMIT, wider, cap, compiled=compiled, trust=trust, expected_audience="ce-1", now=NOW
        )


# -- the compiled path against the path it replaced --------------------------


def reference_authenticate(
    channel, table, credential, *, keyring, trust, expected_audience, now=NOW
):
    """Authentication as it was before the policy was compiled: a
    ``channels`` lookup, a linear identity-map scan, the levels built
    from the limit names one by one, and a full verification on every
    presentation."""
    pol = table.channels[channel]

    def require(method):
        if method not in pol.methods:
            raise NoCommonMethod(f"{method.value} not accepted on {channel}")

    if isinstance(credential, ProxyCredential):
        require(AuthMethod.GSI_PROXY)
        if credential.attested_by not in frozenset({CA}):
            raise UntrustedCA(f"CA {credential.attested_by!r} not trusted")
        if now >= credential.expiry:
            raise ProxyExpired(f"proxy expired at {credential.expiry} (now {now})")
        return AuthenticatedPeer(
            table.map_identity(credential.distinguished_name),
            AuthMethod.GSI_PROXY,
            frozenset({AuthzLevel.ADMIN}),
        )
    if isinstance(credential, LocalFsCredential):
        require(AuthMethod.LOCAL_FS)
        if credential.host != HOST:
            raise UntrustedCA(f"filesystem credential from {credential.host!r} presented on {HOST!r}")
        return AuthenticatedPeer(
            table.map_identity(credential.account),
            AuthMethod.LOCAL_FS,
            frozenset({AuthzLevel.ADMIN}),
        )
    if credential.header.alg == "EdDSA":
        require(AuthMethod.SCITOKEN)
        cap = verify_scitoken(credential, trust, expected_audience, pol.required_scopes, now)
        return AuthenticatedPeer(
            table.map_identity(cap.subject),
            AuthMethod.SCITOKEN,
            frozenset(),
            cap.granted_scopes,
        )
    require(AuthMethod.IDTOKEN)
    ident = verify_idtoken(credential, keyring, now)
    identity = table.map_identity(ident.subject)
    if ident.authz_limits:
        try:
            levels = frozenset(AuthzLevel(name) for name in ident.authz_limits)
        except ValueError:
            bad = sorted(set(ident.authz_limits) - {l.value for l in AuthzLevel})
            raise InvalidClaims(f"unknown authz limits: {', '.join(bad)}") from None
    else:
        levels = frozenset(AuthzLevel)
    return AuthenticatedPeer(identity, AuthMethod.IDTOKEN, levels)


def reference_authorize(peer, pol):
    """Authorization as it was: one ``dominates`` test per held level."""
    if pol.required_level is not None:
        if any(dominates(h, pol.required_level) for h in peer.granted_levels):
            return Decision(True)
        return Decision(False, (pol.required_level.value,))
    if AuthzLevel.ADMIN in peer.granted_levels:
        return Decision(True)
    missing = tuple(sorted(pol.required_scopes - peer.granted_scopes))
    return Decision(not missing, missing)


def presented_credentials(keyring, issuer_key):
    """One credential of every kind the pool sees, good and bad."""
    out = [
        ProxyCredential("/DC=ch/DC=cern/OU=computers/CN=host", NOW + 100, CA),
        ProxyCredential("/DC=org/DC=cilogon/C=US/O=CMS/CN=Pilot/x", NOW + 100, CA),
        ProxyCredential("/DC=ch/DC=cern/OU=computers/CN=host", NOW + 100, "rogue-ca"),
        ProxyCredential("/DC=ch/DC=cern/OU=computers/CN=host", NOW, CA),
        ProxyCredential("/CN=nobody", NOW + 100, CA),
        LocalFsCredential("cmsprod", HOST),
        LocalFsCredential("cmsprod", "other.host"),
        LocalFsCredential("stranger", HOST),
    ]
    limits = [(), ("ADVERTISE",), ("READ", "WRITE"), ("WRITE",), ("DAEMON",), ("ADMIN",), ("READ",)]
    for subject in ("condor@x", "frontend@cmspool", "cmsprod", "stranger"):
        out += [mint_idtoken(keyring, "pool-1", subject, lim, 600, NOW) for lim in limits]
    out += [
        mint_idtoken(keyring, "pool-1", "condor@x", ("SUPERUSER",), 600, NOW),
        mint_idtoken(keyring, "pool-1", "stranger", ("READ", "SUPERUSER"), 600, NOW),
        mint_idtoken(keyring, "pool-1", "condor@x", ("ADVERTISE",), 600, NOW - 10_000),
        mint_idtoken(keyring, "pool-2", "condor@x", ("ADVERTISE",), 600, NOW),
    ]
    for subject, scope, aud, iat in (
        ("cms-pilot-ops", JOB_SUBMIT_SCOPE, "ce-1", NOW),
        ("cms-pilot-ops", JOB_SUBMIT_SCOPE, "ce-2", NOW),
        ("cms-pilot-ops", "compute.read", "ce-1", NOW),
        ("cms-pilot-ops", JOB_SUBMIT_SCOPE, "ce-1", NOW - 10_000),
        ("ghost", JOB_SUBMIT_SCOPE, "ce-1", NOW),
    ):
        out.append(mint_scitoken(issuer_key, ISSUER, subject, (scope,), aud, 600, iat))
    return out


def outcome(present):
    try:
        peer, decision = present()
    except TokenPoolError as exc:
        return type(exc), str(exc)
    return peer, decision


@pytest.mark.parametrize("phase", list(MigrationPhase), ids=lambda p: p.value)
def test_compiled_path_matches_the_path_it_replaced(phase, issuer_key, trust):
    keyring = SymmetricKeyring.from_secrets({"pool-1": b"p" * 32, "pool-2": b"q" * 32})
    credentials = presented_credentials(keyring, issuer_key)
    projected = apply_phase(default_table(), phase)
    compiled = CompiledPolicy(projected)
    live = revoke_key(keyring, "pool-2")
    base = dict(now=NOW, expected_audience="ce-1", keyring=live)
    # Right after a presentation at ``base``, which leaves a session for
    # every token it accepts, each credential is shown again: outside, at
    # the edges of and inside its window, at another audience, and under a
    # keyring that revoked a key or gained one.
    again = [
        dict(base, now=NOW - DEFAULT_SKEW - 1),
        dict(base, now=NOW - DEFAULT_SKEW),
        dict(base, now=NOW + 300),
        dict(base, now=NOW + 600 + DEFAULT_SKEW),
        dict(base, now=NOW + 600 + DEFAULT_SKEW + 1),
        dict(base, expected_audience="ce-2"),
        dict(base, keyring=revoke_key(live, "pool-1")),
        dict(base, keyring=rotate_key(live, "pool-3", b"r" * 32)),
    ]
    seen = set()
    for channel in projected.channels:
        pol = compiled.channels[channel]

        def new_path(credential, at):
            peer = authenticate(
                channel, pol, credential, compiled=compiled, trust=trust,
                trusted_cas=frozenset({CA}), local_host=HOST, **at,
            )
            return peer, authorize(peer, pol)

        def old_path(credential, at):
            peer = reference_authenticate(channel, projected, credential, trust=trust, **at)
            return peer, reference_authorize(peer, projected.channels[channel])

        for credential in credentials:
            first = outcome(lambda: old_path(credential, base))
            for at in again:
                # Sessions cold at the first presentation, warm after it.
                warmed = outcome(lambda: new_path(credential, base))
                assert warmed == first, (channel, credential)
                if isinstance(credential, Token) and isinstance(first[1], Decision):
                    assert credential.compact in compiled.sessions
                expected = outcome(lambda: old_path(credential, at))
                got = outcome(lambda: new_path(credential, at))
                assert got == expected, (channel, at, credential)
                for result in (first, expected):
                    if not isinstance(result[1], Decision):
                        seen.add(result[0].__name__)
                    elif result[1].allowed:
                        seen.add("allowed")
                    else:
                        seen.add(f"missing={','.join(result[1].missing)}")
    # The credentials reach every kind of outcome the phase allows.
    assert {"allowed", "NoCommonMethod", "UnmappedIdentity", "Expired"} <= seen
    if phase is not MigrationPhase.GSI_ONLY:
        assert {
            "missing=ADVERTISE", "missing=WRITE", "InvalidClaims", "KeyRevoked",
            "AudienceMismatch", "NotYetValid",
        } <= seen
    if phase is not MigrationPhase.TOKEN_ONLY:
        assert {"UntrustedCA", "ProxyExpired"} <= seen


# -- admit: a presentation on an open session --------------------------------

#: Tokens are minted under both keys; the pool's keyring has revoked
#: pool-2, so a token of pool-2 never opens a session.
_MINT_KEYRING = SymmetricKeyring.from_secrets({"pool-1": b"p" * 32, "pool-2": b"q" * 32})
_LIVE = revoke_key(_MINT_KEYRING, "pool-2")
_ISSUER_KEY = IssuerKey.generate("op-1", seed=b"\x09" * 32)
_TRUST = TrustDirectory.single_issuer(ISSUER, _ISSUER_KEY)
_WIDE, _LEVELLED = "FACTORY->CE/wide", "FRONTEND->CE/level"
#: The pool's channels, and two more that ask a capability token for one
#: scope more than the pool's and for a level.
_ADMIT_TABLE = PolicyTable(
    {
        **default_table().channels,
        _WIDE: ChannelPolicy(
            (AuthMethod.SCITOKEN, AuthMethod.GSI_PROXY),
            required_scopes=frozenset({JOB_SUBMIT_SCOPE, "compute.cancel"}),
        ),
        _LEVELLED: ChannelPolicy((AuthMethod.IDTOKEN, AuthMethod.SCITOKEN), AuthzLevel.READ),
    },
    default_table().identity_map,
)
_SCOPES = (JOB_SUBMIT_SCOPE, "compute.read", "compute.cancel")
_LIMITS = ("READ", "WRITE", "ADVERTISE", "DAEMON", "ADMIN", "SUPERUSER")


@st.composite
def admit_tokens(draw):
    """An identity token under either key, or a capability token for
    either gateway, with a mapped or an unmapped subject; most of them
    pass on some channel."""
    lifetime = draw(st.sampled_from([1, 600]))
    if draw(st.booleans()):
        return mint_scitoken(
            _ISSUER_KEY,
            ISSUER,
            draw(st.sampled_from(["cms-pilot-ops", "cms-pilot-ops", "ghost"])),
            [JOB_SUBMIT_SCOPE] * draw(st.booleans())
            + draw(st.lists(st.sampled_from(_SCOPES), min_size=1, max_size=3, unique=True)),
            draw(st.sampled_from(["ce-1", "ce-2"])),
            lifetime,
            NOW,
            jti="admit",
        )
    return mint_idtoken(
        _MINT_KEYRING,
        draw(st.sampled_from(["pool-1", "pool-1", "pool-2"])),
        draw(st.sampled_from(["condor@x", "frontend@cmspool", "cmsprod", "stranger"])),
        draw(st.just(()) | st.lists(st.sampled_from(_LIMITS), max_size=3, unique=True)),
        lifetime,
        NOW,
        jti="admit",
    )


def full_path(compiled, channel, token, audience, now, keyring, trust):
    """The peer ``authenticate`` and ``authorize`` pass ``token`` with, or
    None when either refuses it."""
    pol = compiled.channels[channel]
    try:
        peer = authenticate(
            channel, pol, token, compiled=compiled, keyring=keyring, trust=trust,
            expected_audience=audience, now=now,
        )
    except TokenPoolError:
        return None
    return peer if authorize(peer, pol).allowed else None


_CHANNELS = sorted(_ADMIT_TABLE.channels)


@settings(max_examples=400)
@given(
    phase=st.sampled_from(MigrationPhase),
    token=admit_tokens(),
    data=st.data(),
    audience=st.sampled_from(["ce-1", "ce-2"]),
    at=st.sampled_from(["iat", "iat-60", "exp+60", "iat-61", "exp+61"]),
    keyring=st.sampled_from(
        [_LIVE, _LIVE, revoke_key(_LIVE, "pool-1"), rotate_key(_LIVE, "pool-3", b"r" * 32)]
    ),
    trust=st.sampled_from([_TRUST, _TRUST, TrustDirectory.single_issuer(ISSUER, _ISSUER_KEY)]),
)
def test_admit_agrees_with_the_full_path(phase, token, data, audience, at, keyring, trust):
    # The token is first presented on every channel at its issue time and
    # audience under the pool's keyring and trust directory, which opens a
    # session if one of them authenticates it.  Then it is presented on a
    # channel, more often one it passed on: ``admit`` answers with the very
    # peer the full path passes it with, or None when that raises or denies,
    # if its session was filled under the keyring and trust directory
    # presented with; with None otherwise.  The examples are the profile's:
    # derandomized, so each run checks the same ones.
    compiled = CompiledPolicy(apply_phase(_ADMIT_TABLE, phase))
    audience_then = token.claims.aud or "ce-1"
    passed_on = [
        name for name in _CHANNELS
        if full_path(compiled, name, token, audience_then, NOW, _LIVE, _TRUST) is not None
    ]
    channel = data.draw(st.sampled_from(passed_on or _CHANNELS) | st.sampled_from(_CHANNELS))
    claims = token.claims
    now = {
        "iat-61": claims.iat - DEFAULT_SKEW - 1,
        "iat-60": claims.iat - DEFAULT_SKEW,
        "iat": claims.iat,
        "exp+60": claims.exp + DEFAULT_SKEW,
        "exp+61": claims.exp + DEFAULT_SKEW + 1,
    }[at]
    sessions = compiled.sessions
    warm = token.compact in sessions and sessions.keyring is keyring and sessions.trust is trust
    admitted = compiled.admit(compiled.channels[channel], token, audience, now, keyring, trust)
    passed = full_path(compiled, channel, token, audience, now, keyring, trust)
    assert admitted is (passed if warm else None)


# -- authorize --------------------------------------------------------------


def peer_with(levels=frozenset(), scopes=frozenset()):
    return AuthenticatedPeer(
        canonical_identity="x",
        method=AuthMethod.IDTOKEN,
        granted_levels=frozenset(levels),
        granted_scopes=frozenset(scopes),
    )


def test_authorize_level_requirements():
    pol = ChannelPolicy((AuthMethod.IDTOKEN,), AuthzLevel.ADVERTISE)
    assert authorize(peer_with({AuthzLevel.DAEMON}), pol).allowed
    denied = authorize(peer_with({AuthzLevel.READ}), pol)
    assert not denied.allowed
    assert denied.missing == ("ADVERTISE",)


def test_authorize_scope_requirements_and_admin_bypass():
    pol = ChannelPolicy(
        (AuthMethod.SCITOKEN,), required_scopes=frozenset({"a", "b"})
    )
    assert authorize(peer_with(scopes={"a", "b", "c"}), pol).allowed
    denied = authorize(peer_with(scopes={"a"}), pol)
    assert not denied.allowed
    assert denied.missing == ("b",)
    # Legacy peers hold ADMIN, which bypasses capability gates.
    assert authorize(peer_with(levels={AuthzLevel.ADMIN}), pol).allowed


# -- phase projection -------------------------------------------------------


def methods_of(table, channel):
    return table.channels[channel].methods


def test_apply_phase_gsi_only_strips_tokens_from_legacy_channels():
    projected = apply_phase(default_table(), MigrationPhase.GSI_ONLY)
    assert methods_of(projected, CH_SUBMIT) == (AuthMethod.LOCAL_FS,)
    assert methods_of(projected, CH_ADVERTISE) == (AuthMethod.GSI_PROXY,)
    # A channel born token-only has no pre-token shape; it keeps its method.
    assert methods_of(projected, CH_TOKEN_FETCH) == (AuthMethod.IDTOKEN,)


def test_apply_phase_fallback_keeps_every_method_of_the_default_table_in_order():
    # The default table lists tokens first, and the projection keeps its order.
    projected = apply_phase(default_table(), MigrationPhase.TOKEN_WITH_GSI_FALLBACK)
    for channel, pol in projected.channels.items():
        original = default_table().channels[channel]
        assert set(pol.methods) == set(original.methods)
        seen_legacy = False
        for method in pol.methods:
            if method in (AuthMethod.GSI_PROXY, AuthMethod.LOCAL_FS):
                seen_legacy = True
            else:
                assert not seen_legacy, f"{channel}: token after legacy"


def test_apply_phase_keeps_a_legacy_first_order_and_negotiation_still_picks_the_token():
    channel = CH_ADVERTISE
    legacy_first = PolicyTable(
        {channel: ChannelPolicy((AuthMethod.GSI_PROXY, AuthMethod.IDTOKEN), AuthzLevel.ADVERTISE)}, ()
    )
    projected = {phase: apply_phase(legacy_first, phase).channels[channel].methods for phase in MigrationPhase}
    assert projected == {
        MigrationPhase.GSI_ONLY: (AuthMethod.GSI_PROXY,),
        MigrationPhase.TOKEN_WITH_GSI_FALLBACK: (AuthMethod.GSI_PROXY, AuthMethod.IDTOKEN),
        MigrationPhase.TOKEN_ONLY: (AuthMethod.IDTOKEN,),
    }
    fallback = projected[MigrationPhase.TOKEN_WITH_GSI_FALLBACK]
    both = [AuthMethod.GSI_PROXY, AuthMethod.IDTOKEN]
    assert negotiate_method(both, fallback) is AuthMethod.IDTOKEN
    assert negotiate_method(both[:1], fallback) is AuthMethod.GSI_PROXY


def test_apply_phase_token_only_removes_legacy_everywhere():
    projected = apply_phase(default_table(), MigrationPhase.TOKEN_ONLY)
    for channel, pol in projected.channels.items():
        assert AuthMethod.GSI_PROXY not in pol.methods, channel
        assert AuthMethod.LOCAL_FS not in pol.methods, channel
    assert methods_of(projected, CH_CE_SUBMIT) == (AuthMethod.SCITOKEN,)


def test_apply_phase_token_only_may_empty_a_channel():
    legacy_only = PolicyTable(
        {
            CH_SUBMIT: ChannelPolicy(
                (AuthMethod.LOCAL_FS,), AuthzLevel.WRITE
            )
        },
        (),
    )
    projected = apply_phase(legacy_only, MigrationPhase.TOKEN_ONLY)
    assert projected.channels[CH_SUBMIT].methods == ()


def test_apply_phase_preserves_requirements_and_identity_map():
    table = default_table()
    projected = apply_phase(table, MigrationPhase.TOKEN_ONLY)
    assert projected.identity_map == table.identity_map
    for channel, pol in projected.channels.items():
        original = table.channels[channel]
        assert pol.required_level == original.required_level
        assert pol.required_scopes == original.required_scopes
