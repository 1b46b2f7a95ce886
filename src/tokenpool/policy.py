"""Per-channel authentication negotiation and the authorization lattice.

Every directed link between two daemon roles is a channel with an ordered
list of acceptable authentication methods and an authorization
requirement (a level for pool-protocol channels, a scope set for
capability-guarded ones).  Token methods are always preferred over
legacy methods during negotiation regardless of how the lists are
ordered.  Authorization decisions are values, not exceptions: a denial
carries the missing rights.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping, Sequence

from .errors import (
    InvalidClaims,
    InvalidPolicy,
    NoCommonMethod,
    ProxyExpired,
    UnmappedIdentity,
    UntrustedCA,
)
from .jose import SCITOKEN_ALG, Token
from .tokens import (
    DEFAULT_SKEW,
    SymmetricKeyring,
    TrustDirectory,
    VerifiedCapability,
    VerifiedIdentity,
    verify_idtoken,
    verify_scitoken,
)


class AuthMethod(enum.Enum):
    IDTOKEN = "IDTOKEN"
    SCITOKEN = "SCITOKEN"
    GSI_PROXY = "GSI_PROXY"
    LOCAL_FS = "LOCAL_FS"


#: The members presentation reads, bound once in definition order: on
#: Python 3.10 and 3.11 a read through the class goes through
#: ``EnumMeta.__getattr__``.
_IDTOKEN, _SCITOKEN, _GSI_PROXY, _LOCAL_FS = AuthMethod

TOKEN_METHODS = frozenset({AuthMethod.IDTOKEN, AuthMethod.SCITOKEN})
LEGACY_METHODS = frozenset({AuthMethod.GSI_PROXY, AuthMethod.LOCAL_FS})


class AuthzLevel(enum.Enum):
    READ = "READ"
    WRITE = "WRITE"
    ADVERTISE = "ADVERTISE"
    DAEMON = "DAEMON"
    ADMIN = "ADMIN"


#: The privilege order: holding a level satisfies every level it maps to.
_DOMINATES: dict[AuthzLevel, frozenset[AuthzLevel]] = {
    AuthzLevel.READ: frozenset({AuthzLevel.READ}),
    AuthzLevel.WRITE: frozenset({AuthzLevel.WRITE}),
    AuthzLevel.ADVERTISE: frozenset({AuthzLevel.ADVERTISE}),
    AuthzLevel.DAEMON: frozenset({AuthzLevel.DAEMON, AuthzLevel.ADVERTISE}),
    AuthzLevel.ADMIN: frozenset(AuthzLevel),
}

#: The held levels that pass a channel outright, by the level it requires:
#: those dominating it, or ADMIN alone on a scope-guarded channel (``None``),
#: because operators bypass capability gates.
_SATISFIED_BY: dict[AuthzLevel | None, frozenset[AuthzLevel]] = {
    **{req: frozenset(h for h in AuthzLevel if req in _DOMINATES[h]) for req in AuthzLevel},
    None: frozenset({AuthzLevel.ADMIN}),
}
_ALL_LEVELS = frozenset(AuthzLevel)
_LEVEL_NAMES = frozenset(level.value for level in AuthzLevel)

#: The level set each ``authz_limits`` claim names, one entry per subset of
#: the level names; no limits claim means every level, the token wielding
#: its identity's full rights.  Sessions share these sets.
_LEVELS_NAMED: dict[frozenset[str], frozenset[AuthzLevel]] = {
    frozenset(level.value for level in levels): frozenset(levels) or _ALL_LEVELS
    for n in range(len(AuthzLevel) + 1)
    for levels in combinations(AuthzLevel, n)
}


def dominates(held: AuthzLevel, required: AuthzLevel) -> bool:
    """True if holding ``held`` satisfies a requirement of ``required``."""
    return required in _DOMINATES[held]


class MigrationPhase(enum.Enum):
    GSI_ONLY = "GSI_ONLY"
    TOKEN_WITH_GSI_FALLBACK = "TOKEN_WITH_GSI_FALLBACK"
    TOKEN_ONLY = "TOKEN_ONLY"


#: Methods a channel may use under each phase.
PHASE_PERMITS: dict[MigrationPhase, frozenset[AuthMethod]] = {
    MigrationPhase.GSI_ONLY: LEGACY_METHODS,
    MigrationPhase.TOKEN_WITH_GSI_FALLBACK: frozenset(AuthMethod),
    MigrationPhase.TOKEN_ONLY: TOKEN_METHODS,
}


#: The pool's six authenticated channels, each named ``SRC->DST`` by the
#: two daemons it joins, as the trace writes it.
CH_SUBMIT = "WMCLIENT->SCHEDD"
CH_ADVERTISE = "SCHEDD->COLLECTOR"
CH_TOKEN_FETCH = "FRONTEND->ISSUER"
CH_PROVISION = "FRONTEND->FACTORY"
CH_CE_SUBMIT = "FACTORY->CE"
CH_JOIN = "STARTD->COLLECTOR"

#: The channels that can lose a message, the collector's two inbound ones:
#: ``World.dropped`` draws a ``MESSAGE_DROP`` fault's losses on no other.
DROP_CHANNELS = (CH_ADVERTISE, CH_JOIN)


@dataclass(frozen=True)
class ProxyCredential:
    """A legacy X.509 proxy: a DN, an expiry instant, and the signing CA."""

    distinguished_name: str
    expiry: int
    attested_by: str


@dataclass(frozen=True)
class LocalFsCredential:
    """Filesystem-mediated identity: valid only on the verifying host."""

    account: str
    host: str


Credential = Token | ProxyCredential | LocalFsCredential


@dataclass(frozen=True)
class ChannelPolicy:
    """What a channel accepts and what it requires once authenticated.

    Exactly one of ``required_level`` / ``required_scopes`` is set.
    ``satisfied_by`` is derived from it: the held levels that pass the
    channel outright, one set per requirement built once from the
    privilege order.
    """

    methods: tuple[AuthMethod, ...]
    required_level: AuthzLevel | None = None
    required_scopes: frozenset[str] = frozenset()
    satisfied_by: frozenset[AuthzLevel] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        has_level = self.required_level is not None
        has_scopes = bool(self.required_scopes)
        if has_level == has_scopes:
            raise InvalidPolicy("channel needs exactly one of level / scopes")
        object.__setattr__(self, "satisfied_by", _SATISFIED_BY[self.required_level])


@dataclass(frozen=True)
class PolicyTable:
    """Closed-world channel map plus the pool-wide identity map.

    ``identity_map`` rewrites authenticated names to canonical pool
    identities; first match wins.  Patterns are literal or end in a
    single ``*`` wildcard.
    """

    channels: Mapping[str, ChannelPolicy]
    identity_map: tuple[tuple[str, str], ...] = ()

    def map_identity(self, raw: str) -> str:
        for pattern, target in self.identity_map:
            if pattern.endswith("*"):
                if raw.startswith(pattern[:-1]):
                    return target
            elif raw == pattern:
                return target
        raise UnmappedIdentity(f"no mapping for {raw!r}")


class Sessions(dict):
    """A World's security sessions: ``sessions[token.compact]`` is the peer
    :func:`authenticate` returned when it fully verified ``token``, much as
    HTCondor reuses an authenticated security session.

    The table holds what a session stands for: the identity map of
    ``table``, the ``keyring`` and the ``trust`` directory every token it
    sees is verified against.  A new keyring (:meth:`rekey`) empties it, so
    a session is good only under the keyring it was filled under; the trust
    directory never changes.  Which methods a channel accepts is checked at
    every presentation, so a session outlives a phase switch.  Only
    successes are opened, and a session lives until its token's holder
    drops it.  Sessions with equal peers share one peer object, held once
    in ``_peers``.
    """

    __slots__ = ("table", "keyring", "trust", "_peers")

    def __init__(
        self, table: PolicyTable, keyring: SymmetricKeyring, trust: TrustDirectory
    ) -> None:
        super().__init__()
        self.table = table
        self.keyring = keyring
        self.trust = trust
        self._peers: dict[AuthenticatedPeer, AuthenticatedPeer] = {}

    def rekey(self, keyring: SymmetricKeyring) -> None:
        """Verify against ``keyring`` from now on, dropping every session."""
        self.clear()
        self._peers.clear()
        self.keyring = keyring

    def open(self, token: Token, peer: AuthenticatedPeer) -> AuthenticatedPeer:
        """Remember ``peer`` as ``token``'s session and return it, or the
        equal peer a session of this table already holds."""
        peer = self[token.compact] = self._peers.setdefault(peer, peer)
        return peer

    def admit(
        self, pol: ChannelPolicy, token: Token, audience: str, now: int
    ) -> AuthenticatedPeer | None:
        """The peer of ``token``'s session if this presentation of it passes,
        else None, for :func:`authenticate` and :func:`authorize` to decide.

        Only what can differ between presentations is checked: the
        channel's method, the time window at ``now`` and, for a capability
        token, the audience; then the authorization, which for a
        capability's peer is the scope coverage.  The full path refuses
        whatever this refuses, at the check that failed here, since
        verification runs the same checks in the same order.  Raises
        nothing.
        """
        peer = self.get(token.compact)
        if peer is None or peer.method not in pol.methods:
            return None
        claims = token.claims
        if not claims.iat - DEFAULT_SKEW <= now <= claims.exp + DEFAULT_SKEW:
            return None
        if peer.method is _SCITOKEN and claims.aud != audience:
            return None
        return peer if authorize(peer, pol) is ALLOWED else None


def validate_table(table: PolicyTable) -> None:
    """Reject method-less channels and malformed identity-map patterns."""
    for channel, pol in table.channels.items():
        if not pol.methods:
            raise InvalidPolicy(f"channel {channel} lists no methods")
        if len(set(pol.methods)) != len(pol.methods):
            raise InvalidPolicy(f"channel {channel} repeats a method")
    for pattern, _ in table.identity_map:
        if "*" in pattern[:-1]:
            raise InvalidPolicy(f"wildcard only allowed at end: {pattern!r}")
        if not pattern:
            raise InvalidPolicy("empty identity-map pattern")


def negotiate_method(
    offered: Sequence[AuthMethod], accepted: Sequence[AuthMethod]
) -> AuthMethod:
    """Pick the method a client/server pair will use.

    Token methods win over legacy ones no matter how either side orders
    its list; ties break on the server's (``accepted``) order.

    Raises:
        NoCommonMethod: no overlap between the two lists.
    """
    offered_set = set(offered)
    ranked = [m for m in accepted if m in TOKEN_METHODS] + [
        m for m in accepted if m not in TOKEN_METHODS
    ]
    for method in ranked:
        if method in offered_set:
            return method
    raise NoCommonMethod(
        f"offered {[m.value for m in offered]} vs accepted {[m.value for m in accepted]}"
    )


@dataclass(frozen=True, slots=True)
class AuthenticatedPeer:
    """Outcome of authentication on one channel: who, how, with what rights."""

    canonical_identity: str
    method: AuthMethod
    granted_levels: frozenset[AuthzLevel]
    granted_scopes: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Decision:
    allowed: bool
    missing: tuple[str, ...] = ()


#: The one allowed decision; it is immutable, so every caller shares it.
ALLOWED = Decision(True)


#: Levels granted to peers arriving over legacy methods: the old scheme
#: had no per-token attenuation, a verified peer could do anything its
#: mapped identity could.
_LEGACY_LEVELS = frozenset({AuthzLevel.ADMIN})


def authenticate(
    channel: str,
    pol: ChannelPolicy,
    credential: Credential,
    *,
    sessions: Sessions,
    trusted_cas: frozenset[str] = frozenset(),
    local_host: str = "",
    expected_audience: str = "",
    now: int = 0,
) -> AuthenticatedPeer:
    """Authenticate one credential on ``channel``, whose policy is ``pol``.

    The method is the credential's (:func:`credential_method`) and must
    appear in the channel's accepted list.  A token is verified against
    ``sessions.keyring`` or ``sessions.trust``, and the authenticated name
    is rewritten through the identity map of ``sessions.table``.

    A token is always verified in full, and opens a session in
    ``sessions`` if it passes; a presentation on an open session is
    :meth:`Sessions.admit`'s to answer, and comes here only when that
    refuses it.

    Raises:
        NoCommonMethod: the inferred method is not accepted here.
        ProxyExpired, UntrustedCA: legacy proxy failures.
        UnmappedIdentity: no identity-map entry matched.
        TokenError subclasses: token verification failures.
    """
    if isinstance(credential, ProxyCredential):
        _require(_GSI_PROXY, pol, channel)
        if credential.attested_by not in trusted_cas:
            raise UntrustedCA(f"CA {credential.attested_by!r} not trusted")
        if now >= credential.expiry:
            raise ProxyExpired(f"proxy expired at {credential.expiry} (now {now})")
        identity = sessions.table.map_identity(credential.distinguished_name)
        return AuthenticatedPeer(
            canonical_identity=identity,
            method=_GSI_PROXY,
            granted_levels=_LEGACY_LEVELS,
        )

    if isinstance(credential, LocalFsCredential):
        _require(_LOCAL_FS, pol, channel)
        if credential.host != local_host:
            raise UntrustedCA(
                f"filesystem credential from {credential.host!r} presented on {local_host!r}"
            )
        identity = sessions.table.map_identity(credential.account)
        return AuthenticatedPeer(
            canonical_identity=identity,
            method=_LOCAL_FS,
            granted_levels=_LEGACY_LEVELS,
        )

    if credential_method(credential) is _SCITOKEN:
        _require(_SCITOKEN, pol, channel)
        cap: VerifiedCapability = verify_scitoken(
            credential, sessions.trust, expected_audience, pol.required_scopes, now
        )
        identity = sessions.table.map_identity(cap.subject)
        return sessions.open(
            credential,
            AuthenticatedPeer(
                canonical_identity=identity,
                method=_SCITOKEN,
                granted_levels=frozenset(),
                granted_scopes=cap.granted_scopes,
            ),
        )

    _require(_IDTOKEN, pol, channel)
    ident: VerifiedIdentity = verify_idtoken(credential, sessions.keyring, now)
    identity = sessions.table.map_identity(ident.subject)
    levels = _LEVELS_NAMED.get(ident.authz_limits)
    if levels is None:
        bad = ", ".join(sorted(ident.authz_limits - _LEVEL_NAMES))
        raise InvalidClaims(f"unknown authz limits: {bad}")
    return sessions.open(
        credential,
        AuthenticatedPeer(
            canonical_identity=identity,
            method=_IDTOKEN,
            granted_levels=levels,
        ),
    )


def credential_method(credential: Credential) -> AuthMethod:
    """The method a credential authenticates with: a legacy credential's
    type decides, a token's algorithm.  The one place that maps the two."""
    if isinstance(credential, ProxyCredential):
        return _GSI_PROXY
    if isinstance(credential, LocalFsCredential):
        return _LOCAL_FS
    return _SCITOKEN if credential.header.alg == SCITOKEN_ALG else _IDTOKEN


def _require(method: AuthMethod, pol: ChannelPolicy, channel: str) -> None:
    if method not in pol.methods:
        raise NoCommonMethod(f"{method.value} not accepted on {channel}")


def authorize(peer: AuthenticatedPeer, pol: ChannelPolicy) -> Decision:
    """Decide whether an authenticated peer may use the channel.

    Level requirements are satisfied by any held level that dominates
    the requirement.  Scope requirements are satisfied by scope
    coverage, or by a peer holding ADMIN (operators bypass capability
    gates).  Both level tests are one look at ``pol.satisfied_by``.
    """
    if not pol.satisfied_by.isdisjoint(peer.granted_levels):
        return ALLOWED
    if pol.required_level is not None:
        return Decision(False, (pol.required_level.value,))
    missing = tuple(sorted(pol.required_scopes - peer.granted_scopes))
    if missing:
        return Decision(False, missing)
    return ALLOWED


# ---------------------------------------------------------------------------
# The pool's default channel map.

JOB_SUBMIT_SCOPE = "compute.create"


def default_channels() -> dict[str, ChannelPolicy]:
    """The six inter-daemon channels of the pool, pre-migration shape:
    tokens listed alongside the legacy method wherever both exist."""
    return {
        CH_SUBMIT: ChannelPolicy((AuthMethod.IDTOKEN, AuthMethod.LOCAL_FS), AuthzLevel.WRITE),
        CH_ADVERTISE: ChannelPolicy((AuthMethod.IDTOKEN, AuthMethod.GSI_PROXY), AuthzLevel.ADVERTISE),
        CH_TOKEN_FETCH: ChannelPolicy((AuthMethod.IDTOKEN,), AuthzLevel.READ),
        CH_PROVISION: ChannelPolicy((AuthMethod.IDTOKEN, AuthMethod.GSI_PROXY), AuthzLevel.WRITE),
        CH_CE_SUBMIT: ChannelPolicy(
            (AuthMethod.SCITOKEN, AuthMethod.GSI_PROXY),
            required_scopes=frozenset({JOB_SUBMIT_SCOPE}),
        ),
        CH_JOIN: ChannelPolicy((AuthMethod.IDTOKEN, AuthMethod.GSI_PROXY), AuthzLevel.ADVERTISE),
    }


def default_identity_map() -> tuple[tuple[str, str], ...]:
    return (
        ("condor@*", "pool-daemon"),
        ("schedd@*", "pool-daemon"),
        ("startd@*", "pool-daemon"),
        ("factory@*", "pool-daemon"),
        ("frontend@*", "cms-frontend"),
        ("cmsprod*", "cms-prod"),
        ("cms-pilot*", "cms-pilot"),
        ("/DC=ch/DC=cern/OU=computers/CN=*", "pool-daemon"),
        ("/DC=org/DC=cilogon/C=US/O=CMS/CN=Frontend*", "cms-frontend"),
        ("/DC=org/DC=cilogon/C=US/O=CMS/CN=Pilot*", "cms-pilot"),
    )


def default_table() -> PolicyTable:
    table = PolicyTable(default_channels(), default_identity_map())
    validate_table(table)
    return table


def apply_phase(table: PolicyTable, phase: MigrationPhase) -> PolicyTable:
    """Project a channel map through a migration phase.

    GSI_ONLY drops token methods from any channel that still has a
    legacy method (token-only channels are left alone: they have no
    pre-token shape to fall back to).  The fallback phase keeps
    everything.  TOKEN_ONLY drops the legacy methods everywhere; a channel
    may end up with no methods at all, in which case negotiation on it
    fails until its parties learn tokens.  Each channel keeps the table's
    method order: ``negotiate_method`` ranks tokens first on every call.
    """
    permitted = PHASE_PERMITS[phase]
    channels: dict[str, ChannelPolicy] = {}
    for channel, pol in table.channels.items():
        if phase is MigrationPhase.GSI_ONLY and not any(
            m in LEGACY_METHODS for m in pol.methods
        ):
            methods = pol.methods
        else:
            methods = tuple(m for m in pol.methods if m in permitted)
        channels[channel] = ChannelPolicy(methods, pol.required_level, pol.required_scopes)
    return PolicyTable(channels, table.identity_map)
