"""The pool's daemons as deterministic state machines over the engine.

One World object owns the clock, RNG streams, trace, fault board,
keyring, trust directory, and every actor.  Requests (submit, advertise,
token fetch, provisioning, gateway submission, join, keepalive) are
authenticated; responses ride the requester's already-authenticated
session and are not separately checked.
"""

from __future__ import annotations

import enum
import heapq
import weakref
from dataclasses import dataclass, field

from . import jose
from .errors import (
    AUTH_REJECTED,
    CAPACITY_EXCEEDED,
    DEPRECATED_INTERFACE,
    IDLE,
    KEY_COMPROMISE,
    MISMATCHED_CREDENTIAL,
    AuthorizationDenied,
    NoCommonMethod,
    TokenPoolError,
    UnauthorizedRequestor,
    UntrustedIssuer,
)
from .policy import (
    CH_ADVERTISE,
    CH_CE_SUBMIT,
    CH_JOIN,
    CH_PROVISION,
    CH_SUBMIT,
    CH_TOKEN_FETCH,
    JOB_SUBMIT_SCOPE,
    AuthenticatedPeer,
    AuthMethod,
    CompiledPolicy,
    Credential,
    LocalFsCredential,
    MigrationPhase,
    ProxyCredential,
    apply_phase,
    authenticate,
    authorize,
    credential_method,
    default_table,
    negotiate_method,
)
from .scenario import CEFlavor, CEInterface, CESpec, ClientSpec, FactorySpec, Scenario
from .simnet import (
    Engine,
    Fault,
    FaultBoard,
    FaultKind,
    OUTCOME_DENIED,
    OUTCOME_DROP,
    OUTCOME_SUCCESS,
    RngStreams,
    Trace,
    TRACE_JOB,
    TRACE_PILOT,
    TRACE_PLAN,
    TRACE_POOL,
    fail_outcome,
    message_dropped,
)
from .tokens import (
    IssuerKey,
    KeyStatus,
    SymmetricKeyring,
    TrustDirectory,
    mint_idtoken,
    mint_scitoken,
    revoke_key,
    rotate_key,
)

DAEMON_TOKEN_LIFETIME = 86400


class PilotState(enum.Enum):
    REQUESTED = "REQUESTED"
    SUBMITTED = "SUBMITTED"
    STARTED = "STARTED"
    JOINED = "JOINED"
    MATCHED = "MATCHED"
    RETIRED = "RETIRED"
    FAILED = "FAILED"


#: The members the per-pilot and per-message paths read, bound once (a
#: class's in definition order): on Python 3.10 and 3.11 a read through the
#: class goes through ``EnumMeta.__getattr__``.
_REQUESTED, _SUBMITTED, _STARTED, _JOINED, _MATCHED, _RETIRED, _FAILED = PilotState
_MESSAGE_DROP, _CE_TOKEN_MISCONFIG, _CE_STUCK_SUBMISSION = (
    FaultKind.MESSAGE_DROP, FaultKind.CE_TOKEN_MISCONFIG, FaultKind.CE_STUCK_SUBMISSION
)
#: The states of a pilot that is a member of the pool.
_IN_POOL = (_JOINED, _MATCHED)


@dataclass(order=True, slots=True)
class Job:
    #: Creation sequence, the only key jobs are ordered by.
    seq: int
    duration: int = field(compare=False)

    @property
    def id(self) -> str:
        """The job's name in records, formatted where one is written."""
        return f"job-{self.seq:05d}"


@dataclass(slots=True)
class Pilot:
    """One pilot's ledger entry.

    Each pending pilot event is one of the methods below bound to the pilot,
    one small object per event; it calls its actor through ``world``, the
    World's weak proxy, so a pilot never keeps its World alive.
    """

    id: str
    ce_id: str
    state: PilotState
    world: "World" = field(repr=False, compare=False)
    #: The identity token it carries to the collector, minted once its
    #: gateway accepts it; its header names the pilot's key.
    token: jose.Token | None = None
    joined_at: int | None = None
    #: The job this pilot runs, set only while it is MATCHED.
    job: Job | None = None

    def started(self) -> None:
        self.world.ces[self.ce_id].pilot_started(self)

    def join(self) -> None:
        self.world.collector.receive_join(self)

    def keepalive(self) -> None:
        self.world.collector.keepalive(self)

    def idle_check(self) -> None:
        self.world.collector.idle_check(self)

    def job_done(self) -> None:
        self.world.collector.job_done(self)


def _join_detail(first: str, second: str) -> str:
    """The two parts of a detail joined by a space, or the one that is not empty."""
    return f"{first} {second}" if first and second else first or second


class World:
    """Everything one run owns: clock, randomness, trust, actors, ledger.

    Actors reach their World through a weak proxy, so nothing in a World
    refers back to it and a World nobody holds is freed at once.
    """

    SCHEDD_HOST = "schedd.cmspool"
    CA = "cms-ca"
    POOL_ISSUER = "cmspool"

    def __init__(self, scenario: Scenario, trace: Trace | None = None) -> None:
        self.scenario = scenario
        self.engine = Engine()
        self.streams = RngStreams(scenario.seed)
        self.trace = Trace() if trace is None else trace
        self.board = FaultBoard()

        secrets_by_kid = {
            k.kid: self.streams.stream(f"key/{k.kid}").randbytes(32)
            for k in scenario.keys
        }
        self.keyring = SymmetricKeyring.from_secrets(secrets_by_kid)
        self.daemon_kid = next(k.kid for k in scenario.keys if k.purpose == "daemon")
        self.startd_kids = [k.kid for k in scenario.keys if k.purpose == "startd"]
        self.startd_rr = 0

        self.issuer_key = IssuerKey.generate(
            scenario.issuer.kid, seed=self.streams.stream("issuer-key").randbytes(32)
        )
        self.trust = TrustDirectory.single_issuer(scenario.issuer.url, self.issuer_key)
        self.trusted_cas = frozenset({self.CA})
        #: The proxy every factory submits pilots with, and the one pilots
        #: present to the collector when it takes no token from them.
        self.pilot_proxy = ProxyCredential(
            "/DC=org/DC=cilogon/C=US/O=CMS/CN=Pilot/cms", 10**9, self.CA
        )

        self.base_table = default_table()
        self.policy: CompiledPolicy  # compiled by set_phase, which start() calls first
        #: What pilots present to the collector in place of their token, set
        #: by set_phase: None while ``CH_JOIN`` takes IDTOKEN, else ``pilot_proxy``.
        self.join_proxy: ProxyCredential | None

        #: The 64-bit draws behind every jti handed out, by authority, less
        #: the draws given back (``give_back_draw``) because no token took them.
        self._used_jtis: dict[str, set[int]] = {}
        self._pilot_seq = 0
        self._job_seq = 0
        #: JOINED pilots (joined, not yet matched) by id, kept by
        #: ``set_pilot_state``.
        self.joined: dict[str, Pilot] = {}
        #: Jobs no pilot runs: a heap in creation order.
        self.idle_jobs: list[Job] = []

        me = weakref.proxy(self)
        self.issuer = TokenIssuer(me)
        self.collector = Collector(me)
        self.schedd = Schedd(me)
        self.frontend = Frontend(me)
        self.ces = {spec.id: CEGateway(me, spec) for spec in scenario.ces}
        self.factories = {spec.id: Factory(me, spec) for spec in scenario.factories}
        self.clients = {spec.id: WMClient(me, spec) for spec in scenario.clients}
        self.controller = MigrationController(me)

    # -- identity and key helpers ------------------------------------------

    def next_draw(self, authority: str) -> int:
        """A 64-bit draw no earlier jti of ``authority`` holds, now in its
        ledger; the jti is the draw as 16 hex digits."""
        used = self._used_jtis.get(authority)
        if used is None:
            used = self._used_jtis[authority] = set()
        rng = self.streams.stream(f"jti/{authority}")
        while True:
            draw = rng.getrandbits(64)
            if draw not in used:
                used.add(draw)
                return draw

    def give_back_draw(self, authority: str, draw: int) -> None:
        """Take ``draw`` out of ``authority``'s ledger: no token carries it."""
        self._used_jtis[authority].discard(draw)

    def next_jti(self, authority: str) -> str:
        return f"{self.next_draw(authority):016x}"

    def mint_daemon_idtoken(self, subject: str, limits: tuple[str, ...]) -> jose.Token:
        return mint_idtoken(
            self.keyring,
            self.daemon_kid,
            subject,
            limits,
            DAEMON_TOKEN_LIFETIME,
            self.engine.now,
            issuer=self.POOL_ISSUER,
            jti=self.next_jti("pool"),
        )

    def startd_identity(self) -> tuple[str, int]:
        """The next ACTIVE worker key, round-robin, and the draw behind the
        jti of the identity token a pilot will carry to the collector."""
        kid = self.startd_kids[self.startd_rr % len(self.startd_kids)]
        self.startd_rr += 1
        return kid, self.next_draw("pool")

    def mint_startd_token(self, pilot: Pilot, kid: str, draw: int) -> jose.Token:
        """Mint the pilot's identity token under ``kid``, its jti ``draw``."""
        return mint_idtoken(
            self.keyring,
            kid,
            f"startd@{pilot.id}",
            ("ADVERTISE",),
            self.scenario.pilots.token_lifetime,
            self.engine.now,
            issuer=self.POOL_ISSUER,
            jti=f"{draw:016x}",
        )

    def forget_token(self, token: jose.Token) -> None:
        """Drop ``token``'s session: its holder ended (``end_pilot``) or
        replaced it (``Frontend.refresh_capabilities``, ``WMClient.renew_token``).
        A key rotation needs no call: a new keyring starts the sessions over."""
        self.policy.sessions.pop(token.compact, None)

    # -- authenticated requests --------------------------------------------

    def authenticate_on(
        self, channel: str, credential: Credential, *, audience: str = "", detail: str = ""
    ) -> AuthenticatedPeer:
        """Authenticate + authorize one request, recording the outcome.

        A token on an open session that ``admit`` takes skips verification;
        anything else is authenticated in full, then authorized.  Raises
        the underlying failure after recording it, so callers decide
        retry/fallback while the trace stays complete.
        """
        compiled = self.policy
        pol = compiled.channels[channel]
        now = self.engine.now
        is_token = isinstance(credential, jose.Token)
        peer = (
            compiled.admit(pol, credential, audience, now, self.keyring, self.trust)
            if is_token
            else None
        )
        if peer is None:
            try:
                peer = authenticate(
                    channel,
                    pol,
                    credential,
                    compiled=compiled,
                    keyring=self.keyring,
                    trust=self.trust,
                    trusted_cas=self.trusted_cas,
                    local_host=self.SCHEDD_HOST,
                    expected_audience=audience,
                    now=now,
                )
            except TokenPoolError as exc:
                method = credential_method(credential)._value_
                self.refuse(channel, exc.reason, method=method, detail=detail)
                raise
            decision = authorize(peer, pol)
            if not decision.allowed:
                self.trace.record(
                    now,
                    channel,
                    OUTCOME_DENIED,
                    method=peer.method._value_,
                    identity=peer.canonical_identity,
                    detail=_join_detail(detail, f"missing={','.join(decision.missing)}"),
                )
                raise AuthorizationDenied(f"missing {', '.join(decision.missing)}")
        if is_token:
            held = f"kid={credential.header.kid} jti={credential.claims.jti}"
            detail = _join_detail(detail, held)
        self.trace.record(
            now,
            channel,
            OUTCOME_SUCCESS,
            method=peer.method._value_,
            identity=peer.canonical_identity,
            detail=detail,
        )
        return peer

    def dropped(self, channel: str, credential: Credential, detail: str) -> bool:
        """Draw whether a message on ``channel`` is lost, recording the loss."""
        if _MESSAGE_DROP._value_ not in self.board.by_kind:
            return False  # no drop fault at all, so none to look up
        now = self.engine.now
        fault = self.board.active(_MESSAGE_DROP, channel, now)
        if fault is None or not message_dropped(fault, self.streams):
            return False
        self.trace.record(
            now, channel, OUTCOME_DROP, method=credential_method(credential)._value_, detail=detail
        )
        return True

    def refuse(
        self,
        channel: str,
        reason: str,
        *,
        method: str = "-",
        identity: str = "-",
        detail: str = "",
    ) -> None:
        """Record a request on ``channel`` refused for ``reason``: the one
        place a ``FAIL:<reason>`` record is written."""
        self.trace.record(
            self.engine.now,
            channel,
            fail_outcome(reason),
            method=method,
            identity=identity,
            detail=detail,
        )

    def negotiate(
        self,
        channel: str,
        offered: tuple[Credential, ...] | list[Credential],
        *,
        identity: str = "-",
        detail: str = "",
    ) -> Credential | None:
        """The credential of ``offered`` whose method ``channel`` will use,
        or None after refusing the request when the two share none."""
        by_method = {credential_method(credential): credential for credential in offered}
        try:
            method = negotiate_method(tuple(by_method), self.policy.channels[channel].methods)
        except NoCommonMethod as exc:
            self.refuse(channel, exc.reason, identity=identity, detail=detail)
            return None
        return by_method[method]

    # -- phase control ------------------------------------------------------

    def set_phase(self, phase: MigrationPhase) -> None:
        self.policy = CompiledPolicy(apply_phase(self.base_table, phase))
        join_methods = self.policy.channels[CH_JOIN].methods
        self.join_proxy = None if AuthMethod.IDTOKEN in join_methods else self.pilot_proxy
        self.trace.record(
            self.engine.now, TRACE_PLAN, "PHASE", detail=f"phase={phase._value_}"
        )

    # -- pilot / job ledger -------------------------------------------------

    @property
    def supply(self) -> int:
        """Pilots the pool can count on that run no job: those holding a
        gateway slot (from SUBMITTED until they end) less the MATCHED ones,
        the members not JOINED.  No pilot is REQUESTED between events."""
        reserved = sum(ce.reserved for ce in self.ces.values())
        return reserved - (len(self.collector.members) - len(self.joined))

    def new_pilot(self, ce: "CEGateway") -> Pilot:
        pid = f"pilot-{self._pilot_seq:05d}"
        self._pilot_seq += 1
        pilot = Pilot(id=pid, ce_id=ce.id, state=_REQUESTED, world=ce.world)
        self.pilot_record(pilot, _REQUESTED._value_)
        return pilot

    def set_pilot_state(self, pilot: Pilot, state: PilotState) -> None:
        """Every change of a pilot's state comes here, to keep ``joined``."""
        if pilot.state is _JOINED:
            del self.joined[pilot.id]
        if state is _JOINED:
            self.joined[pilot.id] = pilot
        pilot.state = state

    def pilot_event(
        self, pilot: Pilot, state: PilotState, extra: str = "", outcome: str = ""
    ) -> None:
        """Set the state and write its PILOT record, headed ``outcome`` if
        given, else the state's name."""
        self.set_pilot_state(pilot, state)
        self.pilot_record(pilot, outcome or state._value_, extra)

    def pilot_record(self, pilot: Pilot, outcome: str, extra: str = "") -> None:
        """The one writer of PILOT records; it leaves the pilot's state as it is."""
        detail = _join_detail(f"pilot={pilot.id} ce={pilot.ce_id}", extra)
        self.trace.record(self.engine.now, TRACE_PILOT, outcome, detail=detail)

    def job_record(self, outcome: str, job: Job, pilot: Pilot) -> None:
        """The one writer of the JOB records that name a job and its pilot."""
        detail = f"job={job.id} pilot={pilot.id}"
        self.trace.record(self.engine.now, TRACE_JOB, outcome, detail=detail)

    def end_pilot(
        self, pilot: Pilot, state: PilotState, extra: str = "", outcome: str = ""
    ) -> None:
        """Every way a pilot leaves the pool: once it left ``REQUESTED``, out
        of the collector and its gateway slot freed; a job it still holds
        requeued; then its one PILOT record as ``pilot_event`` writes it.
        The World forgets its token and keeps no other reference to it."""
        if pilot.token is not None:
            self.forget_token(pilot.token)
        # A pilot holds its gateway's slot from the moment it leaves REQUESTED.
        if pilot.state is not _REQUESTED:
            self.collector.members.pop(pilot.id, None)
            self.ces[pilot.ce_id].reserved -= 1
        job = pilot.job
        if job is not None:
            pilot.job = None
            heapq.heappush(self.idle_jobs, job)
            self.job_record("REQUEUE", job, pilot)
        self.pilot_event(pilot, state, extra, outcome)

    def fail_pilot(self, pilot: Pilot, reason: str) -> None:
        self.end_pilot(pilot, _FAILED, f"reason={reason}")

    def new_job(self, spec: ClientSpec) -> Job:
        seq = self._job_seq
        self._job_seq += 1
        job = Job(seq, spec.duration)
        heapq.heappush(self.idle_jobs, job)
        return job

    def factory_serving(self, ce_id: str) -> "Factory | None":
        for factory in self.factories.values():
            if ce_id in factory.entries:
                return factory
        return None

    # -- run ---------------------------------------------------------------

    def start(self) -> None:
        """Record the starting phase, arm faults and plan, seed the loops."""
        self.set_phase(self.scenario.phase)
        self.controller.wire_faults()
        self.controller.schedule_plan()
        for client in self.clients.values():
            self.engine.schedule_at(client.spec.submit_at, client.try_submit)
        self.engine.schedule_at(0, self.schedd.advertise)
        self.engine.schedule_at(0, self.collector.match_tick)
        self.engine.schedule_at(0, self.frontend.cycle)


class TokenIssuer:
    """Hands out gateway-scoped capability tokens to authorized callers."""

    AUTHORIZED = frozenset({"cms-frontend"})

    def __init__(self, world: World) -> None:
        self.world = world

    def fetch_capability(self, requester_credential: Credential, ce_id: str) -> jose.Token:
        w = self.world
        peer = w.authenticate_on(
            CH_TOKEN_FETCH, requester_credential, detail=f"aud={ce_id}"
        )
        if peer.canonical_identity not in self.AUTHORIZED:
            exc = UnauthorizedRequestor(
                f"{peer.canonical_identity!r} may not request capability tokens"
            )
            w.refuse(
                CH_TOKEN_FETCH,
                exc.reason,
                method=peer.method._value_,
                identity=peer.canonical_identity,
                detail=f"aud={ce_id}",
            )
            raise exc
        return mint_scitoken(
            w.issuer_key,
            w.scenario.issuer.url,
            "cms-pilot-ops",
            (JOB_SUBMIT_SCOPE,),
            ce_id,
            w.scenario.issuer.scitoken_lifetime,
            w.engine.now,
            jti=w.next_jti("issuer"),
        )


class WMClient:
    """A workload-management agent: submits one batch, retries on failure."""

    def __init__(self, world: World, spec: ClientSpec) -> None:
        self.world = world
        self.spec = spec
        self.submitted = False
        self.token: jose.Token | None = None
        if AuthMethod.IDTOKEN in spec.methods:
            self.renew_token()
        local = AuthMethod.LOCAL_FS in spec.methods
        self.local_fs = LocalFsCredential(spec.id, World.SCHEDD_HOST) if local else None

    def renew_token(self) -> None:
        """Mint the client's identity token, dropping the session of the one
        it replaces."""
        if self.token is not None:
            self.world.forget_token(self.token)
        self.token = self.world.mint_daemon_idtoken(self.spec.id, ("WRITE",))

    def try_submit(self) -> None:
        if self.submitted:
            return
        w = self.world
        batch = f"client={self.spec.id} jobs={self.spec.jobs}"
        offered = [c for c in (self.token, self.local_fs) if c is not None]
        credential = w.negotiate(CH_SUBMIT, offered, identity=self.spec.id, detail=batch)
        if credential is None:
            w.engine.schedule(self.spec.retry_interval, self.try_submit)
            return
        try:
            peer = w.authenticate_on(CH_SUBMIT, credential, detail=batch)
        except TokenPoolError:
            w.engine.schedule(self.spec.retry_interval, self.try_submit)
            return
        self.submitted = True
        w.schedd.accept_jobs(self.spec, peer)


class Schedd:
    """Queues jobs and advertises itself to the collector every cycle."""

    def __init__(self, world: World) -> None:
        self.world = world
        self.renew_token()
        self.proxy = ProxyCredential(
            "/DC=ch/DC=cern/OU=computers/CN=schedd.cmspool", 10**9, World.CA
        )

    def renew_token(self) -> None:
        """Mint the schedd's identity token under the current daemon key."""
        self.token = self.world.mint_daemon_idtoken("schedd@cmspool", ("ADVERTISE",))

    def accept_jobs(self, spec: ClientSpec, peer: AuthenticatedPeer) -> None:
        w = self.world
        for _ in range(spec.jobs):
            w.new_job(spec)
        w.trace.record(
            w.engine.now,
            TRACE_JOB,
            "QUEUED",
            identity=peer.canonical_identity,
            detail=f"client={spec.id} count={spec.jobs}",
        )

    def advertise(self) -> None:
        w = self.world
        credential = w.negotiate(CH_ADVERTISE, (self.token, self.proxy), detail="daemon=schedd")
        if credential is not None and not w.dropped(CH_ADVERTISE, credential, "daemon=schedd"):
            try:
                w.authenticate_on(CH_ADVERTISE, credential, detail="daemon=schedd")
            except TokenPoolError:
                pass
        w.engine.schedule(w.scenario.frontend.cycle, self.advertise)


class Collector:
    """Pool membership: joins, keepalives, matchmaking, evictions."""

    def __init__(self, world: World) -> None:
        self.world = world
        self.members: dict[str, Pilot] = {}

    def receive_join(self, pilot: Pilot) -> None:
        w = self.world
        if pilot.state is not _STARTED:
            return
        detail = f"pilot={pilot.id} join=1"
        credential = w.join_proxy or pilot.token
        if w.dropped(CH_JOIN, credential, detail):
            w.engine.schedule(w.scenario.pilots.keepalive, pilot.join)
            return
        try:
            w.authenticate_on(CH_JOIN, credential, detail=detail)
        except TokenPoolError as exc:
            w.fail_pilot(pilot, exc.reason)
            return
        pilot.joined_at = w.engine.now
        w.pilot_event(pilot, _JOINED, f"kid={pilot.token.header.kid}")
        self.members[pilot.id] = pilot
        w.engine.schedule(w.scenario.pilots.keepalive, pilot.keepalive)
        w.engine.schedule(w.scenario.frontend.pilot_max_idle, pilot.idle_check)

    def keepalive(self, pilot: Pilot) -> None:
        w = self.world
        if pilot.state not in _IN_POOL:
            return
        detail = f"pilot={pilot.id} keepalive=1"
        credential = w.join_proxy or pilot.token
        if not w.dropped(CH_JOIN, credential, detail):
            try:
                w.authenticate_on(CH_JOIN, credential, detail=detail)
            except TokenPoolError as exc:
                self.evict(pilot, exc.reason)
                return
        w.engine.schedule(w.scenario.pilots.keepalive, pilot.keepalive)

    def evict(self, pilot: Pilot, reason: str) -> None:
        self.world.end_pilot(
            pilot, _FAILED, f"kid={pilot.token.header.kid} reason={reason}", "EVICT"
        )

    def evict_by_kid(self, kid: str) -> list[Pilot]:
        hit = [p for p in self.members.values() if p.token.header.kid == kid]
        for pilot in hit:
            self.evict(pilot, KEY_COMPROMISE)
        return hit

    def idle_check(self, pilot: Pilot) -> None:
        if pilot.state is _JOINED:
            self.world.end_pilot(pilot, _RETIRED, f"reason={IDLE}")

    def match_tick(self) -> None:
        w = self.world
        now = w.engine.now
        # "pilot-100000" sorts before "pilot-99999", so a longer id goes last.
        idle_pilots = sorted(w.joined.values(), key=lambda p: (p.joined_at, len(p.id), p.id))
        matched = min(len(idle_pilots), len(w.idle_jobs))
        for pilot in idle_pilots[:matched]:
            job = heapq.heappop(w.idle_jobs)
            w.set_pilot_state(pilot, _MATCHED)
            pilot.job = job
            w.job_record("MATCH", job, pilot)
            w.engine.schedule(job.duration, pilot.job_done)
        joined = len(idle_pilots) - matched
        w.trace.record(
            now,
            TRACE_POOL,
            "SAMPLE",
            detail=f"joined={joined} matched={len(self.members) - joined} size={len(self.members)}",
        )
        w.engine.schedule(w.scenario.frontend.match_interval, self.match_tick)

    def job_done(self, pilot: Pilot) -> None:
        # A pilot is matched at most once and end_pilot clears its job, so a
        # pilot that lost its job (evicted, the job requeued) reports nothing.
        job = pilot.job
        if job is None:
            return
        w = self.world
        pilot.job = None
        w.job_record("DONE", job, pilot)
        w.end_pilot(pilot, _RETIRED, f"job={job.id}")


class Frontend:
    """Watches demand, keeps capability tokens fresh, requests pilots."""

    def __init__(self, world: World) -> None:
        self.world = world
        self.subject = "frontend@cmspool"
        self.renew_token()
        self.proxy = ProxyCredential(
            "/DC=org/DC=cilogon/C=US/O=CMS/CN=Frontend/cms", 10**9, World.CA
        )
        #: gateway id -> the capability token held for it
        self.scitokens: dict[str, jose.Token] = {}

    def renew_token(self) -> None:
        """Mint the frontend's identity token under the current daemon key."""
        self.token = self.world.mint_daemon_idtoken(self.subject, ("READ", "WRITE"))

    def refresh_capabilities(self) -> None:
        w = self.world
        if AuthMethod.SCITOKEN not in w.policy.channels[CH_CE_SUBMIT].methods:
            return  # no gateway takes a capability token in this phase
        now = w.engine.now
        lifetime = w.scenario.issuer.scitoken_lifetime
        for ce in w.ces.values():
            if not ce.accepts_tokens:
                continue
            cached = self.scitokens.get(ce.id)
            if cached is not None and now - cached.claims.iat < int(0.8 * lifetime):
                continue
            try:
                token = w.issuer.fetch_capability(self.token, ce.id)
            except TokenPoolError:
                continue
            if cached is not None:
                w.forget_token(cached)
            self.scitokens[ce.id] = token

    def capability_for(self, ce_id: str) -> jose.Token | None:
        token = self.scitokens.get(ce_id)
        if token is None or self.world.engine.now >= token.claims.exp:
            return None
        return token

    def provision_pairs(self) -> list[tuple["Factory", "CEGateway"]]:
        w = self.world
        return [
            (factory, w.ces[ce_id]) for factory in w.factories.values() for ce_id in factory.entries
        ]

    def cycle(self) -> None:
        w = self.world
        self.refresh_capabilities()
        deficit = max(0, len(w.idle_jobs) - w.supply)
        if deficit > 0:
            credential = w.negotiate(
                CH_PROVISION,
                (self.token, self.proxy),
                identity=self.subject,
                detail=f"deficit={deficit}",
            )
            if credential is not None:
                pairs = self.provision_pairs()
                cap = w.scenario.frontend.per_entry_cap
                for (factory, ce), count in _allocate(deficit, pairs, cap):
                    factory.handle_request(credential, ce, count)
        w.engine.schedule(w.scenario.frontend.cycle, self.cycle)


def _allocate(
    deficit: int, pairs: list[tuple[Factory, CEGateway]], cap: int
) -> list[tuple[tuple[Factory, CEGateway], int]]:
    """Spread demand evenly across every factory/gateway pair, each capped
    at ``cap`` per cycle, so no entry starves while another still has
    headroom: every pair gets ``q`` pilots and the first ``r`` one more,
    which is what handing them out one at a time in pair order gives.
    Pairs that get none are left out."""
    n = len(pairs)
    if n == 0:
        return []
    q, r = divmod(min(deficit, n * cap), n)
    return [(pair, q + (i < r)) for i, pair in enumerate(pairs) if q + (i < r)]


class Factory:
    """Turns frontend pressure into gateway submissions."""

    def __init__(self, world: World, spec: FactorySpec) -> None:
        self.world = world
        self.id = spec.id
        self.condor_major = spec.condor_major
        self.rest_adopted = spec.rest_adopted
        self.token_capable = spec.token_capable
        #: The gateways it submits to: its spec's, or every one if that names none.
        self.entries = spec.entries or tuple(world.ces)

    def handle_request(self, frontend_credential: Credential, ce: "CEGateway", count: int) -> None:
        """Authenticate the frontend's request, then submit ``count`` pilots to
        ``ce``, its interface and credentials resolved once for them all."""
        w = self.world
        try:
            w.authenticate_on(
                CH_PROVISION,
                frontend_credential,
                detail=f"factory={self.id} ce={ce.id} pilots={count}",
            )
        except TokenPoolError:
            return
        interface = self.select_interface(ce)
        credentials = self.credentials_for(ce)
        for _ in range(count):
            self.submit_one(ce, interface, credentials)

    def select_interface(self, ce: "CEGateway") -> CEInterface | None:
        """Pick the submission interface, or None when only the retired
        legacy path would remain."""
        if ce.flavor is CEFlavor.HTCONDOR_CE:
            return CEInterface.NATIVE
        if self.rest_adopted and ce.interface is CEInterface.REST:
            return CEInterface.REST
        if self.condor_major >= 10:
            return None
        return CEInterface.LDAP

    def credentials_for(self, ce: "CEGateway") -> list[Credential]:
        """What to present to ``ce``, in the order to try it: the frontend's
        capability token for it, when the phase, this factory and the gateway
        all take tokens and one is held, then the pilot proxy, when the phase
        still takes it."""
        w = self.world
        methods = w.policy.channels[CH_CE_SUBMIT].methods
        out: list[Credential] = []
        if AuthMethod.SCITOKEN in methods and self.token_capable and ce.accepts_tokens:
            token = w.frontend.capability_for(ce.id)
            if token is not None:
                out.append(token)
        if AuthMethod.GSI_PROXY in methods:
            out.append(w.pilot_proxy)
        return out

    def submit_one(
        self, ce: "CEGateway", interface: CEInterface | None, credentials: list[Credential]
    ) -> Pilot:
        """Submit one pilot to ``ce`` by ``interface``, as ``select_interface``
        and ``credentials_for`` resolved them, presenting each credential in
        turn until the gateway gives an answer other than ``AUTH_REJECTED``."""
        w = self.world
        pilot = w.new_pilot(ce)
        if interface is None or not credentials:
            reason = DEPRECATED_INTERFACE if interface is None else MISMATCHED_CREDENTIAL
            w.refuse(CH_CE_SUBMIT, reason, detail=f"factory={self.id} ce={ce.id} pilot={pilot.id}")
            w.fail_pilot(pilot, reason)
            return pilot
        kid, draw = w.startd_identity()
        for credential in credentials:
            refused = ce.receive_submission(pilot, credential, interface)
            if refused != AUTH_REJECTED:
                break
        if refused is None:
            # Same event as the draw above, so the same bytes as minting then.
            pilot.token = w.mint_startd_token(pilot, kid, draw)
        else:
            w.give_back_draw("pool", draw)
            w.fail_pilot(pilot, refused)
        return pilot


class CEGateway:
    """A site gateway: authenticates submissions, reserves slots, starts
    pilots after the configured delay."""

    def __init__(self, world: World, spec: CESpec) -> None:
        self.world = world
        self.id = spec.id
        self.flavor = spec.flavor
        self.interface = spec.interface
        self.capacity = spec.capacity
        self.accepts_tokens = spec.accepts_tokens
        self.reserved = 0

    def receive_submission(
        self, pilot: Pilot, credential: Credential, interface: CEInterface
    ) -> str | None:
        """Authenticate a submission and reserve its slot: None if accepted,
        else the reason refused, ``AUTH_REJECTED`` or ``CAPACITY_EXCEEDED``."""
        w = self.world
        now = w.engine.now
        if isinstance(credential, jose.Token) and w.board.active(
            _CE_TOKEN_MISCONFIG, self.id, now
        ):
            w.refuse(
                CH_CE_SUBMIT,
                UntrustedIssuer.__name__,
                method=credential_method(credential)._value_,
                detail=f"ce={self.id} pilot={pilot.id} fault=CE_TOKEN_MISCONFIG",
            )
            return AUTH_REJECTED
        try:
            peer = w.authenticate_on(
                CH_CE_SUBMIT,
                credential,
                audience=self.id,
                detail=f"ce={self.id} pilot={pilot.id} iface={interface._value_}",
            )
        except TokenPoolError:
            return AUTH_REJECTED
        if self.reserved >= self.capacity:
            w.refuse(
                CH_CE_SUBMIT,
                CAPACITY_EXCEEDED,
                method=peer.method._value_,
                identity=peer.canonical_identity,
                detail=f"ce={self.id} pilot={pilot.id}",
            )
            return CAPACITY_EXCEEDED
        self.reserved += 1
        stuck = w.board.active(_CE_STUCK_SUBMISSION, self.id, now) is not None
        w.pilot_event(
            pilot,
            _SUBMITTED,
            _join_detail(f"method={peer.method._value_}", "stuck=1" if stuck else ""),
        )
        if not stuck:
            timings = w.scenario.pilots
            w.engine.schedule(timings.startup - timings.join_latency, pilot.started)
            w.engine.schedule(timings.startup, pilot.join)
        return None

    def pilot_started(self, pilot: Pilot) -> None:
        if pilot.state is _SUBMITTED:
            self.world.pilot_event(pilot, _STARTED)


class MigrationController:
    """Executes the timed plan and handles key-compromise response."""

    def __init__(self, world: World) -> None:
        self.world = world

    def wire_faults(self) -> None:
        w = self.world
        for fault in w.scenario.faults:
            on_activate = self.on_key_compromise if fault.kind is FaultKind.KEY_COMPROMISE else None
            w.board.inject(fault, trace=w.trace, engine=w.engine, on_activate=on_activate)

    def schedule_plan(self) -> None:
        w = self.world
        for step in w.scenario.plan:
            w.engine.schedule_at(step.at, lambda s=step: self.apply_step(s))

    def apply_step(self, step) -> None:
        w = self.world
        if step.action == "set_phase":
            w.set_phase(step.params["phase"])
            return
        detail = " ".join(
            f"{k}={getattr(v, 'value', v)}" for k, v in sorted(step.params.items())
        )
        w.trace.record(w.engine.now, TRACE_PLAN, step.action.upper(), detail=detail)
        if step.action == "enable_scitoken":
            w.ces[step.params["ce"]].accepts_tokens = True
        elif step.action == "adopt_rest":
            w.ces[step.params["ce"]].interface = CEInterface.REST
        elif step.action == "upgrade_factory":
            w.factories[step.params["factory"]].condor_major = step.params["major"]
        elif step.action == "provision_client_token":
            w.clients[step.params["client"]].renew_token()

    def on_key_compromise(self, fault: Fault) -> None:
        w = self.world
        kid = fault.target
        entry = w.keyring.entries.get(kid)
        if entry is None or entry.status is KeyStatus.REVOKED:
            return
        w.keyring = revoke_key(w.keyring, kid)
        suffix = 1
        while f"{kid}-r{suffix}" in w.keyring.entries:
            suffix += 1
        replacement = f"{kid}-r{suffix}"
        w.keyring = rotate_key(
            w.keyring,
            replacement,
            secret=w.streams.stream(f"key/{replacement}").randbytes(32),
        )
        if kid in w.startd_kids:
            w.startd_kids[w.startd_kids.index(kid)] = replacement
        if kid == w.daemon_kid:
            w.daemon_kid = replacement
            w.schedd.renew_token()
            w.frontend.renew_token()
            for client in w.clients.values():
                if client.token is not None:
                    client.renew_token()
        evicted = w.collector.evict_by_kid(kid)
        w.trace.record(
            w.engine.now,
            TRACE_PLAN,
            "KEY_ROTATED",
            detail=f"old={kid} new={replacement} evicted={len(evicted)}",
        )
        if evicted:
            w.engine.schedule(
                w.scenario.drill.reprovision_delay,
                lambda pilots=tuple(evicted): self.reprovision(pilots),
            )

    def reprovision(self, evicted: tuple[Pilot, ...]) -> None:
        w = self.world
        w.trace.record(
            w.engine.now, TRACE_PLAN, "REPROVISION", detail=f"count={len(evicted)}"
        )
        for old in evicted:
            factory = w.factory_serving(old.ce_id)
            if factory is not None:
                ce = w.ces[old.ce_id]
                factory.submit_one(ce, factory.select_interface(ce), factory.credentials_for(ce))


def build_world(scenario: Scenario, trace: Trace | None = None) -> World:
    world = World(scenario, trace)
    world.start()
    return world
