"""Scenario files: the declarative description of one pool run.

A scenario names the seed, horizon, starting auth phase, symmetric keys,
issuer, frontend tuning, factories, sites with their gateways, workload
clients, a timed migration plan, and any injected faults.  Parsing is
strict: anything structurally off raises ScenarioError with a message
naming the offending field.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import yaml

from .errors import ScenarioError
from .policy import AuthMethod, MigrationPhase
from .simnet import Fault, FaultKind

DEFAULT_SCITOKEN_LIFETIME = 1200


class CEFlavor(enum.Enum):
    HTCONDOR_CE = "HTCONDOR_CE"
    ARC_CE = "ARC_CE"


class CEInterface(enum.Enum):
    NATIVE = "NATIVE"
    REST = "REST"
    LDAP = "LDAP"


@dataclass(frozen=True)
class KeySpec:
    kid: str
    purpose: str  # "daemon" or "startd"


@dataclass(frozen=True)
class IssuerSpec:
    url: str
    kid: str
    scitoken_lifetime: int = DEFAULT_SCITOKEN_LIFETIME


@dataclass(frozen=True)
class FrontendSpec:
    cycle: int = 60
    per_entry_cap: int = 10
    match_interval: int = 60
    pilot_max_idle: int = 600


@dataclass(frozen=True)
class PilotTimings:
    startup: int = 30
    join_latency: int = 5
    keepalive: int = 300
    token_lifetime: int = 86400


@dataclass(frozen=True)
class CESpec:
    id: str
    site: str
    flavor: CEFlavor
    interface: CEInterface
    capacity: int
    accepts_tokens: bool


@dataclass(frozen=True)
class SiteSpec:
    name: str
    ces: tuple[CESpec, ...]


@dataclass(frozen=True)
class FactorySpec:
    id: str
    condor_major: int
    rest_adopted: bool
    token_capable: bool
    entries: tuple[str, ...]  # empty tuple = serves every gateway


@dataclass(frozen=True)
class ClientSpec:
    id: str
    methods: tuple[AuthMethod, ...]
    jobs: int
    duration: int
    submit_at: int = 0
    retry_interval: int = 300


@dataclass(frozen=True)
class PlanStep:
    at: int
    action: str
    params: Mapping[str, Any]


PLAN_ACTIONS: dict[str, tuple[str, ...]] = {
    "set_phase": ("phase",),
    "enable_scitoken": ("ce",),
    "adopt_rest": ("ce",),
    "upgrade_factory": ("factory", "major"),
    "provision_client_token": ("client",),
}


@dataclass(frozen=True)
class DrillSpec:
    reprovision_delay: int = 60


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    horizon: int
    phase: MigrationPhase
    issuer: IssuerSpec
    keys: tuple[KeySpec, ...]
    frontend: FrontendSpec
    pilots: PilotTimings
    sites: tuple[SiteSpec, ...]
    factories: tuple[FactorySpec, ...]
    clients: tuple[ClientSpec, ...]
    plan: tuple[PlanStep, ...] = ()
    faults: tuple[Fault, ...] = ()
    drill: DrillSpec = field(default_factory=DrillSpec)

    @property
    def ces(self) -> tuple[CESpec, ...]:
        return tuple(ce for site in self.sites for ce in site.ces)

    @property
    def total_capacity(self) -> int:
        return sum(ce.capacity for ce in self.ces)


def _need(data: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in data:
        raise ScenarioError(f"{where}: missing {key!r}")
    return data[key]


def _as_int(value: Any, where: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where}: expected integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ScenarioError(f"{where}: must be >= {minimum}, got {value}")
    return value


def _as_bool(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{where}: expected true or false, got {value!r}")
    return value


def _fields_of(cls: type, data: Any, where: str, *, skip: str = "") -> Mapping[str, Any]:
    """Return ``data`` if it is a mapping whose keys all name fields of ``cls``."""
    if not isinstance(data, Mapping):
        raise ScenarioError(f"{where}: expected a mapping, got {data!r}")
    known = {f.name for f in dataclasses.fields(cls)} - {skip}
    unknown = sorted(str(k) for k in data if k not in known)
    if unknown:
        raise ScenarioError(f"unknown {where} fields: {unknown}")
    return data


def _int_spec(cls: type, data: Any, where: str, minima: Mapping[str, int]) -> Any:
    """Build an all-integer spec; a field left out keeps its dataclass default."""
    data = _fields_of(cls, data, where)
    return cls(
        **{
            name: _as_int(data.get(name, getattr(cls, name)), f"{where}.{name}", low)
            for name, low in minima.items()
        }
    )


def _as_enum(cls: type, value: Any, where: str) -> Any:
    try:
        return cls(value)
    except ValueError:
        allowed = ", ".join(m.value for m in cls)  # type: ignore[attr-defined]
        raise ScenarioError(f"{where}: {value!r} not one of {allowed}") from None


def _parse_ce(data: Mapping[str, Any], site: str) -> CESpec:
    data = _fields_of(CESpec, data, f"site {site} gateway", skip="site")
    ce_id = str(_need(data, "id", f"site {site} gateway"))
    where = f"gateway {ce_id}"
    flavor = _as_enum(CEFlavor, _need(data, "flavor", where), where)
    if flavor is CEFlavor.HTCONDOR_CE:
        interface = CEInterface.NATIVE
        if "interface" in data and data["interface"] != "NATIVE":
            raise ScenarioError(f"{where}: HTCONDOR_CE admits only the NATIVE interface")
    else:
        interface = _as_enum(CEInterface, _need(data, "interface", where), where)
        if interface is CEInterface.NATIVE:
            raise ScenarioError(f"{where}: ARC_CE needs REST or LDAP")
    return CESpec(
        id=ce_id,
        site=site,
        flavor=flavor,
        interface=interface,
        capacity=_as_int(_need(data, "capacity", where), f"{where}.capacity", 1),
        accepts_tokens=_as_bool(data.get("accepts_tokens", False), f"{where}.accepts_tokens"),
    )


def _parse_fault(data: Mapping[str, Any], index: int) -> Fault:
    where = f"fault[{index}]"
    data = _fields_of(Fault, data, where)
    kind = _as_enum(FaultKind, _need(data, "kind", where), where)
    start = _as_int(data.get("start", Fault.start), f"{where}.start", 0)
    end = data.get("end")
    if end is not None:
        end = _as_int(end, f"{where}.end", 0)
        if end <= start:
            raise ScenarioError(f"{where}: end {end} not after start {start}")
    rate = data.get("rate", Fault.rate)
    if not isinstance(rate, (int, float)) or isinstance(rate, bool):
        raise ScenarioError(f"{where}: rate must be a number")
    if not 0.0 <= float(rate) <= 1.0:
        raise ScenarioError(f"{where}: rate {rate} outside [0, 1]")
    return Fault(
        kind=kind,
        target=str(_need(data, "target", where)),
        start=start,
        end=end,
        rate=float(rate),
    )


def _parse_plan_step(data: Mapping[str, Any], index: int) -> PlanStep:
    where = f"plan[{index}]"
    action = str(_need(data, "action", where))
    if action not in PLAN_ACTIONS:
        raise ScenarioError(
            f"{where}: unknown action {action!r}; know {sorted(PLAN_ACTIONS)}"
        )
    at = _as_int(_need(data, "at", where), f"{where}.at", 0)
    params = {k: v for k, v in data.items() if k not in ("at", "action")}
    missing = [k for k in PLAN_ACTIONS[action] if k not in params]
    if missing:
        raise ScenarioError(f"{where}: {action} needs {missing}")
    extra = [k for k in params if k not in PLAN_ACTIONS[action]]
    if extra:
        raise ScenarioError(f"{where}: {action} does not take {extra}")
    if action == "set_phase":
        params["phase"] = _as_enum(MigrationPhase, params["phase"], where)
    if action == "upgrade_factory":
        params["major"] = _as_int(params["major"], f"{where}.major", 1)
    return PlanStep(at=at, action=action, params=params)


def parse_scenario(data: Mapping[str, Any]) -> Scenario:
    if not isinstance(data, Mapping):
        raise ScenarioError("scenario document must be a mapping")
    _fields_of(Scenario, data, "top-level")
    name = str(_need(data, "name", "scenario"))
    seed = _as_int(_need(data, "seed", "scenario"), "seed")
    horizon = _as_int(_need(data, "horizon", "scenario"), "horizon", 1)
    phase = _as_enum(MigrationPhase, _need(data, "phase", "scenario"), "phase")

    issuer_raw = _fields_of(IssuerSpec, _need(data, "issuer", "scenario"), "issuer")
    issuer = IssuerSpec(
        url=str(_need(issuer_raw, "url", "issuer")),
        kid=str(_need(issuer_raw, "kid", "issuer")),
        scitoken_lifetime=_as_int(
            issuer_raw.get("scitoken_lifetime", IssuerSpec.scitoken_lifetime),
            "issuer.scitoken_lifetime",
            1,
        ),
    )

    keys_raw = _need(data, "keys", "scenario")
    if not keys_raw:
        raise ScenarioError("keys: need at least one symmetric key")
    keys = []
    for entry in keys_raw:
        entry = _fields_of(KeySpec, entry, "keys")
        kid = str(_need(entry, "kid", "keys"))
        purpose = str(_need(entry, "purpose", f"key {kid}"))
        if purpose not in ("daemon", "startd"):
            raise ScenarioError(f"key {kid}: purpose must be daemon or startd")
        keys.append(KeySpec(kid, purpose))
    kids = [k.kid for k in keys]
    if len(set(kids)) != len(kids):
        raise ScenarioError("keys: duplicate kid")
    if not any(k.purpose == "daemon" for k in keys):
        raise ScenarioError("keys: need a daemon-purpose key")
    if not any(k.purpose == "startd" for k in keys):
        raise ScenarioError("keys: need a startd-purpose key")

    frontend = _int_spec(
        FrontendSpec,
        data.get("frontend", {}),
        "frontend",
        {"cycle": 1, "per_entry_cap": 1, "match_interval": 1, "pilot_max_idle": 1},
    )
    pilots = _int_spec(
        PilotTimings,
        data.get("pilots", {}),
        "pilots",
        {"startup": 1, "join_latency": 0, "keepalive": 1, "token_lifetime": 1},
    )
    if pilots.join_latency > pilots.startup:
        raise ScenarioError("pilots.join_latency cannot exceed pilots.startup")

    sites = []
    for site_raw in _need(data, "sites", "scenario"):
        site_raw = _fields_of(SiteSpec, site_raw, "sites")
        site_name = str(_need(site_raw, "name", "sites"))
        ces = tuple(_parse_ce(ce_raw, site_name) for ce_raw in _need(site_raw, "ces", f"site {site_name}"))
        if not ces:
            raise ScenarioError(f"site {site_name}: no gateways")
        sites.append(SiteSpec(site_name, ces))
    if not sites:
        raise ScenarioError("sites: need at least one")
    all_ce_ids = [ce.id for site in sites for ce in site.ces]
    if len(set(all_ce_ids)) != len(all_ce_ids):
        raise ScenarioError("sites: duplicate gateway id")
    site_names = [s.name for s in sites]
    if len(set(site_names)) != len(site_names):
        raise ScenarioError("sites: duplicate site name")

    factories = []
    for f_raw in _need(data, "factories", "scenario"):
        f_raw = _fields_of(FactorySpec, f_raw, "factories")
        f_id = str(_need(f_raw, "id", "factories"))
        entries = tuple(str(e) for e in f_raw.get("entries", ()))
        for entry in entries:
            if entry not in all_ce_ids:
                raise ScenarioError(f"factory {f_id}: unknown entry {entry!r}")
        factories.append(
            FactorySpec(
                id=f_id,
                condor_major=_as_int(_need(f_raw, "condor_major", f"factory {f_id}"), f"factory {f_id}.condor_major", 1),
                rest_adopted=_as_bool(f_raw.get("rest_adopted", False), f"factory {f_id}.rest_adopted"),
                token_capable=_as_bool(f_raw.get("token_capable", True), f"factory {f_id}.token_capable"),
                entries=entries,
            )
        )
    if not factories:
        raise ScenarioError("factories: need at least one")
    factory_ids = [f.id for f in factories]
    if len(set(factory_ids)) != len(factory_ids):
        raise ScenarioError("factories: duplicate id")

    clients = []
    for c_raw in _need(data, "clients", "scenario"):
        c_raw = _fields_of(ClientSpec, c_raw, "clients")
        c_id = str(_need(c_raw, "id", "clients"))
        methods_raw = _need(c_raw, "methods", f"client {c_id}")
        if not methods_raw:
            raise ScenarioError(f"client {c_id}: empty methods list")
        methods = tuple(_as_enum(AuthMethod, m, f"client {c_id}.methods") for m in methods_raw)
        clients.append(
            ClientSpec(
                id=c_id,
                methods=methods,
                jobs=_as_int(_need(c_raw, "jobs", f"client {c_id}"), f"client {c_id}.jobs", 0),
                duration=_as_int(_need(c_raw, "duration", f"client {c_id}"), f"client {c_id}.duration", 1),
                submit_at=_as_int(c_raw.get("submit_at", ClientSpec.submit_at), f"client {c_id}.submit_at", 0),
                retry_interval=_as_int(c_raw.get("retry_interval", ClientSpec.retry_interval), f"client {c_id}.retry_interval", 1),
            )
        )
    client_ids = [c.id for c in clients]
    if len(set(client_ids)) != len(client_ids):
        raise ScenarioError("clients: duplicate id")

    plan = tuple(_parse_plan_step(p, i) for i, p in enumerate(data.get("plan", ())))
    for i, step in enumerate(plan):
        if step.action in ("enable_scitoken", "adopt_rest") and step.params["ce"] not in all_ce_ids:
            raise ScenarioError(f"plan[{i}]: unknown gateway {step.params['ce']!r}")
        if step.action == "upgrade_factory" and step.params["factory"] not in factory_ids:
            raise ScenarioError(f"plan[{i}]: unknown factory {step.params['factory']!r}")
        if step.action == "provision_client_token" and step.params["client"] not in client_ids:
            raise ScenarioError(f"plan[{i}]: unknown client {step.params['client']!r}")

    faults = tuple(_parse_fault(f, i) for i, f in enumerate(data.get("faults", ())))

    drill = _int_spec(DrillSpec, data.get("drill", {}), "drill", {"reprovision_delay": 1})

    return Scenario(
        name=name,
        seed=seed,
        horizon=horizon,
        phase=phase,
        issuer=issuer,
        keys=tuple(keys),
        frontend=frontend,
        pilots=pilots,
        sites=tuple(sites),
        factories=tuple(factories),
        clients=tuple(clients),
        plan=plan,
        faults=faults,
        drill=drill,
    )


def load_scenario(path: str | Path) -> Scenario:
    raw = Path(path).read_text()
    try:
        data = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path}: not valid YAML: {exc}") from None
    if data is None:
        raise ScenarioError(f"{path}: empty scenario file")
    return parse_scenario(data)
