"""Scenario files: the declarative description of one pool run.

A scenario names the seed, horizon, starting auth phase, symmetric keys,
issuer, frontend tuning, factories, sites with their gateways, workload
clients, a timed migration plan, and any injected faults.  Parsing is
strict: each value must have the type its spec dataclass declares, nothing
is coerced, and anything off raises ScenarioError naming the field.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import itertools
import re
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

import yaml

from .errors import ScenarioError
from .policy import DROP_CHANNELS, AuthMethod, MigrationPhase
from .simnet import Fault, FaultKind


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
    scitoken_lifetime: int = 1200


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


@dataclass(frozen=True, kw_only=True)
class CESpec:
    id: str
    flavor: CEFlavor
    interface: CEInterface = CEInterface.NATIVE
    capacity: int
    accepts_tokens: bool = False


@dataclass(frozen=True)
class SiteSpec:
    name: str
    ces: tuple[CESpec, ...]


@dataclass(frozen=True)
class FactorySpec:
    id: str
    condor_major: int
    rest_adopted: bool = False
    token_capable: bool = True
    entries: tuple[str, ...] = ()  # empty tuple = serves every gateway


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


#: The parameters each plan action takes, with their types.
PLAN_ACTIONS: dict[str, dict[str, type]] = {
    "set_phase": {"phase": MigrationPhase},
    "enable_scitoken": {"ce": str},
    "adopt_rest": {"ce": str},
    "upgrade_factory": {"factory": str, "major": int},
    "provision_client_token": {"client": str},
}


@dataclass(frozen=True)
class DrillSpec:
    reprovision_delay: int = 60


@dataclass(frozen=True, kw_only=True)
class Scenario:
    name: str
    seed: int
    horizon: int
    phase: MigrationPhase
    issuer: IssuerSpec
    keys: tuple[KeySpec, ...]
    frontend: FrontendSpec = field(default_factory=FrontendSpec)
    pilots: PilotTimings = field(default_factory=PilotTimings)
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


#: Lower bound of each integer field that has one (for ``PlanStep``, of
#: its ``at`` and of the ``major`` parameter of ``upgrade_factory``).
_MINIMA: dict[type, dict[str, int]] = {
    Scenario: {"horizon": 1},
    IssuerSpec: {"scitoken_lifetime": 1},
    FrontendSpec: {"cycle": 1, "per_entry_cap": 1, "match_interval": 1, "pilot_max_idle": 1},
    PilotTimings: {"startup": 1, "join_latency": 0, "keepalive": 1, "token_lifetime": 1},
    CESpec: {"capacity": 1},
    FactorySpec: {"condor_major": 1},
    ClientSpec: {"jobs": 0, "duration": 1, "submit_at": 0, "retry_interval": 1},
    PlanStep: {"at": 0, "major": 1},
    Fault: {"start": 0},
    DrillSpec: {"reprovision_delay": 1},
}

#: Upper bound of each integer field the run's cost grows with (one object
#: per unit, or one step per simulated second), far above any shipped value.
_MAXIMA: dict[type, dict[str, int]] = {
    Scenario: {"horizon": 86_400},  # one simulated day
    CESpec: {"capacity": 10_000},
    ClientSpec: {"jobs": 100_000},
}

#: An id the trace writes: non-empty, no whitespace and no ``=``, since
#: trace details are space-separated ``key=value`` pairs, and no surrogate
#: code point, since the trace writes a pair held as two code points and
#: the one character it encodes alike.  ``*`` is the fault wildcard, so it
#: names nothing.
_ID = re.compile(r"[^\s=\ud800-\udfff]+")

#: The noun error messages put before a list whose YAML key is terse.
_NOUNS: dict[tuple[type, str], str] = {(SiteSpec, "ces"): "gateway"}

_Read = Callable[..., Any]


def _read_exact(kind: type, expected: str, value: Any, where: str) -> Any:
    if not isinstance(value, kind):
        raise ScenarioError(f"{where}: expected {expected}, got {value!r}")
    return value


def _read_float(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _read_int(
    value: Any, where: str, minimum: int | None = None, maximum: int | None = None
) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ScenarioError(f"{where}: must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ScenarioError(f"{where}: must be <= {maximum}, got {value}")
    return value


def _read_enum(cls: type[enum.Enum], value: Any, where: str) -> enum.Enum:
    if isinstance(value, str) and value in cls.__members__:
        return cls[value]
    raise ScenarioError(f"{where}: {value!r} not one of {', '.join(cls.__members__)}")


def _read_list(read: _Read, value: Any, where: str) -> tuple:
    if not isinstance(value, list):
        raise ScenarioError(f"{where}: expected a list, got {value!r}")
    return tuple(read(item, f"{where}[{i}]") for i, item in enumerate(value))


@functools.cache
def _reader(tp: Any, minimum: int | None = None, maximum: int | None = None) -> _Read:
    """The function that reads a YAML value as a ``tp``, built once per type."""
    if tp is str:
        return functools.partial(_read_exact, str, "a string")
    if tp is bool:
        return functools.partial(_read_exact, bool, "true or false")
    if tp is float:
        return _read_float
    if tp is int:
        return functools.partial(_read_int, minimum=minimum, maximum=maximum)
    if isinstance(tp, enum.EnumMeta):
        return functools.partial(_read_enum, tp)
    if tp is PlanStep:
        return _read_plan_step
    if dataclasses.is_dataclass(tp):
        return functools.partial(_read_spec, tp)
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:  # tuple[X, ...]
        return functools.partial(_read_list, _reader(args[0]))
    if args[1:] == (type(None),):  # X | None
        read = _reader(args[0], minimum, maximum)
        return lambda value, where: None if value is None else read(value, where)
    raise TypeError(f"no scenario reader for {tp!r}")


@functools.cache
def _plan(cls: type) -> dict[str, tuple[_Read, bool, str | None]]:
    """Each field of a spec class: its reader, whether it has no default,
    and its ``_NOUNS`` entry.  Built once per class."""
    hints = typing.get_type_hints(cls)
    minima, maxima = _MINIMA.get(cls, {}), _MAXIMA.get(cls, {})
    return {
        f.name: (
            _reader(hints[f.name], minima.get(f.name), maxima.get(f.name)),
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
            _NOUNS.get((cls, f.name)),
        )
        for f in dataclasses.fields(cls)
    }


def _read_spec(cls: type, data: Any, where: str) -> Any:
    """Read a mapping into ``cls``: each key names a field, each value has
    its field's type, and an absent field takes its declared default."""
    plan = _plan(cls)
    if not isinstance(data, Mapping):
        raise ScenarioError(f"{where or 'scenario'}: expected a mapping, got {data!r}")
    unknown = sorted(str(k) for k in data if k not in plan)
    if unknown:
        raise ScenarioError(f"unknown {where or 'top-level'} fields: {unknown}")
    values: dict[str, Any] = {}
    for name, (read, required, noun) in plan.items():
        if name not in data:
            if required:
                raise ScenarioError(f"{where or 'scenario'}: missing {name!r}")
            continue
        field_where = f"{where}.{name}" if where else name
        values[name] = read(data[name], field_where if noun is None else f"{noun} {field_where}")
    return cls(**values)


def _read_plan_step(data: Any, where: str) -> PlanStep:
    """A plan step is one flat mapping: ``at``, ``action`` and the
    parameters ``PLAN_ACTIONS`` lists for that action, each of its type."""
    if not isinstance(data, Mapping):
        raise ScenarioError(f"{where}: expected a mapping, got {data!r}")
    for key in ("action", "at"):
        if key not in data:
            raise ScenarioError(f"{where}: missing {key!r}")
    action = _read_exact(str, "a string", data["action"], f"{where}.action")
    if action not in PLAN_ACTIONS:
        raise ScenarioError(f"{where}: unknown action {action!r}; know {sorted(PLAN_ACTIONS)}")
    at = _read_int(data["at"], f"{where}.at", _MINIMA[PlanStep]["at"])
    takes = PLAN_ACTIONS[action]
    missing = [k for k in takes if k not in data]
    if missing:
        raise ScenarioError(f"{where}: {action} needs {missing}")
    extra = [k for k in data if k not in takes and k not in ("at", "action")]
    if extra:
        raise ScenarioError(f"{where}: {action} does not take {extra}")
    params = {k: _reader(tp, _MINIMA[PlanStep].get(k))(data[k], f"{where}.{k}") for k, tp in takes.items()}
    return PlanStep(at=at, action=action, params=params)


def _check(sc: Scenario) -> None:
    """The rules of a scenario that no single field's type states."""
    for specs, message in (
        (sc.keys, "keys: need at least one symmetric key"),
        (sc.sites, "sites: need at least one"),
        (sc.factories, "factories: need at least one"),
    ):
        if not specs:
            raise ScenarioError(message)
    ce_ids = [ce.id for ce in sc.ces]
    factory_ids = [f.id for f in sc.factories]
    client_ids = [c.id for c in sc.clients]
    named = [("issuer.kid", sc.issuer.kid), *((f"keys[{i}].kid", k.kid) for i, k in enumerate(sc.keys))]
    for i, site in enumerate(sc.sites):
        named.append((f"sites[{i}].name", site.name))
        named += ((f"gateway sites[{i}].ces[{j}].id", ce.id) for j, ce in enumerate(site.ces))
    named += ((f"factories[{i}].id", f.id) for i, f in enumerate(sc.factories))
    named += ((f"clients[{i}].id", c.id) for i, c in enumerate(sc.clients))
    for where, name in named:
        if name == "*" or not _ID.fullmatch(name):
            raise ScenarioError(
                f"{where}: {name!r} must be non-empty, hold no whitespace, '=' or surrogate, and not be '*'"
            )
    for ids, message in (
        ([k.kid for k in sc.keys], "keys: duplicate kid"),
        (ce_ids, "sites: duplicate gateway id"),
        ([s.name for s in sc.sites], "sites: duplicate site name"),
        (factory_ids, "factories: duplicate id"),
        (client_ids, "clients: duplicate id"),
    ):
        if len(set(ids)) != len(ids):
            raise ScenarioError(message)

    for key in sc.keys:
        if key.purpose not in ("daemon", "startd"):
            raise ScenarioError(f"key {key.kid}: purpose must be daemon or startd")
    for purpose in ("daemon", "startd"):
        if not any(k.purpose == purpose for k in sc.keys):
            raise ScenarioError(f"keys: need a {purpose}-purpose key")
    if sc.pilots.join_latency > sc.pilots.startup:
        raise ScenarioError("pilots.join_latency cannot exceed pilots.startup")
    for site in sc.sites:
        if not site.ces:
            raise ScenarioError(f"site {site.name}: no gateways")
    for ce in sc.ces:
        if ce.flavor is CEFlavor.HTCONDOR_CE and ce.interface is not CEInterface.NATIVE:
            raise ScenarioError(f"gateway {ce.id}: HTCONDOR_CE admits only the NATIVE interface")
        if ce.flavor is CEFlavor.ARC_CE and ce.interface is CEInterface.NATIVE:
            raise ScenarioError(f"gateway {ce.id}: ARC_CE needs REST or LDAP")
    for factory in sc.factories:
        for entry in factory.entries:
            if entry not in ce_ids:
                raise ScenarioError(f"factory {factory.id}: unknown entry {entry!r}")
    for client in sc.clients:
        if not client.methods:
            raise ScenarioError(f"client {client.id}: empty methods list")
    targets = {"ce": ("gateway", ce_ids), "factory": ("factory", factory_ids), "client": ("client", client_ids)}
    flavors = {ce.id: ce.flavor for ce in sc.ces}
    for i, step in enumerate(sc.plan):
        for param, (noun, known) in targets.items():
            if param in step.params and step.params[param] not in known:
                raise ScenarioError(f"plan[{i}]: unknown {noun} {step.params[param]!r}")
        if step.action == "adopt_rest" and flavors[step.params["ce"]] is CEFlavor.HTCONDOR_CE:
            raise ScenarioError(
                f"plan[{i}]: adopt_rest on HTCONDOR_CE gateway {step.params['ce']!r},"
                " which admits only the NATIVE interface"
            )
    fault_targets = {
        FaultKind.KEY_COMPROMISE: ("key", [k.kid for k in sc.keys]),
        FaultKind.CE_TOKEN_MISCONFIG: ("gateway", ["*", *ce_ids]),
        FaultKind.CE_STUCK_SUBMISSION: ("gateway", ["*", *ce_ids]),
        FaultKind.MESSAGE_DROP: ("channel that can lose a message", ["*", *DROP_CHANNELS]),
    }
    for i, fault in enumerate(sc.faults):
        noun, known = fault_targets[fault.kind]
        if fault.target not in known:
            raise ScenarioError(f"faults[{i}]: {fault.kind.value} target {fault.target!r} names no {noun}")
        if fault.end is not None and fault.end <= fault.start:
            raise ScenarioError(f"faults[{i}]: end {fault.end} not after start {fault.start}")
        if not 0.0 <= fault.rate <= 1.0:
            raise ScenarioError(f"faults[{i}]: rate {fault.rate} outside [0, 1]")
    # A message meets only the first drop fault covering it, so a second
    # one over the same channel and time would silently never act.
    drops = [(i, f) for i, f in enumerate(sc.faults) if f.kind is FaultKind.MESSAGE_DROP]
    for (i, a), (j, b) in itertools.combinations(drops, 2):
        if a.target != b.target and "*" not in (a.target, b.target):
            continue
        if (a.end is not None and a.end <= b.start) or (b.end is not None and b.end <= a.start):
            continue
        channel = a.target if b.target == "*" else b.target
        raise ScenarioError(
            f"faults[{i}] and faults[{j}]: MESSAGE_DROP windows overlap on channel {channel!r}"
        )


def parse_scenario(data: Mapping[str, Any]) -> Scenario:
    scenario = _read_spec(Scenario, data, "")
    _check(scenario)
    return scenario


class _UniqueKeyLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader, on libyaml where PyYAML was built with it, refusing
    a mapping that names one key twice or merges one in with ``<<``: the
    safe loader would settle either silently by keeping the last value."""

    def construct_mapping(self, node: yaml.MappingNode, deep: bool = False) -> dict:
        first_line: dict[Any, int] = {}
        for key_node, _ in node.value:
            if not isinstance(key_node, yaml.ScalarNode):
                continue
            line = key_node.start_mark.line + 1
            if key_node.tag == "tag:yaml.org,2002:merge":
                raise ScenarioError(f"merge key '<<' on line {line}")
            key = self.construct_object(key_node)
            if key in first_line:
                raise ScenarioError(
                    f"duplicate key {key!r} on line {line} (first on line {first_line[key]})"
                )
            first_line[key] = line
        # Named rather than super(), so this body serves either base.
        return yaml.constructor.SafeConstructor.construct_mapping(self, node, deep)


def load_scenario(path: str | Path) -> Scenario:
    try:
        # Bytes, so the YAML reader settles the encoding and refuses what
        # is not Unicode (such as an encoded surrogate) as a YAMLError.
        data = yaml.load(Path(path).read_bytes(), Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path}: not valid YAML: {exc}") from None
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    if data is None:
        raise ScenarioError(f"{path}: empty scenario file")
    return parse_scenario(data)
