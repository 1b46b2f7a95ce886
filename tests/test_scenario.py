"""Scenario parsing: defaults, cross-references, strict rejection."""

import copy
import dataclasses
import io
import math
import re
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_simnet import written

from tokenpool import scenario
from tokenpool.errors import ScenarioError
from tokenpool.migration import run_scenario
from tokenpool.policy import AuthMethod, MigrationPhase
from tokenpool.scenario import (
    CEFlavor,
    CEInterface,
    ClientSpec,
    DrillSpec,
    FrontendSpec,
    PilotTimings,
    load_scenario,
    parse_scenario,
)
from tokenpool.simnet import FaultKind
from tokenpool.tokens import Sessions

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def base_doc():
    return {
        "name": "unit",
        "seed": 1,
        "horizon": 600,
        "phase": "TOKEN_WITH_GSI_FALLBACK",
        "issuer": {"url": "https://issuer.test", "kid": "op-1"},
        "keys": [
            {"kid": "pool-daemon", "purpose": "daemon"},
            {"kid": "startd-1", "purpose": "startd"},
        ],
        "sites": [
            {
                "name": "site-a",
                "ces": [
                    {
                        "id": "ce-a1",
                        "flavor": "HTCONDOR_CE",
                        "capacity": 10,
                        "accepts_tokens": True,
                    }
                ],
            }
        ],
        "factories": [{"id": "fac-1", "condor_major": 10, "rest_adopted": True}],
        "clients": [
            {"id": "cmsprod", "methods": ["IDTOKEN"], "jobs": 5, "duration": 300}
        ],
    }


def variant(**overrides):
    doc = copy.deepcopy(base_doc())
    doc.update(overrides)
    return doc


def test_parse_minimal_scenario_and_defaults():
    sc = parse_scenario(base_doc())
    assert sc.name == "unit"
    assert sc.phase is MigrationPhase.TOKEN_WITH_GSI_FALLBACK
    assert sc.frontend.cycle == 60
    assert sc.frontend.per_entry_cap == 10
    assert sc.pilots.startup == 30
    assert sc.pilots.join_latency == 5
    assert sc.issuer.scitoken_lifetime == 1200
    assert sc.drill.reprovision_delay == 60
    assert sc.total_capacity == 10
    assert sc.ces[0].flavor is CEFlavor.HTCONDOR_CE
    assert sc.ces[0].interface is CEInterface.NATIVE
    assert sc.factories[0].token_capable is True
    assert sc.factories[0].entries == ()  # empty means: serves every gateway
    assert sc.clients[0].methods == (AuthMethod.IDTOKEN,)
    assert sc.clients[0].retry_interval == 300
    # Omitted optional fields take the defaults declared on the specs.
    assert sc.frontend == FrontendSpec()
    assert sc.pilots == PilotTimings()
    assert sc.drill == DrillSpec()
    assert sc.clients[0].submit_at == ClientSpec.submit_at


def _with_ce(**extra):
    doc = base_doc()
    doc["sites"][0]["ces"][0].update(extra)
    return doc


#: One misspelled key at each nesting level below the top.
NESTED_TYPOS = {
    "frontend": variant(frontend={"cylce": 5}),
    "pilots": variant(pilots={"startp": 5}),
    "drill": variant(drill={"reprovision_dealy": 5}),
    "issuer": variant(issuer={"url": "https://i.test", "kid": "op-1", "lifetime": 5}),
    "keys": variant(keys=[{"kid": "d", "purpose": "daemon", "porpose": "x"}]),
    "sites": variant(sites=[{**base_doc()["sites"][0], "region": "eu"}]),
    "gateway": _with_ce(capacty=3),
    "factories": variant(factories=[{"id": "f", "condor_major": 10, "rest_adoptd": True}]),
    "clients": variant(clients=[{"id": "c", "methods": ["IDTOKEN"], "jobs": 1, "duration": 9, "jbos": 2}]),
    "fault": variant(faults=[{"kind": "MESSAGE_DROP", "target": "*", "rat": 0.5}]),
}


@pytest.mark.parametrize("level", sorted(NESTED_TYPOS))
def test_unknown_nested_field_rejected(level):
    with pytest.raises(ScenarioError, match=f"unknown .*{level}.* fields"):
        parse_scenario(NESTED_TYPOS[level])


def test_a_gateway_names_no_site_of_its_own():
    # A gateway's site is the site that lists it.
    with pytest.raises(ScenarioError, match=r"^unknown gateway sites\[0\]\.ces\[0\] fields: \['site'\]$"):
        parse_scenario(_with_ce(site="site-a"))


def test_nested_section_must_be_a_mapping():
    with pytest.raises(ScenarioError, match="frontend: expected a mapping"):
        parse_scenario(variant(frontend=None))


def test_flags_must_be_real_booleans():
    with pytest.raises(ScenarioError, match="accepts_tokens"):
        parse_scenario(_with_ce(accepts_tokens="no"))
    for flag in ("rest_adopted", "token_capable"):
        factory = {"id": "f", "condor_major": 10, flag: 1}
        with pytest.raises(ScenarioError, match=flag):
            parse_scenario(variant(factories=[factory]))


@pytest.mark.parametrize("key", ["name", "seed", "horizon", "phase", "issuer", "keys", "sites", "factories", "clients"])
def test_missing_required_top_level_field(key):
    doc = base_doc()
    del doc[key]
    with pytest.raises(ScenarioError):
        parse_scenario(doc)


def test_unknown_top_level_field_rejected():
    with pytest.raises(ScenarioError, match="unknown top-level"):
        parse_scenario(variant(extra_knob=1))


def test_bad_phase_rejected():
    with pytest.raises(ScenarioError, match="phase"):
        parse_scenario(variant(phase="TOKENS_PLEASE"))


def test_non_integer_seed_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario(variant(seed="soon"))
    with pytest.raises(ScenarioError):
        parse_scenario(variant(seed=True))


def test_htcondor_ce_forces_native_interface():
    doc = base_doc()
    doc["sites"][0]["ces"][0]["interface"] = "REST"
    with pytest.raises(ScenarioError, match="NATIVE"):
        parse_scenario(doc)


def test_arc_ce_requires_rest_or_ldap():
    doc = base_doc()
    doc["sites"][0]["ces"][0] = {
        "id": "ce-a1",
        "flavor": "ARC_CE",
        "interface": "NATIVE",
        "capacity": 10,
    }
    with pytest.raises(ScenarioError, match="REST or LDAP"):
        parse_scenario(doc)
    doc["sites"][0]["ces"][0]["interface"] = "LDAP"
    sc = parse_scenario(doc)
    assert sc.ces[0].interface is CEInterface.LDAP
    assert sc.ces[0].accepts_tokens is False  # default


def test_key_validation():
    with pytest.raises(ScenarioError, match="at least one"):
        parse_scenario(variant(keys=[]))
    with pytest.raises(ScenarioError, match="daemon"):
        parse_scenario(variant(keys=[{"kid": "s1", "purpose": "startd"}]))
    with pytest.raises(ScenarioError, match="startd"):
        parse_scenario(variant(keys=[{"kid": "d1", "purpose": "daemon"}]))
    with pytest.raises(ScenarioError, match="duplicate"):
        parse_scenario(
            variant(
                keys=[
                    {"kid": "k", "purpose": "daemon"},
                    {"kid": "k", "purpose": "startd"},
                ]
            )
        )
    with pytest.raises(ScenarioError, match="purpose"):
        parse_scenario(
            variant(
                keys=[
                    {"kid": "a", "purpose": "daemon"},
                    {"kid": "b", "purpose": "wildcard"},
                ]
            )
        )


def test_duplicate_ids_rejected():
    doc = base_doc()
    doc["sites"].append(copy.deepcopy(doc["sites"][0]))
    doc["sites"][1]["name"] = "site-b"
    with pytest.raises(ScenarioError, match="duplicate gateway"):
        parse_scenario(doc)
    doc = base_doc()
    doc["sites"].append(copy.deepcopy(doc["sites"][0]))
    doc["sites"][1]["ces"][0]["id"] = "ce-b1"
    with pytest.raises(ScenarioError, match="duplicate site"):
        parse_scenario(doc)
    doc = variant(factories=[
        {"id": "f", "condor_major": 10},
        {"id": "f", "condor_major": 9},
    ])
    with pytest.raises(ScenarioError, match="duplicate id"):
        parse_scenario(doc)


#: Where each id the trace writes sits in ``base_doc()``, and the path its
#: refusal names.
ID_FIELDS = [
    (("issuer", "kid"), "issuer.kid"),
    (("keys", 1, "kid"), "keys[1].kid"),
    (("sites", 0, "ces", 0, "id"), "gateway sites[0].ces[0].id"),
    (("sites", 0, "name"), "sites[0].name"),
    (("factories", 0, "id"), "factories[0].id"),
    (("clients", 0, "id"), "clients[0].id"),
]
ID_FIELD_IDS = [".".join(map(str, path)) for path, _ in ID_FIELDS]


def with_value(path, value):
    doc = base_doc()
    *head, last = path
    node = doc
    for key in head:
        node = node[key]
    node[last] = value
    return doc


@pytest.mark.parametrize("path, named", ID_FIELDS, ids=ID_FIELD_IDS)
@pytest.mark.parametrize(
    "bad",
    ["", "a b", "a\tb", "a\nb", "a=b", "*", "\u00a0", "a\udc00"],
    ids=["empty", "space", "tab", "newline", "equals", "star", "nbsp", "surrogate"],
)
def test_every_id_the_trace_writes_follows_one_rule(path, named, bad):
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario(with_value(path, bad))
    assert str(excinfo.value).startswith(f"{named}: {bad!r} must be non-empty")


def test_a_surrogate_pair_and_the_character_it_encodes_are_not_two_gateways():
    # PyYAML reads the escapes "\ud800\udc00" as two code points, and the
    # trace writes those and U+10000 as the same escapes, so every ce=
    # record of the two gateways would read alike.
    doc = base_doc()
    ce = doc["sites"][0]["ces"][0]
    doc["sites"][0]["ces"] = [{**ce, "id": "\ud800\udc00"}, {**ce, "id": "\U00010000"}]
    with pytest.raises(ScenarioError, match=r"^gateway sites\[0\]\.ces\[0\]\.id: .* or surrogate"):
        parse_scenario(doc)
    doc["sites"][0]["ces"] = [{**ce, "id": "\U00010000"}]
    assert parse_scenario(doc).ces[0].id == "\U00010000"


@pytest.mark.parametrize("path, named", ID_FIELDS, ids=ID_FIELD_IDS)
def test_an_id_may_hold_any_other_character(path, named):
    parse_scenario(with_value(path, "x.y-z_9@*/:#"))


@pytest.mark.parametrize(
    "path, bound",
    [(("sites", 0, "ces", 0, "capacity"), 10_000), (("clients", 0, "jobs"), 100_000)],
    ids=["capacity", "jobs"],
)
def test_counts_made_into_one_object_each_have_an_upper_bound(path, bound):
    parse_scenario(with_value(path, bound))
    for too_many in (bound + 1, 2**70):
        with pytest.raises(ScenarioError, match=f"must be <= {bound}, got {too_many}"):
            parse_scenario(with_value(path, too_many))


def test_horizon_is_at_most_one_simulated_day():
    # A run's cost grows with its horizon, about 22 us per simulated second.
    parse_scenario(with_value(("horizon",), 86_400))
    for too_long in (86_401, 2**70):
        with pytest.raises(ScenarioError, match=f"^horizon: must be <= 86400, got {too_long}"):
            parse_scenario(with_value(("horizon",), too_long))


def test_factory_entries_must_name_real_gateways():
    doc = variant(
        factories=[{"id": "fac-1", "condor_major": 10, "entries": ["ce-ghost"]}]
    )
    with pytest.raises(ScenarioError, match="unknown entry"):
        parse_scenario(doc)


def test_client_methods_must_be_valid_and_non_empty():
    with pytest.raises(ScenarioError, match="empty methods"):
        parse_scenario(
            variant(clients=[{"id": "c", "methods": [], "jobs": 1, "duration": 10}])
        )
    with pytest.raises(ScenarioError):
        parse_scenario(
            variant(
                clients=[{"id": "c", "methods": ["PASSWORD"], "jobs": 1, "duration": 10}]
            )
        )


def test_join_latency_cannot_exceed_startup():
    with pytest.raises(ScenarioError, match="join_latency"):
        parse_scenario(variant(pilots={"startup": 10, "join_latency": 11}))


def test_plan_validation():
    ok = parse_scenario(
        variant(
            plan=[
                {"at": 10, "action": "set_phase", "phase": "TOKEN_ONLY"},
                {"at": 20, "action": "enable_scitoken", "ce": "ce-a1"},
                {"at": 30, "action": "upgrade_factory", "factory": "fac-1", "major": 11},
                {"at": 40, "action": "provision_client_token", "client": "cmsprod"},
            ]
        )
    )
    assert ok.plan[0].params["phase"] is MigrationPhase.TOKEN_ONLY
    with pytest.raises(ScenarioError, match="unknown action"):
        parse_scenario(variant(plan=[{"at": 1, "action": "reboot_everything"}]))
    with pytest.raises(ScenarioError, match="needs"):
        parse_scenario(variant(plan=[{"at": 1, "action": "set_phase"}]))
    with pytest.raises(ScenarioError, match="does not take"):
        parse_scenario(
            variant(plan=[{"at": 1, "action": "enable_scitoken", "ce": "ce-a1", "why": "x"}])
        )
    with pytest.raises(ScenarioError, match="unknown gateway"):
        parse_scenario(variant(plan=[{"at": 1, "action": "enable_scitoken", "ce": "nope"}]))
    with pytest.raises(ScenarioError, match="unknown factory"):
        parse_scenario(
            variant(plan=[{"at": 1, "action": "upgrade_factory", "factory": "nope", "major": 10}])
        )
    with pytest.raises(ScenarioError, match="unknown client"):
        parse_scenario(
            variant(plan=[{"at": 1, "action": "provision_client_token", "client": "nope"}])
        )


def test_fault_validation():
    ok = parse_scenario(
        variant(
            faults=[
                {"kind": "MESSAGE_DROP", "target": "*", "start": 5, "end": 10, "rate": 0.5}
            ]
        )
    )
    assert ok.faults[0].kind is FaultKind.MESSAGE_DROP
    assert ok.faults[0].rate == 0.5
    with pytest.raises(ScenarioError):
        parse_scenario(variant(faults=[{"kind": "EARTHQUAKE", "target": "*"}]))
    with pytest.raises(ScenarioError, match="rate"):
        parse_scenario(
            variant(faults=[{"kind": "MESSAGE_DROP", "target": "*", "rate": 1.5}])
        )
    with pytest.raises(ScenarioError, match="not after"):
        parse_scenario(
            variant(faults=[{"kind": "MESSAGE_DROP", "target": "*", "start": 10, "end": 10}])
        )
    with pytest.raises(ScenarioError, match="missing 'target'"):
        parse_scenario(variant(faults=[{"kind": "MESSAGE_DROP"}]))


@pytest.mark.parametrize(
    "kind, wrong, noun, right",
    [
        ("KEY_COMPROMISE", "ce-a1", "key", "startd-1"),
        ("KEY_COMPROMISE", "*", "key", "pool-daemon"),
        ("CE_TOKEN_MISCONFIG", "WMCLIENT->SCHEDD", "gateway", "*"),
        ("CE_STUCK_SUBMISSION", "startd-1", "gateway", "ce-a1"),
        ("MESSAGE_DROP", "startd-1", "channel", "STARTD->COLLECTOR"),
    ],
    ids=["key-at-gateway", "key-at-wildcard", "misconfig-at-channel", "stuck-at-key", "drop-at-key"],
)
def test_fault_target_must_name_what_its_kind_acts_on(kind, wrong, noun, right):
    with pytest.raises(ScenarioError, match=rf"^faults\[0\]: {kind} target {re.escape(repr(wrong))} names no {noun}$"):
        parse_scenario(variant(faults=[{"kind": kind, "target": wrong}]))
    assert parse_scenario(variant(faults=[{"kind": kind, "target": right}])).faults[0].target == right


def _drop(target, start=0, end=None, rate=1.0):
    return {"kind": "MESSAGE_DROP", "target": target, "start": start, "end": end, "rate": rate}


@pytest.mark.parametrize(
    "first, second, channel",
    [
        (_drop("*", rate=0.0), _drop("STARTD->COLLECTOR"), "STARTD->COLLECTOR"),
        (_drop("STARTD->COLLECTOR"), _drop("*", rate=0.0), "STARTD->COLLECTOR"),
        (_drop("*", 0, 100), _drop("*", 99, 200), "*"),
        (_drop("SCHEDD->COLLECTOR", 50), _drop("SCHEDD->COLLECTOR", 0, 51), "SCHEDD->COLLECTOR"),
        (_drop("SCHEDD->COLLECTOR", 500), _drop("SCHEDD->COLLECTOR", 10), "SCHEDD->COLLECTOR"),
    ],
    ids=["wildcard-first", "wildcard-second", "both-wildcards", "one-second-shared", "both-open"],
)
def test_overlapping_drop_faults_are_refused(first, second, channel):
    # A message meets only the first drop fault that covers it, so the
    # second of two overlapping ones would silently never act: a rate-0.0
    # wildcard ahead of a rate-1.0 channel fault left the drill with no
    # drop at all.  Both indices are named.
    doc = yaml.safe_load((SCENARIO_DIR / "drill-keysplit.yaml").read_text())
    doc["faults"] += [first, second]
    with pytest.raises(
        ScenarioError,
        match=rf"^faults\[1\] and faults\[2\]: MESSAGE_DROP windows overlap on channel {re.escape(repr(channel))}$",
    ):
        parse_scenario(doc)


@pytest.mark.parametrize(
    "faults",
    [
        [_drop("STARTD->COLLECTOR"), _drop("SCHEDD->COLLECTOR")],
        [_drop("*", 0, 100), _drop("*", 100)],
        [_drop("*", 0, 100), _drop("STARTD->COLLECTOR", 100, 200), _drop("SCHEDD->COLLECTOR", 100)],
        [_drop("STARTD->COLLECTOR"), {"kind": "CE_STUCK_SUBMISSION", "target": "*"}],
    ],
    ids=["two-channels", "back-to-back", "after-a-wildcard", "other-kind"],
)
def test_drop_faults_apart_in_channel_or_time_parse(faults):
    sc = parse_scenario(variant(faults=faults))
    assert [f.target for f in sc.faults] == [f["target"] for f in faults]


def test_load_scenario_round_trip(tmp_path):
    import yaml

    path = tmp_path / "unit.yaml"
    path.write_text(yaml.safe_dump(base_doc()))
    sc = load_scenario(path)
    assert sc.name == "unit"


def test_adopt_rest_on_an_htcondor_ce_is_rejected():
    arc = {"id": "arc-1", "flavor": "ARC_CE", "interface": "LDAP", "capacity": 5}
    sites = [{"name": "site-a", "ces": [base_doc()["sites"][0]["ces"][0], arc]}]
    ok = parse_scenario(variant(sites=sites, plan=[{"at": 10, "action": "adopt_rest", "ce": "arc-1"}]))
    assert ok.plan[0].params == {"ce": "arc-1"}
    with pytest.raises(ScenarioError, match=r"plan\[0\]: adopt_rest on HTCONDOR_CE gateway 'ce-a1'"):
        parse_scenario(variant(sites=sites, plan=[{"at": 10, "action": "adopt_rest", "ce": "ce-a1"}]))


LOADER_BASES = [
    yaml.SafeLoader,
    pytest.param(
        getattr(yaml, "CSafeLoader", None),
        marks=pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML has no libyaml"),
        id="CSafeLoader",
    ),
]


def loader_on(base):
    """``scenario._UniqueKeyLoader`` itself, or its refusals on the other base."""
    loader = scenario._UniqueKeyLoader
    if base in loader.__bases__:
        return loader
    return type(f"UniqueKey{base.__name__}", (base,), {"construct_mapping": loader.construct_mapping})


@pytest.fixture(params=LOADER_BASES, ids=lambda base: base.__name__)
def loader_base(request, monkeypatch):
    """Run the test with ``load_scenario`` parsing on one safe-loader base."""
    monkeypatch.setattr(scenario, "_UniqueKeyLoader", loader_on(request.param))


def test_shipped_scenarios_load_alike_on_both_loader_bases(monkeypatch):
    assert scenario._UniqueKeyLoader.__bases__ == (getattr(yaml, "CSafeLoader", yaml.SafeLoader),)
    paths = sorted(SCENARIO_DIR.glob("*.yaml"))
    assert len(paths) == 6
    loaded = {}
    for base in (yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
        monkeypatch.setattr(scenario, "_UniqueKeyLoader", loader_on(base))
        loaded[base] = [load_scenario(path) for path in paths]
    first, *rest = loaded.values()
    assert all(scenarios == first for scenarios in rest)


@pytest.mark.parametrize(
    "before, duplicate, key",
    [("horizon: 600\n", "horizon: 5\n", "horizon"), ("  kid: ", "  kid: op-2\n", "kid")],
    ids=["top-level", "nested"],
)
def test_duplicate_yaml_key_rejected(tmp_path, loader_base, before, duplicate, key):
    # yaml.safe_load would keep the second value without a word.
    text = (SCENARIO_DIR / "split-2022.yaml").read_text()
    lines = text.splitlines(keepends=True)
    at = next(i for i, l in enumerate(lines) if l.startswith(before))
    lines.insert(at + 1, duplicate)
    path = tmp_path / "dup.yaml"
    path.write_text("".join(lines))
    with pytest.raises(
        ScenarioError, match=rf"dup.yaml: duplicate key '{key}' on line {at + 2} \(first on line {at + 1}\)"
    ):
        load_scenario(path)


@pytest.mark.parametrize(
    "text, line",
    [("<<: {horizon: 5}\nhorizon: 600\n", 1), ("base: &op {kid: op-1}\nkeys:\n  - <<: *op\n    kid: op-2\n", 3)],
    ids=["top-level", "nested-alias"],
)
def test_yaml_merge_key_rejected(tmp_path, loader_base, text, line):
    # Both loaders would let the later key win over the merged one silently.
    path = tmp_path / "merge.yaml"
    path.write_text(text)
    with pytest.raises(ScenarioError, match=rf"merge.yaml: merge key '<<' on line {line}$"):
        load_scenario(path)


def test_load_scenario_rejects_bad_yaml_and_empty_files(tmp_path, loader_base):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: [unclosed\n")
    with pytest.raises(ScenarioError, match=r"(?s)not valid YAML: .*line 1, column 7"):
        load_scenario(bad)
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    with pytest.raises(ScenarioError, match="empty"):
        load_scenario(empty)


def _with_fault(**fault):
    return variant(faults=[{"kind": "MESSAGE_DROP", "target": "*", **fault}])


#: A wrongly typed value at each level, with the message that must name it.
#: The parent coerced the first six with ``str(...)`` and crashed on the plan step.
WRONGLY_TYPED = {
    "name-null": (variant(name=None), r"^name: expected a string, got None"),
    "issuer-kid-null": (
        variant(issuer={"url": "https://issuer.test", "kid": None}),
        r"^issuer\.kid: expected a string",
    ),
    "issuer-url-list": (
        variant(issuer={"url": [1, 2], "kid": "op-1"}),
        r"^issuer\.url: expected a string",
    ),
    "key-kid-int": (
        variant(keys=[{"kid": 7, "purpose": "daemon"}, {"kid": "s", "purpose": "startd"}]),
        r"^keys\[0\]\.kid: expected a string, got 7",
    ),
    "site-name-bool": (
        variant(sites=[{**base_doc()["sites"][0], "name": True}]),
        r"^sites\[0\]\.name: expected a string, got True",
    ),
    "fault-target-null": (_with_fault(target=None), r"^faults\[0\]\.target: expected a string"),
    "methods-mapping": (
        variant(clients=[{"id": "c", "methods": {"IDTOKEN": 1}, "jobs": 1, "duration": 9}]),
        r"^clients\[0\]\.methods: expected a list",
    ),
    "plan-step-int": (variant(plan=[5]), r"^plan\[0\]: expected a mapping, got 5"),
    "keys-mapping": (
        variant(keys={"kid": "pool-daemon", "purpose": "daemon"}),
        r"^keys: expected a list",
    ),
    "sites-string": (variant(sites="site-a"), r"^sites: expected a list"),
    "gateways-mapping": (
        variant(sites=[{"name": "site-a", "ces": base_doc()["sites"][0]["ces"][0]}]),
        r"^gateway sites\[0\]\.ces: expected a list",
    ),
    "entries-string": (
        variant(factories=[{"id": "f", "condor_major": 10, "entries": "ce-a1"}]),
        r"^factories\[0\]\.entries: expected a list",
    ),
    "methods-string": (
        variant(clients=[{"id": "c", "methods": "IDTOKEN", "jobs": 1, "duration": 9}]),
        r"^clients\[0\]\.methods: expected a list",
    ),
    "plan-string": (variant(plan="set_phase"), r"^plan: expected a list"),
    "plan-param-int": (
        variant(plan=[{"at": 1, "action": "enable_scitoken", "ce": 5}]),
        r"^plan\[0\]\.ce: expected a string, got 5",
    ),
    "rate-bool": (_with_fault(rate=True), r"^faults\[0\]\.rate: expected a number"),
}


@pytest.mark.parametrize("case", sorted(WRONGLY_TYPED))
def test_wrongly_typed_value_rejected(case):
    doc, message = WRONGLY_TYPED[case]
    with pytest.raises(ScenarioError, match=message):
        parse_scenario(doc)


def test_an_int_rate_is_read_as_a_float_and_end_may_be_null():
    sc = parse_scenario(_with_fault(rate=1))
    assert sc.faults[0].rate == 1.0 and isinstance(sc.faults[0].rate, float)
    assert parse_scenario(_with_fault(end=None)).faults[0].end is None


#: YAML values of every type a scalar can be replaced with.
REPLACEMENTS = (None, True, 7, 1.5, "x", [], {})


def _scalar_leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _scalar_leaves(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _scalar_leaves(value, (*path, i))
    else:
        yield path, node


#: Passed as the value to ``_replaced``, deletes the entry at the path.
DELETE = object()


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


@pytest.mark.parametrize("stem", ["split-2022", "drill-keysplit"])
def test_every_scalar_of_another_type_is_rejected(stem):
    """Each scalar leaf of a shipped scenario, replaced by a value of another
    type, fails with ScenarioError.  An int may stand for a float, and a
    string standing for a string is checked only as what it names, so
    either may parse; neither may raise anything else."""
    doc = yaml.safe_load((SCENARIO_DIR / f"{stem}.yaml").read_text())
    leaves = list(_scalar_leaves(doc))
    assert len(leaves) > 40
    for path, original in leaves:
        for value in REPLACEMENTS:
            may_parse = type(value) is type(original) or (
                type(original) is float and type(value) is int
            )
            try:
                parse_scenario(_replaced(doc, path, value))
            except ScenarioError:
                continue
            assert may_parse, f"{stem}: {path} = {value!r} was accepted"


#: The values a mutation may put in place of any one value of a scenario.
MUTATION_POOL = ("", -1, 0, 1.5, 2**70, math.nan, math.inf, [], {}, True, "*", "a b", "a=b")
SHIPPED_DOCS = {path.stem: yaml.safe_load(path.read_text()) for path in sorted(SCENARIO_DIR.glob("*.yaml"))}


def _value_paths(node, path=()):
    """The path to every value below ``node``, mappings and lists included."""
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield (*path, key)
            yield from _value_paths(value, (*path, key))


VALUE_PATHS = {stem: list(_value_paths(doc)) for stem, doc in SHIPPED_DOCS.items()}


@settings(max_examples=400)
@given(st.data())
def test_a_mutated_shipped_scenario_is_refused_at_parse_or_runs(data):
    """Delete one key (or list item) of a shipped scenario, or replace one
    value with one from a fixed pool: the parser refuses the result with
    ScenarioError, or the run, capped at t=1200, raises nothing and breaks
    no phase rule."""
    stem = data.draw(st.sampled_from(sorted(SHIPPED_DOCS)), label="scenario")
    path = data.draw(st.sampled_from(VALUE_PATHS[stem]), label="path")
    value = data.draw(st.sampled_from((DELETE, *MUTATION_POOL)), label="value")
    try:
        sc = parse_scenario(_replaced(SHIPPED_DOCS[stem], path, value))
    except ScenarioError:
        return
    result = run_scenario(dataclasses.replace(sc, horizon=min(sc.horizon, 1200)))
    violations = result.report["phase_soundness"]["violations"]
    assert not violations, violations[:3]


#: The draws of the test above as one strategy: a scenario, one of its
#: paths, and what to put there.
MUTATIONS = st.sampled_from(sorted(SHIPPED_DOCS)).flatmap(
    lambda stem: st.tuples(
        st.just(stem), st.sampled_from(VALUE_PATHS[stem]), st.sampled_from((DELETE, *MUTATION_POOL))
    )
)


def mutated_scenario(mutation):
    """The mutated shipped scenario, capped at t=1200, or None if it does
    not parse."""
    stem, path, value = mutation
    try:
        sc = parse_scenario(_replaced(SHIPPED_DOCS[stem], path, value))
    except ScenarioError:
        return None
    return dataclasses.replace(sc, horizon=min(sc.horizon, 1200))


@settings(max_examples=80)
@example(("migration-2022", ("pilots", "token_lifetime"), 300))
@given(MUTATIONS)
def test_sessions_leave_a_mutated_scenario_digest_alone(mutation):
    """A mutated shipped scenario that parses, run to t=1200, has the same
    digest whether or not a verified token opens a session.  The example
    makes pilot tokens expire between keepalives, after their session opened."""
    stem, path, value = mutation
    try:
        sc = parse_scenario(_replaced(SHIPPED_DOCS[stem], path, value))
    except ScenarioError:
        return
    capped = dataclasses.replace(sc, horizon=min(sc.horizon, 1200))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Sessions, "open", lambda sessions, token, result: result)
        unopened = run_scenario(capped).digest
    assert run_scenario(capped).digest == unopened


def test_readme_example_parses_and_runs():
    """The scenario block in README's "Scenario files" section is a working scenario."""
    readme = (SCENARIO_DIR.parent / "README.md").read_text()
    section = readme[readme.index("## Scenario files"):]
    block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    sc = parse_scenario(yaml.safe_load(block))
    assert sc.name == "example"
    assert [ce.interface for ce in sc.ces] == [CEInterface.NATIVE, CEInterface.REST]
    out = io.BytesIO()
    result = run_scenario(sc, trace_out=out)
    assert len(result.digest) == 64
    assert any(rec.channel == "PLAN" for rec in written(out.getvalue()))
