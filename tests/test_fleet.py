"""The fleet axis: a shipped scenario copied k times over, run at full size.

``fleet(scenario, k)`` copies every site, gateway, factory and client, and
the faults and plan steps aimed at them, under ``-x1`` ... ``-x{k-1}``
suffixes; the keys, the issuer and every other fault and plan step stay
single, so the copies share one trust domain.  The digests below were
computed while the parse memo and the session table still cleared
themselves at 4,096 entries, which the x4 cells pass: how a token cache
keeps its entries must not change what a run does.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from tokenpool import jose
from tokenpool.migration import run_scenario
from tokenpool.scenario import Scenario, _check, load_scenario
from tokenpool.simnet import FaultKind

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

#: Plan-step parameters that name a gateway, a factory or a client.
_NAMING = frozenset({"ce", "factory", "client"})


def fleet(sc: Scenario, k: int) -> Scenario:
    """``sc`` with ``k`` copies of its fleet; copy 0 is ``sc``'s own."""
    sites, factories, clients, faults, plan = [], [], [], [], []
    for i in range(1, k):
        x = f"-x{i}"
        sites += [
            replace(
                site,
                name=site.name + x,
                ces=tuple(replace(ce, id=ce.id + x) for ce in site.ces),
            )
            for site in sc.sites
        ]
        factories += [
            replace(f, id=f.id + x, entries=tuple(e + x for e in f.entries)) for f in sc.factories
        ]
        clients += [replace(c, id=c.id + x) for c in sc.clients]
        faults += [
            replace(f, target=f.target + x)
            for f in sc.faults
            if f.kind in (FaultKind.CE_TOKEN_MISCONFIG, FaultKind.CE_STUCK_SUBMISSION)
            and f.target != "*"
        ]
        plan += [
            replace(s, params={p: v + x if p in _NAMING else v for p, v in s.params.items()})
            for s in sc.plan
            if s.params.keys() & _NAMING
        ]
    return replace(
        sc,
        sites=sc.sites + tuple(sites),
        factories=sc.factories + tuple(factories),
        clients=sc.clients + tuple(clients),
        faults=sc.faults + tuple(faults),
        plan=sc.plan + tuple(plan),
    )


#: ``(scenario, k)`` -> the digest of that cell.
FLEET_DIGESTS = {
    ("rollout-2022", 2): "0293d3269c0be578aaefc220a945cb4c04b924659045d30a09956d81ca82971a",
    ("rollout-2022", 4): "4663ce22409dde6cfb5bb3e2303f34b559805861e32e0df4c8ddc20e3a8a717a",
    ("rollout-2022-tokenonly", 2): "b990a247f49649460ee73823d377f39e517ca9b896c70e72b7a8453e948beec0",
    ("rollout-2022-tokenonly", 4): "08cf3a8a28a16cd5f4b2c599c3430b7faf092a3e9bfd28682a5eaa5900dc644a",
}


@pytest.fixture(scope="module")
def fleet_runs():
    """Each cell run once: its digest, whether it parsed no token at all,
    and how many tokens it minted."""
    runs = {}
    parses: list[str] = []
    mints: list[jose.Token] = []
    decode, encode = jose.decode_token, jose.encode_token
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jose, "decode_token", lambda compact: parses.append(compact) or decode(compact))
        mp.setattr(jose, "encode_token", lambda *args: mints.append(encode(*args)) or mints[-1])
        for name, k in FLEET_DIGESTS:
            parses.clear()
            mints.clear()
            scenario = fleet(load_scenario(SCENARIO_DIR / f"{name}.yaml"), k)
            _check(scenario)
            runs[name, k] = (run_scenario(scenario).digest, parses == [], len(mints))
    return runs


def test_fleet_of_one_is_the_scenario_itself():
    for name, _ in FLEET_DIGESTS:
        sc = load_scenario(SCENARIO_DIR / f"{name}.yaml")
        assert fleet(sc, 1) == sc


# migration-2022's plan names a gateway and a client; split-2022's
# factories list entries.
@pytest.mark.parametrize("name", ["migration-2022", "split-2022"])
def test_fleet_copies_the_fleet_and_what_aims_at_it(name):
    sc = load_scenario(SCENARIO_DIR / f"{name}.yaml")
    four = fleet(sc, 4)
    _check(four)
    assert four.keys == sc.keys and four.issuer == sc.issuer
    assert four.total_capacity == 4 * sc.total_capacity
    assert [c.id for c in four.clients] == [
        c.id + x for x in ("", "-x1", "-x2", "-x3") for c in sc.clients
    ]
    for copy in four.factories[len(sc.factories):]:
        x = copy.id[copy.id.rindex("-x"):]
        (factory,) = [f for f in sc.factories if f.id + x == copy.id]
        assert copy.entries == tuple(e + x for e in factory.entries)
    naming = [s for s in sc.plan if s.params.keys() & _NAMING]
    assert len(four.plan) == len(sc.plan) + 3 * len(naming)
    assert naming or any(f.entries for f in sc.factories)


@pytest.mark.parametrize("cell", list(FLEET_DIGESTS), ids=lambda c: f"{c[0]}-x{c[1]}")
def test_fleet_digest_is_pinned(fleet_runs, cell):
    assert fleet_runs[cell][0] == FLEET_DIGESTS[cell]


@pytest.mark.parametrize("name", ["rollout-2022", "rollout-2022-tokenonly"])
def test_each_token_presented_at_fleet_x4_is_parsed_once(fleet_runs, name):
    # More than 4,096 live pilots, and no token is parsed at all: each mint
    # returns its token parsed, and its holder keeps it, so no keepalive
    # parses again.
    _, parsed_none, minted = fleet_runs[name, 4]
    assert parsed_none and minted > 4096
