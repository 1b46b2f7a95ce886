"""The benchmark's span tracer still fits the package it traces.

``perfbench/spans.py`` patches ``tokenpool`` by name from the outside, so a
rename or a change of signature in ``src/`` can break the per-layer
benchmark without breaking any other test.  This file loads the tracer
as it is and checks what it relies on.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import tokenpool
from tokenpool import jose
from tokenpool.migration import run_scenario

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def load_spans():
    """``perfbench/spans.py`` as it is, loaded from its path."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return load_spans()


def test_every_traced_name_resolves(spans):
    for mod_name, attr in spans.TRACED:
        module = sys.modules[f"{tokenpool.__name__}.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(module, cls_name))[meth]), (mod_name, attr)
        else:
            assert callable(getattr(module, attr)), (mod_name, attr)


def test_parsed_tokens_can_be_collected_by_the_tracer():
    # The tracer counts distinct tokens by putting each verifier's first
    # argument, a parsed token, in a set: equal wire forms must collapse.
    header = jose.TokenHeader("HS256", "k")
    a, b = (
        jose.encode_token(header, jose.TokenClaims(sub="s", iat=1, exp=2, jti=jti), b"sec").compact
        for jti in ("a", "b")
    )
    assert len({jose.decode_token(a), jose.decode_token(a), jose.decode_token(b)}) == 2
    # The tracer replaces every module attribute that is the traced function,
    # so the parser must not be the value's class itself.
    assert jose.decode_token is not jose.Token


def test_traced_run_parses_no_token(spans):
    # A mint returns its token parsed, and its holder keeps it.
    tracer = spans.SpanTracer()
    with tracer.installed():
        run_scenario(SCENARIO_DIR / "split-2022.yaml")
    stats = tracer.summary()
    token_auths = sum(
        stats[f"{spans.AUTHENTICATE}[{method}]"].calls
        for method in ("IDTOKEN", "SCITOKEN")
        if f"{spans.AUTHENTICATE}[{method}]" in stats
    )
    assert token_auths > 0
    assert stats["jose.decode_token"].calls == 0
    assert stats["jose.encode_token"].calls > 0


def test_traced_run_dispatches_every_scheduled_event_under_a_span(spans, run_world):
    # The tracer counts each action handed to Engine.schedule_at and wraps it
    # in a dispatch span.  An engine that scheduled or ran an event around
    # that wrapper would leave the two counts apart, and tracing must not
    # move the digest.  The run ends with events still pending past its
    # horizon, each a (function, argument) pair on the calendar.
    path = SCENARIO_DIR / "arc-ldap-deprecation.yaml"
    tracer = spans.SpanTracer()
    with tracer.installed():
        world = run_world(path)
    pending = sum(len(actions) // 2 for actions in world.engine._calendar.values())
    dispatched = tracer.summary()[spans.DISPATCH].calls
    assert dispatched > 0 and pending > 0
    assert tracer.counts[spans.EVENTS] == dispatched + pending
    assert world.trace.digest() == run_scenario(path).digest
