"""Outside-in span tracer for tokenpool's layers.

The tracer swaps the traced functions and methods for wrappers that record
one span per call: name, parent span, start, end, and whether it raised.
Spans live in flat in-memory arrays while the run goes and are aggregated
(and optionally written out) only after it ends, so the traced run does no
I/O.  Nothing in ``src/`` knows about the tracer.

Module-level functions are bound by ``from … import`` into the modules that
call them (``policy`` holds its own ``verify_idtoken``, ``actors`` its own
``authenticate``, ``migration`` its own ``build_world``), so a function is
replaced under every name in every ``tokenpool`` module that refers to it;
patching only the defining module would miss those calls.  Methods are
replaced on their class.  Every action passed to ``Engine.schedule_at`` is
wrapped in a ``simnet.Engine.dispatch`` span, which gives the number of
events dispatched and, by subtraction, the engine loop's own time.
"""

from __future__ import annotations

import array
import gzip
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

#: (module under ``tokenpool``, function or ``Class.method``) of every traced call.
TRACED = (
    ("jose", "decode_token"),
    ("jose", "encode_token"),
    ("tokens", "mint_idtoken"),
    ("tokens", "mint_scitoken"),
    ("tokens", "verify_idtoken"),
    ("tokens", "verify_scitoken"),
    ("policy", "authenticate"),
    ("policy", "authorize"),
    ("policy", "negotiate_method"),
    ("simnet", "Engine.run"),
    ("simnet", "Trace.record"),
    ("simnet", "Trace.select"),
    ("simnet", "Trace.digest"),
    ("simnet", "FaultBoard.active"),
    ("scenario", "load_scenario"),
    ("actors", "build_world"),
    ("actors", "Frontend.cycle"),
    ("actors", "Collector.match_tick"),
    ("actors", "Collector.keepalive"),
    ("actors", "Collector.receive_join"),
    ("actors", "Factory.submit_one"),
    ("actors", "CEGateway.receive_submission"),
    ("migration", "run_scenario"),
    ("migration", "compute_metrics"),
    ("migration", "drill_report"),
    ("migration", "check_phase_soundness"),
    ("migration", "report_dict"),
)

#: Traced functions whose first argument (a token) is collected to count
#: how many distinct tokens they see.
DISTINCT_ARG = frozenset({"tokens.verify_idtoken", "tokens.verify_scitoken"})

AUTHENTICATE = "policy.authenticate"
DISPATCH = "simnet.Engine.dispatch"
EVENTS = "simnet.events"


class LayerStats:
    """Aggregate of every span with one name."""

    __slots__ = ("calls", "total_s", "self_s", "raised")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.raised = 0

    def add(self, other: "LayerStats") -> None:
        self.calls += other.calls
        self.total_s += other.total_s
        self.self_s += other.self_s
        self.raised += other.raised


class SpanTracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array.array("l")
        self.parent = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.raised = bytearray()
        self._stack = [-1]
        self.counts: Counter[str] = Counter()
        self.distinct: dict[str, set[str]] = {name: set() for name in DISTINCT_ARG}
        self._undo: list[Callable[[], None]] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable, tag: Callable | None = None) -> Callable:
        """Return ``fn`` recording a span per call.

        ``tag(args, kwargs, result_or_None)`` may name a sub-kind that is
        appended to the span name in brackets, after the span has closed.
        """
        nid = self._name_id(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        raised, stack, clock = self.raised, self._stack, time.perf_counter
        seen = self.distinct.get(name)
        tagged: dict[str, int] = {}

        def span(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            raised.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
                if seen is not None:
                    seen.add(args[0])
                if tag is not None:
                    kind = tag(args, kwargs, result)
                    sub = tagged.get(kind)
                    if sub is None:
                        sub = tagged[kind] = self._name_id(f"{name}[{kind}]")
                    name_of[idx] = sub

        return span

    @contextmanager
    def installed(self, package: str = "tokenpool") -> Iterator["SpanTracer"]:
        """Patch every traced callable of ``package`` for the duration."""
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        simnet = sys.modules[f"{package}.simnet"]
        auth_tag = _authenticate_tag(package)
        try:
            for mod_name, attr in TRACED:
                module = sys.modules[f"{package}.{mod_name}"]
                name = f"{mod_name}.{attr}"
                tag = auth_tag if name == AUTHENTICATE else None
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    self._replace(cls, meth, self.wrap(name, vars(cls)[meth]))
                else:
                    original = getattr(module, attr)
                    wrapper = self.wrap(name, original, tag)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._replace(mod, key, wrapper)
            self._replace(simnet.Engine, "schedule_at", self._schedule_at(simnet.Engine.schedule_at))
            yield self
        finally:
            while self._undo:
                self._undo.pop()()

    def _replace(self, owner: object, key: str, value: object) -> None:
        old = vars(owner)[key]
        setattr(owner, key, value)
        self._undo.append(lambda: setattr(owner, key, old))

    def _schedule_at(self, original: Callable) -> Callable:
        counts, wrap = self.counts, self.wrap

        def schedule_at(engine, t, action):
            counts[EVENTS] += 1
            original(engine, t, wrap(DISPATCH, action))

        return schedule_at

    def summary(self) -> dict[str, LayerStats]:
        """Per span name: calls, inclusive time, self time, calls that raised.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the run is single-threaded.
        A tagged name ``x[k]`` also adds into ``x``.
        """
        n = len(self.start)
        child = array.array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        by_id = [LayerStats() for _ in self.names]
        for i in range(n):
            stats = by_id[self.name_of[i]]
            dur = end[i] - start[i]
            stats.calls += 1
            stats.total_s += dur
            stats.self_s += dur - child[i]
            stats.raised += self.raised[i]
        out: dict[str, LayerStats] = {}
        for name, stats in zip(self.names, by_id):
            out.setdefault(name, LayerStats()).add(stats)
            if "[" in name:
                out.setdefault(name.split("[", 1)[0], LayerStats()).add(stats)
        return out

    def write(self, path: Path) -> None:
        """Write every span as gzipped TSV: id, parent, name, start_us, end_us, raised."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_us\tend_us\traised\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name_of[i]]}\t"
                    f"{(self.start[i] - t0) * 1e6:.1f}\t{(self.end[i] - t0) * 1e6:.1f}\t{self.raised[i]}\n"
                )


def _authenticate_tag(package: str) -> Callable:
    """Name the auth method of a ``policy.authenticate`` call: the peer's
    method when it succeeded, else the kind of credential presented.
    Binds the untraced ``decode_token``, so it must run before patching."""
    policy = sys.modules[f"{package}.policy"]
    jose = sys.modules[f"{package}.jose"]
    token_error = sys.modules[f"{package}.errors"].TokenPoolError
    decode = jose.decode_token

    def tag(args, kwargs, peer) -> str:
        if peer is not None:
            return peer.method.value
        credential = args[2] if len(args) > 2 else kwargs["credential"]
        if isinstance(credential, policy.ProxyCredential):
            return policy.AuthMethod.GSI_PROXY.value
        if isinstance(credential, policy.LocalFsCredential):
            return policy.AuthMethod.LOCAL_FS.value
        try:
            header = decode(credential)[0]
        except token_error:
            return "unparsed"
        if header.alg == jose.SCITOKEN_ALG:
            return policy.AuthMethod.SCITOKEN.value
        return policy.AuthMethod.IDTOKEN.value

    return tag
