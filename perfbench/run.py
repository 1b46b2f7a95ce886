"""Benchmark tokenpool end to end (``--trace 0``) or per layer (``--trace 1``).

    python3 perfbench/run.py --workload tokenonly --seed 1 --seconds 10 --trace 0

Run it from a checkout of the repository: it imports ``tokenpool`` from
``src/`` and reads the shipped scenarios from ``scenarios/``.  Workloads,
metrics and the layer-to-metric map are described in ``perfbench/README.md``.

The loop is closed and single-threaded: one round starts only after the
previous one has finished and been checked.  A round runs every scenario of
the workload once, each at its own scenario seed drawn from ``--seed``, so
no round can reuse what an earlier one computed.  The first timed round runs
the shipped seeds instead, whose digests are pinned.  Every round's report
is checked against ``perfbench/expected.py``; a round that raises or fails
the check counts in ``failed``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it are the same
figures for people, with tail percentiles and sample counts.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import random
import statistics
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

from expected import EXPECTED
from spans import AUTHENTICATE, DISPATCH, EVENTS, LayerStats, SpanTracer
from speed import REFERENCE_PROBE_S, SpeedSampler

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
SPAN_DIR = ROOT / ".bench_out"

#: Set-up passes per run; ``setup_s`` is their median.
SETUP_REPEATS = 21
#: Timed rounds per run even when ``--seconds`` runs out sooner.
MIN_ROUNDS = 3
#: Fewest speed probes a quantity's own intervals must hold to set its speed.
MIN_PROBES = 100


@dataclass(frozen=True)
class Workload:
    scenarios: tuple[str, ...]
    horizon_factor: int = 1
    #: Parse the YAML inside each timed round (the many-short-runs pattern)
    #: instead of once before timing.
    parse_in_round: bool = False


WORKLOADS = {
    "tokenonly": Workload(("rollout-2022-tokenonly",)),
    "fallback-long": Workload(("rollout-2022",), horizon_factor=4),
    "shipped-small": Workload(
        ("arc-ldap-deprecation", "drill-keysplit", "migration-2022", "split-2022"),
        parse_in_round=True,
    ),
}


def import_tokenpool():
    """Import ``tokenpool`` from this checkout's ``src/``, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "tokenpool" / "__init__.py").is_file() or not SCENARIOS.is_dir():
        sys.exit(f"perfbench: {ROOT} holds no src/tokenpool and scenarios/ to benchmark")
    sys.path.insert(0, str(src))
    import tokenpool
    from tokenpool import actors, migration, scenario

    if Path(tokenpool.__file__).resolve().parent != (src / "tokenpool").resolve():
        sys.exit(f"perfbench: imported tokenpool from {tokenpool.__file__}, not from {src}")
    return actors, migration, scenario


@dataclass
class Round:
    seeds: list[int | None]
    reports: list[dict]
    #: Trace records of each scenario's run.
    records: list[int]
    #: Clock readings per scenario: start, run finished, report finished.
    clocks: list[tuple[float, float, float]]

    @property
    def run_s(self) -> float:
        return sum(end - start for start, _, end in self.clocks)


class Bench:
    def __init__(self, workload: str, seed: int) -> None:
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.actors, self.migration, self.scenario = import_tokenpool()
        self._seeds = random.Random(f"tokenpool-perfbench/{workload}/{seed}")
        self.parsed = {}
        if not self.workload.parse_in_round:
            self.parsed = {stem: self.generate(stem) for stem in self.workload.scenarios}
        self.attempted = 0
        self.failed = 0

    def generate(self, stem: str):
        """Parse a shipped scenario and scale its horizon for this workload."""
        sc = self.scenario.load_scenario(SCENARIOS / f"{stem}.yaml")
        if self.workload.horizon_factor != 1:
            sc = dataclasses.replace(sc, horizon=sc.horizon * self.workload.horizon_factor)
        return sc

    def next_seeds(self) -> list[int]:
        return [self._seeds.randrange(1, 2**31) for _ in self.workload.scenarios]

    def setup_once(self) -> tuple[float, float]:
        """``load_scenario`` + ``build_world`` for every scenario, up to the
        first event; returns the clock readings around it."""
        seeds = self.next_seeds()
        t0 = time.perf_counter()
        for stem, seed in zip(self.workload.scenarios, seeds):
            self.actors.build_world(dataclasses.replace(self.generate(stem), seed=seed))
        return t0, time.perf_counter()

    def round(self, seeds: list[int | None]) -> Round:
        """Run and report every scenario once; ``None`` keeps the shipped seed."""
        reports = []
        records = []
        clocks = []
        for stem, seed in zip(self.workload.scenarios, seeds):
            t0 = time.perf_counter()
            sc = self.generate(stem) if self.workload.parse_in_round else self.parsed[stem]
            result = self.migration.run_scenario(sc, seed=seed)
            t1 = time.perf_counter()
            report = self.migration.report_dict(result)
            t2 = time.perf_counter()
            reports.append(report)
            records.append(len(result.trace.records))
            clocks.append((t0, t1, t2))
        return Round(seeds, reports, records, clocks)

    def checked_round(self, seeds: list[int | None]) -> Round | None:
        """A round whose output passed the check, or None (counted failed)."""
        self.attempted += 1
        try:
            rnd = self.round(seeds)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        problems = []
        for stem, seed, report, records in zip(self.workload.scenarios, seeds, rnd.reports, rnd.records):
            problems += check_report(stem, seed, report, records)
        if problems:
            print("\n".join(f"check failed: {p}" for p in problems), file=sys.stderr)
            self.failed += 1
            return None
        return rnd


def check_report(stem: str, seed: int | None, report: dict, records: int) -> list[str]:
    expected = EXPECTED[stem]
    problems = []
    if seed is None and report["digest"] != expected["digest"]:
        problems.append(f"{stem}: digest {report['digest']} != pinned {expected['digest']}")
    if seed is not None and report["seed"] != seed:
        problems.append(f"{stem}: ran at seed {report['seed']}, asked for {seed}")
    if not report["phase_soundness"]["ok"]:
        problems.append(f"{stem}: phase soundness violated: {report['phase_soundness']['violations'][:3]}")
    for key, want in expected["facts"].items():
        got = records if key == "records" else report.get(key)
        if got != want:
            problems.append(f"{stem} at seed {report['seed']}: {key} = {got}, expected {want}")
    return problems


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return None
    pct = (100 * (n - 10)) // n
    return pct, xs[math.ceil(pct * n / 100) - 1]


def describe(name: str, unit: str, values: list[float]) -> str:
    t = tail(values)
    tail_txt = f"p{t[0]}={t[1]:.6g}" if t else "no tail (fewer than 11 samples)"
    return f"{name:<16} median={statistics.median(values):.6g} {unit:<4} {tail_txt}  best={min(values):.6g}  n={len(values)}"


def timed(bench: Bench, seconds: int) -> dict:
    """End-to-end metrics from untraced passes, and a separate memory pass.

    Set-up passes and rounds run under the speed sampler; their times are
    corrected to the reference speed (``speed.py``).
    """
    sampler = SpeedSampler()
    setup_clocks = []
    rounds: list[Round] = []
    with sampler.sampling():
        for _ in range(SETUP_REPEATS):
            gc.collect()
            setup_clocks.append(bench.setup_once())
        started = time.perf_counter()
        while bench.attempted < MIN_ROUNDS or time.perf_counter() - started < seconds:
            seeds = [None] * len(bench.workload.scenarios) if bench.attempted == 0 else bench.next_seeds()
            gc.collect()
            rnd = bench.checked_round(seeds)
            if rnd is not None:
                rounds.append(rnd)
    if not rounds:
        sys.exit(f"perfbench: every round of {bench.name} failed")

    # tracemalloc slows a run about 4x, so memory comes from its own round.
    memory_seeds = bench.next_seeds()
    gc.collect()
    tracemalloc.start()
    try:
        memory_round = bench.checked_round(memory_seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    def work_s(r: Round, sub: int) -> float:
        """Reference seconds of the round's runs (sub=0) or reports (sub=1).

        The speed comes from the probes inside those intervals, or from the
        whole round when they hold too few probes for a steady mean.
        """
        intervals = [(c[sub], c[2]) for c in r.clocks]
        speed_from = intervals
        if sampler.probes_in(intervals) < MIN_PROBES:
            speed_from = [(c[0], c[2]) for c in r.clocks]
        return sampler.scale(speed_from) * sum(b - a - sampler.probe_s(a, b) for a, b in intervals)

    k_setup = sampler.scale([(setup_clocks[0][0], setup_clocks[-1][1])])
    samples = {
        "run_s": [work_s(r, 0) for r in rounds],
        "setup_s": [k_setup * (t1 - t0 - sampler.probe_s(t0, t1)) for t0, t1 in setup_clocks],
        "report_s": [work_s(r, 1) for r in rounds],
        "records_per_s": [sum(r.records) / work_s(r, 0) for r in rounds],
    }
    units = {"run_s": "s", "setup_s": "s", "report_s": "s", "records_per_s": "1/s", "peak_mib": "MiB"}
    print(f"workload {bench.name}: {len(rounds)} timed rounds of {sum(rounds[0].records)} records, closed loop, one client")
    print("times are host seconds corrected to the reference speed (perfbench/speed.py)")
    for name, values in samples.items():
        print(describe(name, units[name], values))
    print(
        f"peak_mib         {peak / 2**20:.6g} MiB from a separate tracemalloc round at seeds {memory_seeds}"
        + ("" if memory_round else " (that round failed its check)")
    )
    print(f"error_rate       {bench.failed}/{bench.attempted} rounds raised or failed the output check")
    print(describe("raw run_s", "s", [r.run_s for r in rounds]))
    print(describe("raw setup_s", "s", [t1 - t0 for t0, t1 in setup_clocks]))
    print(describe("probe_us", "us", [t * 1e6 for t in sampler.took]) + f"  (reference {REFERENCE_PROBE_S * 1e6:g} us)")
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["peak_mib"] = peak / 2**20
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


FULL_LAYERS = (
    "jose.decode_token",
    "jose.encode_token",
    "tokens.verify_scitoken",
    "tokens.verify_idtoken",
    "tokens.mint_idtoken",
    "tokens.mint_scitoken",
    "policy.authenticate",
    "policy.authorize",
    "simnet.Trace.record",
    "simnet.FaultBoard.active",
)
AUTH_METHODS = ("IDTOKEN", "SCITOKEN", "GSI_PROXY", "LOCAL_FS")
#: Methods every workload authenticates with, so their cost per call is defined.
TIMED_AUTH_METHODS = ("IDTOKEN", "SCITOKEN")
ACTOR_STEPS = (
    "actors.Frontend.cycle",
    "actors.Collector.match_tick",
    "actors.Collector.keepalive",
    "actors.Collector.receive_join",
    "actors.Factory.submit_one",
    "actors.CEGateway.receive_submission",
)
WHOLE_CALLS_MS = (
    "scenario.load_scenario",
    "actors.build_world",
    "simnet.Trace.digest",
    "migration.compute_metrics",
    "migration.drill_report",
    "migration.check_phase_soundness",
    "migration.report_dict",
)


def layer_metrics(tracer: SpanTracer, traced: Round) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced round, and notes for people."""
    stats = tracer.summary()
    empty = LayerStats()
    get = lambda name: stats.get(name, empty)  # noqa: E731
    out: dict[str, tuple[float, str]] = {}
    notes = []

    def per_op_us(s) -> float:
        return s.total_s / s.calls * 1e6 if s.calls else 0.0

    for name in FULL_LAYERS:
        s = get(name)
        out[f"{name}.calls"] = (s.calls, "count")
        out[f"{name}.us_per_op"] = (per_op_us(s), "us")
        out[f"{name}.self_ms"] = (s.self_s * 1e3, "ms")
        out[f"{name}.raised"] = (s.raised, "count")
    for method in AUTH_METHODS:
        s = get(f"{AUTHENTICATE}[{method}]")
        out[f"{AUTHENTICATE}.calls.{method}"] = (s.calls, "count")
        if method in TIMED_AUTH_METHODS:
            out[f"{AUTHENTICATE}.us_per_op.{method}"] = (per_op_us(s), "us")
        elif s.calls:
            notes.append(f"{AUTHENTICATE}.us_per_op.{method} = {per_op_us(s):.6g} us (not exported: some workloads never call it)")
    out["policy.negotiate_method.calls"] = (get("policy.negotiate_method").calls, "count")
    out[EVENTS] = (tracer.counts[EVENTS], "count")
    out[f"{DISPATCH}.calls"] = (get(DISPATCH).calls, "count")
    out["simnet.Engine.run.self_ms"] = (get("simnet.Engine.run").self_s * 1e3, "ms")
    out["simnet.Trace.select.calls"] = (get("simnet.Trace.select").calls, "count")
    for name in ACTOR_STEPS:
        out[f"{name}.calls"] = (get(name).calls, "count")
        out[f"{name}.self_ms"] = (get(name).self_s * 1e3, "ms")
    for name in WHOLE_CALLS_MS:
        out[f"{name}.ms"] = (get(name).total_s * 1e3, "ms")

    for name in ("tokens.verify_scitoken", "tokens.verify_idtoken"):
        distinct, calls = len(tracer.distinct[name]), get(name).calls
        out[f"{name}.distinct"] = (distinct, "count")
        out[f"{name}.distinct_ratio"] = (distinct / calls if calls else 0.0, "ratio")
        notes.append(f"{name}.distinct_ratio = {distinct} distinct tokens / {calls} verifications")
    decodes, auths = get("jose.decode_token").calls, get(AUTHENTICATE).calls
    out["jose.decodes_per_auth"] = (decodes / auths, "ratio")
    notes.append(f"jose.decodes_per_auth = {decodes} decodes / {auths} authenticate calls")
    joined = sum(r["pilots"].get("JOINED", 0) for r in traced.reports)
    requested = sum(r["pilots"].get("REQUESTED", 0) for r in traced.reports)
    out["actors.pilot_yield"] = (joined / requested, "ratio")
    notes.append(f"actors.pilot_yield = {joined} pilots JOINED / {requested} REQUESTED")
    return out, notes


def traced(bench: Bench, seed: int, seconds: int) -> dict:
    """Per-layer metrics from the first traced round.

    Traced and untraced rounds alternate at shared seeds until ``seconds``
    have passed; the difference of their median times is the tracing
    overhead, and each pair must produce identical digests.
    """
    for _ in range(3):
        bench.setup_once()
    first: tuple[SpanTracer, Round] | None = None
    traced_s, untraced_s = [], []
    started = time.perf_counter()
    while not traced_s or time.perf_counter() - started < seconds:
        seeds = bench.next_seeds()
        gc.collect()
        untraced = bench.checked_round(seeds)
        tracer = SpanTracer()
        gc.collect()
        with tracer.installed():
            if bench.parsed and first is None:
                # Parse again under the tracer so load_scenario gets its span.
                bench.parsed = {stem: bench.generate(stem) for stem in bench.workload.scenarios}
            traced_round = bench.checked_round(seeds)
        if untraced is None or traced_round is None:
            sys.exit(f"perfbench: a traced or untraced round of {bench.name} failed")
        if [r["digest"] for r in traced_round.reports] != [r["digest"] for r in untraced.reports]:
            print(f"check failed: tracing changed the digest at seeds {seeds}", file=sys.stderr)
            bench.failed += 1
        if first is None:
            first = (tracer, traced_round)
        traced_s.append(traced_round.run_s)
        untraced_s.append(untraced.run_s)

    tracer, traced_round = first
    metrics, notes = layer_metrics(tracer, traced_round)
    metrics["tracing.traced_run_s"] = (statistics.median(traced_s), "s")
    metrics["tracing.untraced_run_s"] = (statistics.median(untraced_s), "s")
    metrics["tracing.overhead_s"] = (statistics.median(traced_s) - statistics.median(untraced_s), "s")
    spans_path = SPAN_DIR / f"spans-{bench.name}-seed{seed}.tsv.gz"
    tracer.write(spans_path)
    print(
        f"workload {bench.name}: per-layer figures from the first traced round at seeds"
        f" {traced_round.seeds} ({len(tracer.start)} spans); {len(traced_s)} traced/untraced pairs"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:.6g} {unit}")
    for note in notes:
        print(note)
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    bench = Bench(args.workload, args.seed)
    metrics = traced(bench, args.seed, args.seconds) if args.trace else timed(bench, args.seconds)
    print(
        json.dumps(
            {
                "correct": bench.failed == 0,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
