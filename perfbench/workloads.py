"""The benchmark workloads.

Each workload builds its inputs from the seed, sets the system up
several times (``setup_s`` is the median), measures for the requested
number of seconds through public APIs only, and checks the outputs
outside the timed region.  README.md records why each workload exists
and which layer metric should move which end-to-end metric.

Rulesets are fixed and the seed varies the traffic only, so
``hw_area_mm2`` repeats exactly; ``hw_energy_nJ_per_B`` repeats for
the same seed.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field
from typing import Optional

from spans import Tracer, no_span

HERE = os.path.dirname(os.path.abspath(__file__))
#: CPUs this run may use, read before any pinning narrows them
USABLE_CPUS = sorted(os.sched_getaffinity(0))

#: one session chunk of the offline workloads (the block scanner's
#: block size, so every feed is one vector sweep)
CHUNK = 16 * 1024
#: seeded traffic generated per offline run (about a quarter of what a
#: 30-s run scans); the timed loop cycles it
POOL_BYTES = {"ids_corpus": 4 << 20, "unfolded_dense": 1 << 20}
#: (distinct seeded flows, bytes per flow) of a run; callers cycle the
#: flows.  Served flows are 32 KiB: with 4 KiB flows (two round trips
#: per ~3 ms of scanning) served throughput swung 0.36-0.93 MB/s from
#: run to run with host CPU steal; 32 KiB flows held within 10%.
FLOWS = {"served_flows": (64, 32 * 1024), "cluster_flows": (256, 4 * 1024)}
#: the cluster caller feeds each flow in pieces of this size (one PING
#: barrier per piece)
CLUSTER_PIECE = 1024
SHARDS = 2
#: throughput is the median over this many consecutive blocks of a run
THROUGHPUT_BLOCKS = 10
#: set-ups per run; setup_s is their median (fewer for ids_corpus,
#: whose cold set-up takes ~5 s; cluster_flows sets up once per block)
SETUP_REPEATS = {"ids_corpus": 3, "unfolded_dense": 3,
                 "served_flows": 5, "cluster_flows": THROUGHPUT_BLOCKS}
#: bytes of each offline check slice scanned by the scalar backend
#: (the stream backend runs ~7.5 KB/s on the 2,000-rule corpus)
CHECK_BYTES = {"ids_corpus": 4096, "unfolded_dense": 32768}
#: a flow that has not closed after this many seconds is a failure
FLOW_TIMEOUT_S = 30.0
#: the traced run's layer-sum tolerance (share of wall time)
LAYER_SUM_TOLERANCE = 0.10


@dataclass
class Metric:
    value: float
    unit: str
    samples: int = 1


@dataclass
class Outcome:
    """What one run measured."""

    metrics: dict[str, Metric]
    attempted: int
    failed: int
    info: dict = field(default_factory=dict)


# -- rulesets and inputs -------------------------------------------------------
def flow_rules() -> list[tuple[str, str]]:
    from repro.workloads.synth import snort_like

    return snort_like(total=40).patterns()


def offline_pool(workload: str, seed: int) -> bytes:
    """The seeded traffic of an offline workload."""
    from repro.workloads.inputs import network_stream, plant_matches

    background = network_stream(POOL_BYTES[workload], seed=seed)
    if workload == "ids_corpus":
        return background  # realistic IDS shape: no planted matches
    patterns = [pattern for _, pattern in flow_rules()]
    return plant_matches(background, patterns, seed=seed, density=0.02)


def flow_pool(workload: str, seed: int) -> list[bytes]:
    """Seeded flows of network traffic with 2% planted matches."""
    from repro.workloads.inputs import network_stream, plant_matches

    count, size = FLOWS[workload]
    rng = random.Random(seed)
    patterns = [pattern for _, pattern in flow_rules()]
    flows = []
    for _ in range(count):
        flow_seed = rng.randrange(1 << 31)
        background = network_stream(size, seed=flow_seed)
        flows.append(plant_matches(background, patterns, seed=flow_seed, density=0.02))
    return flows


def match_crc(pairs) -> int:
    """CRC over the sorted distinct ``(rule, end)`` pairs of one flow."""
    lines = sorted({f"{rule} {end}" for rule, end in pairs})
    return zlib.crc32("\n".join(lines).encode("latin-1"))


# -- small measurement helpers -------------------------------------------------
def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method; needs two or more values)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def proc_kb(pid: int, key: str) -> int:
    """A ``kB`` field (``VmHWM``, ``VmRSS``) of ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(key)


def timing_metrics(ops: list[tuple[int, float, float]],
                   blocks: Optional[list[list[tuple[int, float, float]]]] = None,
                   ) -> dict[str, Metric]:
    """Throughput and latency of a run's operations, each
    ``(bytes, start, end)`` in completion order.

    Throughput is the median over THROUGHPUT_BLOCKS consecutive blocks
    (or over the given ``blocks``, each in completion order) of the
    block's bytes over its first-start-to-last-end time, so a burst of
    load from outside the benchmark that hits a minority of the blocks
    does not move it.  The p50 is, for the same reason, the median over
    the blocks of each block's median latency.  The p90 and p99 are over
    all operations; they are recorded beside the metrics but not gated:
    on a 2-CPU virtual machine they swung with CPU steal (README.md,
    "Steadiness").
    """
    ms = [(end - start) * 1e3 for _, start, end in ops]
    if blocks is None:
        size = max(1, len(ops) // THROUGHPUT_BLOCKS)
        blocks = [ops[first : first + size]
                  for first in range(0, len(ops) - size + 1, size)]
    rates, p50s = [], []
    for block in blocks:
        span = block[-1][2] - min(start for _, start, _ in block)
        rates.append(sum(nbytes for nbytes, _, _ in block) / span / 1e6)
        p50s.append(statistics.median((end - start) * 1e3 for _, start, end in block))
    return {
        "throughput_MBps": Metric(statistics.median(rates), "MB/s", len(ops)),
        "flow_p50_ms": Metric(statistics.median(p50s), "ms", len(ms)),
        "flow_p90_ms": Metric(percentile(ms, 90), "ms", len(ms)),
        "flow_p99_ms": Metric(percentile(ms, 99), "ms", len(ms)),
    }


def overhead_pct(untraced: dict[str, Metric], traced: dict[str, Metric]) -> float:
    """Tracing overhead: untraced over traced throughput, as a percentage."""
    return (untraced["throughput_MBps"].value / traced["throughput_MBps"].value - 1) * 100


def footprint_counts(matchers) -> dict[str, float]:
    """Compile, table and simulated-hardware counts summed over ruleset
    shards (alphabet classes: the widest shard)."""
    from repro.engine.tables import table_stats

    out = dict.fromkeys((
        "compiler.rules_compiled", "compiler.rules_skipped", "tables.n_stes",
        "tables.n_modules", "tables.n_classes", "tables.table_bytes",
        "hw.stes", "hw.counters", "hw.bv_bits", "hw.cam_arrays",
    ), 0)
    for matcher in matchers:
        stats = table_stats(matcher.tables)
        summary = matcher.resources()
        out["compiler.rules_compiled"] += summary.rules_compiled
        out["compiler.rules_skipped"] += summary.rules_skipped
        out["tables.n_stes"] += stats.n_stes
        out["tables.n_modules"] += stats.n_modules
        out["tables.n_classes"] = max(out["tables.n_classes"], stats.n_classes)
        out["tables.table_bytes"] += (
            stats.match_mask_bytes + stats.byte_class_bytes + stats.succ_mask_bytes
        )
        out["hw.stes"] += summary.stes
        out["hw.counters"] += summary.counters
        out["hw.bv_bits"] += matcher.mapping.bank.bv_bits_used
        out["hw.cam_arrays"] += summary.cam_arrays
    return out


def scan_counts(scans: list[tuple[object, object]], nbytes: int,
                matches: int) -> dict[str, float]:
    """Scan- and session-layer counters summed over ``(ActivityStats,
    BlockSweepStats or None)`` pairs that together scanned ``nbytes``
    and emitted ``matches``."""
    reports = sum(stats.reports for stats, _ in scans)
    out = {
        "engine.bytes": nbytes,
        "engine.ste_activations_per_B":
            sum(stats.ste_activations for stats, _ in scans) / max(1, nbytes),
        "engine.reports": reports,
        "engine.counter_ops": sum(stats.counter_ops for stats, _ in scans),
        "engine.bit_vector_ops": sum(stats.bit_vector_ops for stats, _ in scans),
        "session.matches": matches,
        "session.matches_per_report": matches / max(1, reports),
    }
    sweeps = [sweep for _, sweep in scans if sweep is not None]
    if sweeps:
        committed = sum(sweep.committed_blocks for sweep in sweeps)
        attempts = committed + sum(sweep.rescans for sweep in sweeps)
        out["engine.blocks_committed"] = committed
        out["engine.rescans"] = attempts - committed
        out["engine.sweep_useful_frac"] = committed / attempts if attempts else 1.0
    return out


def auto_backend(matcher) -> str:
    from repro.engine.backends import resolve_backend

    return resolve_backend("auto", matcher.tables).name


def probe_setups(workload: str, count: int) -> list[float]:
    """Cold set-up seconds of ``count`` fresh processes, one at a time."""
    out = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe", workload],
            capture_output=True, text=True, timeout=170,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        out.append(float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]))
    return out


# -- offline workloads: ids_corpus, unfolded_dense ----------------------------
def compile_offline(workload: str, tracer: Optional[Tracer] = None):
    """Rule text -> compiled matcher -> first session; returns
    ``(matcher, session, seconds)``.  With a tracer, each phase is a span."""
    from repro import RulesetMatcher
    from repro.rules import load_rules_text
    from repro.workloads.snort_rules import corpus_text

    text = corpus_text() if workload == "ids_corpus" else None
    rules = flow_rules() if workload == "unfolded_dense" else None
    span = tracer.span if tracer is not None else no_span
    start = time.perf_counter()
    with span("bench.setup"):
        if text is not None:
            with span("rules.triage"):
                loaded = load_rules_text(text)
            with span("compiler.ruleset"):
                matcher, _ = loaded.compile(opt_level=1)
        else:
            with span("compiler.ruleset"):
                matcher = RulesetMatcher(rules, unfold_threshold=float("inf"))
        with span("engine.first_session"):
            session = matcher.session()
    return matcher, session, time.perf_counter() - start


def setup_probe(workload: str) -> float:
    """One cold set-up of an offline workload in this (fresh) process;
    returns its seconds."""
    return compile_offline(workload)[2]


def compile_wrappers(tracer: Tracer) -> None:
    """Span wrappers around the compile-time public functions, as the
    compiler pipeline and the matcher facade look them up."""
    import repro.compiler.pipeline as pipeline
    import repro.matching as matching

    tracer.wrap_many([
        (pipeline, "parse", "compiler.parse"),
        (pipeline, "simplify", "compiler.parse"),
        (pipeline, "analyze", "compiler.analyze"),
        (pipeline, "compute_module_unsafe", "compiler.analyze"),
        (pipeline, "plan_decisions", "compiler.emit"),
        (pipeline, "emit_network", "compiler.emit"),
        (pipeline, "run_passes", "compiler.passes"),
        (matching, "map_network", "compiler.map"),
        (matching, "area_of_mapping", "hw.area"),
        (matching, "load_artifact", "compiler.cache_load"),
        (matching, "compile_tables", "tables.lower"),
    ])


def scan_wrappers(tracer: Tracer, scanner_type) -> None:
    from repro.session import MatchSession

    tracer.wrap_many([
        (MatchSession, "feed", "session.feed"),
        (MatchSession, "finish", "session.finish"),
        (scanner_type, "feed", "engine.feed"),
        (scanner_type, "finish", "engine.feed"),
    ])


def _scan(session, chunks: list[bytes], seconds: float, tracer=None,
          limit: Optional[int] = None):
    """Feed ``chunks`` cyclically for ``seconds`` (or ``limit`` chunks);
    returns ((bytes, start, end) per chunk, seconds in feed and finish,
    matches of the first chunk)."""
    span = tracer.span if tracer is not None else no_span
    ops: list[tuple[int, float, float]] = []
    first: list = []
    start = time.perf_counter()
    index = 0
    while True:
        chunk = chunks[index % len(chunks)]
        with span("bench.chunk", flow=f"chunk-{index}"):
            t0 = time.perf_counter()
            out = session.feed(chunk)
            t1 = time.perf_counter()
        if index == 0:
            first = out
        ops.append((len(chunk), t0, t1))
        index += 1
        if limit is not None:
            if index >= limit:
                break
        elif t1 - start >= seconds:
            break
    with span("bench.finish"):
        t0 = time.perf_counter()
        session.finish()
        finish_s = time.perf_counter() - t0
    return ops, sum(end - begin for _, begin, end in ops) + finish_s, first


def _reference_matches(matcher, data: bytes) -> set:
    """(rule, end) pairs the scalar ``stream`` backend reports while
    feeding ``data`` as one chunk (end-of-data gating excluded)."""
    session = matcher.session(engine="stream")
    return {(m.rule, m.end) for m in session.feed(data)}


def _check_offline(workload, matcher, pool, first_matches, seed) -> tuple[int, int]:
    """Differential checks against the scalar backend; returns
    (checks attempted, checks failed)."""
    size = CHECK_BYTES[workload]
    failed = 0
    # 1. the timed session's own output on the start of its first chunk
    head = min(size, CHUNK)
    want = _reference_matches(matcher, pool[:head])
    got = {(m.rule, m.end) for m in first_matches if m.end <= head}
    failed += got != want
    # 2. a seeded slice elsewhere, fresh sessions on both backends
    offset = random.Random(seed).randrange(0, len(pool) - size)
    piece = pool[offset : offset + size]
    auto = {(m.rule, m.end) for m in matcher.session().feed(piece)}
    failed += auto != _reference_matches(matcher, piece)
    return 2, failed


def run_offline(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    pool = offline_pool(workload, seed)
    chunks = [pool[o : o + CHUNK] for o in range(0, len(pool), CHUNK)]
    if trace:
        return _trace_offline(workload, seed, seconds, pool, chunks)

    setups = probe_setups(workload, SETUP_REPEATS[workload] - 1)
    matcher, session, own_setup = compile_offline(workload)
    setups.append(own_setup)

    ops, _, first = _scan(session, chunks, seconds)
    result = session.result()
    checks, failed = _check_offline(workload, matcher, pool, first, seed)
    metrics = {
        "setup_s": Metric(statistics.median(setups), "s", len(setups)),
        **timing_metrics(ops),
        "peak_rss_MB": Metric(proc_kb(os.getpid(), "VmHWM") / 1024, "MB"),
        "hw_area_mm2": Metric(matcher.resources().area_mm2, "mm2"),
        "hw_energy_nJ_per_B": Metric(result.energy_nj_per_byte, "nJ/B"),
    }
    return Outcome(
        metrics,
        attempted=len(ops) + checks,
        failed=failed,
        info={"backend": auto_backend(matcher), "bytes": sum(n for n, _, _ in ops),
              "setups": setups},
    )


def _trace_offline(workload, seed, seconds, pool, chunks) -> Outcome:
    tracer = Tracer()
    compile_wrappers(tracer)
    try:
        matcher, session, _ = compile_offline(workload, tracer)
    finally:
        tracer.uninstall()
    # the untraced reference pass, then the same bytes traced
    ops, untraced_s, first = _scan(session, chunks, seconds / 2)
    nbytes = sum(n for n, _, _ in ops)
    scan_wrappers(tracer, type(session.scanners[0]))
    try:
        traced_session = matcher.session()
        _, traced_s, _ = _scan(traced_session, chunks, 0, tracer, limit=len(ops))
    finally:
        tracer.uninstall()
    checks, failed = _check_offline(workload, matcher, pool, first, seed)
    scanner = traced_session.scanners[0]
    values = {
        **footprint_counts([matcher]),
        **scan_counts(
            [(scanner.stats, getattr(scanner, "sweep_stats", None))],
            nbytes, traced_session.result().total_matches(),
        ),
    }
    values["trace.overhead_pct"] = (traced_s / untraced_s - 1) * 100
    return Outcome(
        per_layer_metrics(values, tracer),
        attempted=2 * len(ops) + checks,
        failed=failed,
        info={"backend": auto_backend(matcher), "bytes": 2 * nbytes},
    )


# -- per-layer metric assembly ---------------------------------------------------
#: every per-layer metric and its unit; a traced run prints all of them
#: (0 where the workload does not exercise that layer)
PER_LAYER_UNITS = {
    "rules.triage_s": "s",
    "compiler.parse_s": "s",
    "compiler.analyze_s": "s",
    "compiler.emit_s": "s",
    "compiler.passes_s": "s",
    "compiler.map_s": "s",
    "compiler.ruleset_s": "s",
    "compiler.cache_load_s": "s",
    "compiler.rules_compiled": "count",
    "compiler.rules_skipped": "count",
    "tables.lower_s": "s",
    "tables.n_stes": "count",
    "tables.n_modules": "count",
    "tables.n_classes": "count",
    "tables.table_bytes": "B",
    "engine.first_session_s": "s",
    "engine.feed_s": "s",
    "engine.bytes": "B",
    "engine.ste_activations_per_B": "1/B",
    "engine.reports": "count",
    "engine.counter_ops": "count",
    "engine.bit_vector_ops": "count",
    "engine.blocks_committed": "count",
    "engine.rescans": "count",
    "engine.sweep_useful_frac": "frac",
    "session.self_s": "s",
    "session.matches": "count",
    "session.matches_per_report": "frac",
    "serve.busy_s": "s",
    "serve.flow_wait_s": "s",
    "serve.feeds": "count",
    "serve.match_lines": "count",
    "serve.errors": "count",
    "serve.format_match_s": "s",
    "serve.parse_command_s": "s",
    "serve.rss_growth_kB": "kB",
    "cluster.spawn_s": "s",
    "cluster.feed_s": "s",
    "cluster.shard_busy_s_max": "s",
    "cluster.shard_busy_s_min": "s",
    "cluster.wait_s": "s",
    "cluster.barriers": "count",
    "hw.stes": "count",
    "hw.counters": "count",
    "hw.bv_bits": "count",
    "hw.cam_arrays": "count",
    "layer.rules_s": "s",
    "layer.compiler_s": "s",
    "layer.tables_s": "s",
    "layer.engine_s": "s",
    "layer.session_s": "s",
    "layer.serve_s": "s",
    "layer.cluster_s": "s",
    "layer.hw_s": "s",
    "trace.wall_s": "s",
    "trace.other_s": "s",
    "trace.other_frac": "frac",
    "trace.sum_err_frac": "frac",
    "trace.layer_sum_ok": "count",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}

#: span name -> per-layer metric fed by its self time
SPAN_METRICS = {
    "rules.triage": "rules.triage_s",
    "compiler.parse": "compiler.parse_s",
    "compiler.analyze": "compiler.analyze_s",
    "compiler.emit": "compiler.emit_s",
    "compiler.passes": "compiler.passes_s",
    "compiler.map": "compiler.map_s",
    "compiler.ruleset": "compiler.ruleset_s",
    "compiler.cache_load": "compiler.cache_load_s",
    "tables.lower": "tables.lower_s",
    "engine.first_session": "engine.first_session_s",
    "engine.feed": "engine.feed_s",
    "cluster.spawn": "cluster.spawn_s",
    "cluster.feed": "cluster.feed_s",
}


def per_layer_metrics(values: dict[str, float], tracer: Tracer,
                      remote_self: Optional[dict[str, float]] = None) -> dict[str, Metric]:
    """Every per-layer metric: span self times (this process's, plus
    ``remote_self`` from a server process), the layer-sum check over
    this process's span tree, and the counters in ``values`` (which win
    over span-derived figures)."""
    self_times = tracer.self_times()
    counts = tracer.counts()
    for name, seconds in (remote_self or {}).items():
        self_times[name] = self_times.get(name, 0.0) + seconds
        counts.setdefault(name, 1)
    check = tracer.layer_check(LAYER_SUM_TOLERANCE)
    derived: dict[str, tuple[float, int]] = {}
    for span, name in SPAN_METRICS.items():
        if span in self_times:
            derived[name] = (self_times[span], counts[span])
    derived["session.self_s"] = (
        self_times.get("session.feed", 0.0) + self_times.get("session.finish", 0.0),
        counts.get("session.feed", 0),
    )
    layers = dict(check["layers"])
    for name, seconds in (remote_self or {}).items():
        layer = name.split(".", 1)[0]
        if layer in layers:
            layers[layer] += seconds
    for layer, seconds in layers.items():
        derived[f"layer.{layer}_s"] = (seconds, 1)
    derived["trace.wall_s"] = (check["wall_s"], 1)
    derived["trace.other_s"] = (check["other_s"], 1)
    derived["trace.other_frac"] = (check["other_frac"], 1)
    derived["trace.sum_err_frac"] = (check["sum_err_frac"], 1)
    derived["trace.layer_sum_ok"] = (check["ok"], 1)
    derived["trace.spans"] = (len(tracer.spans), 1)
    for name, value in values.items():
        derived[name] = (value, 1)
    out = {}
    for name, unit in PER_LAYER_UNITS.items():
        value, samples = derived.get(name, (0.0, 0))
        out[name] = Metric(float(value), unit, samples)
    return out


# -- flow workloads: served_flows, cluster_flows --------------------------------
@dataclass
class FlowRef:
    """The offline MultiStreamScanner's view of one pool flow."""

    crc: int
    nbytes: int
    matches: int
    stats: object
    sweep: object
    energy_nj: float


def reference_flows(matcher, flows: list[bytes]) -> list[FlowRef]:
    from repro import MultiStreamScanner

    mux = MultiStreamScanner(matcher)
    refs = []
    for index, flow in enumerate(flows):
        tag = f"ref-{index}"
        session = mux.session(tag)
        emitted = session.feed(flow) + session.finish()
        scanner = session.scanners[0]
        result = session.result()
        refs.append(FlowRef(
            crc=match_crc((m.rule, m.end) for m in emitted),
            nbytes=len(flow),
            matches=len(emitted),
            stats=scanner.stats,
            sweep=getattr(scanner, "sweep_stats", None),
            energy_nj=result.energy_nj_per_byte * len(flow),
        ))
    return refs


def flow_scan_counts(refs: list[FlowRef], served: list[int]) -> dict[str, float]:
    """Scan-layer counters of the served flows (the offline reference
    runs the identical scan the serving engine runs)."""
    return scan_counts(
        [(refs[index].stats, refs[index].sweep) for index in served],
        sum(refs[index].nbytes for index in served),
        sum(refs[index].matches for index in served),
    )


def energy_per_byte(ref_sets: list[list[FlowRef]], served: list[int]) -> float:
    """nJ/B over the served flows; every ruleset bank sees every byte."""
    nbytes = sum(ref_sets[0][index].nbytes for index in served)
    energy = sum(refs[index].energy_nj for refs in ref_sets for index in served)
    return energy / max(1, nbytes)


@dataclass
class FlowRun:
    """Client-side record of one measured batch of flows."""

    #: (pool index, open time, close time, matches as (rule, end))
    flows: list[tuple[int, float, float, list]] = field(default_factory=list)
    failed: int = 0

    @property
    def served(self) -> list[int]:
        return [index for index, _, _, _ in self.flows]

    def ops(self, pool: list[bytes]) -> list[tuple[int, float, float]]:
        ops = [(len(pool[index]), start, end) for index, start, end, _ in self.flows]
        return sorted(ops, key=lambda op: op[2])

    def timing(self, pool: list[bytes]) -> dict[str, Metric]:
        return timing_metrics(self.ops(pool))

    def verify(self, refs: list[FlowRef]) -> int:
        """Flows whose match CRC differs from the offline reference."""
        return sum(
            match_crc(pairs) != refs[index].crc for index, _, _, pairs in self.flows
        )


class ServerProcess:
    """A MatchServer in its own process, started from ``serve_entry.py``."""

    def __init__(self, trace: bool):
        command = [sys.executable, os.path.join(HERE, "serve_entry.py")]
        if trace:
            command.append("--trace")
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "READY":
            self.proc.kill()
            self.proc.wait(timeout=30)
            raise RuntimeError(f"server did not start: {line}")
        self.port = int(line[1])
        self.rss_ready_kb = proc_kb(self.proc.pid, "VmRSS")
        if len(USABLE_CPUS) >= 2:
            # server and caller on CPUs of their own: fewer migrations
            os.sched_setaffinity(self.proc.pid, USABLE_CPUS[:1])
            os.sched_setaffinity(0, USABLE_CPUS[1:2])

    def stop(self) -> dict:
        """Stop the server; returns its final summary."""
        try:
            self.proc.stdin.write("STOP\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait(timeout=30)
        if not line.startswith("DONE "):
            raise RuntimeError(f"server did not stop cleanly: {line!r}")
        return json.loads(line[5:])


async def _served_flows(port: int, pool: list[bytes], seconds: float,
                        tracer: Optional[Tracer]) -> tuple[FlowRun, dict]:
    """One closed-loop caller on one connection: OPEN, one FEED, CLOSE,
    repeat until ``seconds`` pass.  Returns the run and the server's
    STATS snapshot.

    One caller, not one per CPU: two callers saturate both CPUs of a
    2-CPU host (server plus client process), and served throughput then
    spread 0.108 against 0.074 over five runs (README.md, "Steadiness").
    """
    from repro.serve import MatchClient
    from repro.serve.client import ServerError

    span = tracer.span if tracer is not None else no_span
    run = FlowRun()
    client = await MatchClient.connect("127.0.0.1", port)
    done: list[tuple[str, int, float, float]] = []
    deadline = time.perf_counter() + seconds

    async def one_flow(tag, flow):
        with span("bench.flow", flow=tag):
            with span("serve.open"):
                await client.open(tag)
            with span("serve.feed"):
                await client.feed(tag, flow)
            with span("serve.close"):
                await client.close_stream(tag)

    try:
        while time.perf_counter() < deadline:
            index = len(done) % len(pool)
            tag = f"f{len(done)}"
            t0 = time.perf_counter()
            try:
                await asyncio.wait_for(one_flow(tag, pool[index]), FLOW_TIMEOUT_S)
            except (asyncio.TimeoutError, ServerError, ConnectionError, OSError):
                run.failed += 1
                break  # the connection's state is unknown
            done.append((tag, index, t0, time.perf_counter()))
        stats = await client.stats()
        matches = client.matches
        for tag, index, t0, t1 in done:
            pairs = [(m.rule, m.end) for m in matches.get(tag, [])]
            run.flows.append((index, t0, t1, pairs))
        run.failed += len(client.errors)
    finally:
        try:
            await asyncio.wait_for(client.quit(), 10)
        except (asyncio.TimeoutError, ConnectionError, OSError, ServerError):
            await client.aclose()
    return run, stats


def _served_phase(pool, seconds, trace_server, tracer):
    server = ServerProcess(trace_server)
    try:
        run, stats = asyncio.run(_served_flows(server.port, pool, seconds, tracer))
        peak_kb = proc_kb(server.proc.pid, "VmHWM")
        growth_kb = proc_kb(server.proc.pid, "VmRSS") - server.rss_ready_kb
    finally:
        summary = server.stop()
    return run, stats, summary, peak_kb, growth_kb


def _time_server_setup() -> float:
    """Seconds from launch to a server that answers a client, then stop it."""

    async def attach(port):
        from repro.serve import MatchClient

        client = await MatchClient.connect("127.0.0.1", port)
        await client.ping()
        await client.quit()

    t0 = time.perf_counter()
    server = ServerProcess(False)
    try:
        asyncio.run(attach(server.port))
        return time.perf_counter() - t0
    finally:
        server.stop()


def run_served(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro import RulesetMatcher

    pool = flow_pool("served_flows", seed)
    if not trace:
        setups = [_time_server_setup() for _ in range(SETUP_REPEATS["served_flows"])]
        run, stats, _, peak_kb, _ = _served_phase(pool, seconds, False, None)
    else:
        # RSS growth from the untraced half: the traced server also
        # holds its recorded spans
        base, _, _, _, growth_kb = _served_phase(pool, seconds / 2, False, None)
        tracer = Tracer()
        run, stats, summary, _, _ = _served_phase(pool, seconds / 2, True, tracer)
    matcher = RulesetMatcher(flow_rules())
    refs = reference_flows(matcher, pool)
    served = run.served
    failed = run.failed + run.verify(refs)
    attempted = len(run.flows) + run.failed
    info = {"backend": auto_backend(matcher), "flows": len(run.flows)}
    if not trace:
        metrics = {
            "setup_s": Metric(statistics.median(setups), "s", len(setups)),
            **run.timing(pool),
            "peak_rss_MB": Metric(peak_kb / 1024, "MB"),
            "hw_area_mm2": Metric(matcher.resources().area_mm2, "mm2"),
            "hw_energy_nJ_per_B": Metric(energy_per_byte([refs], served), "nJ/B"),
        }
        return Outcome(metrics, attempted, failed, {**info, "setups": setups})

    failed += base.failed + base.verify(refs)
    attempted += len(base.flows) + base.failed
    flow_seconds = sum(t1 - t0 for _, t0, t1, _ in run.flows)
    values = {
        **footprint_counts([matcher]),
        **flow_scan_counts(refs, served),
        "serve.busy_s": stats["busy_seconds"],
        "serve.flow_wait_s": flow_seconds - stats["busy_seconds"],
        "serve.feeds": stats["feeds"],
        "serve.match_lines": stats["matches_emitted"],
        "serve.errors": stats["errors"],
        "serve.rss_growth_kB": growth_kb,
        "trace.overhead_pct": overhead_pct(base.timing(pool), run.timing(pool)),
    }
    remote = summary["self"]
    values.update({
        "engine.feed_s": remote.get("engine.feed", 0.0),
        "serve.format_match_s": remote.get("serve.format_match", 0.0),
        "serve.parse_command_s": remote.get("serve.parse_command", 0.0),
    })
    return Outcome(per_layer_metrics(values, tracer, remote), attempted, failed, info)


def _start_cluster(rules, cache_dir, tracer=None):
    """Start the shard servers (warm from the cache) and attach a
    caller; returns (cluster, remote matcher, seconds).

    The shard servers run on a private event loop in this process.  As
    one process per shard on a 2-CPU virtual machine, every PING
    barrier waited on wake-ups in two other processes, and throughput
    swung 2-4x from run to run with host CPU steal.  ``run_cluster``
    pins the process to one CPU before any loop thread starts.
    """
    from repro import LocalShardCluster, RemoteShardedMatcher

    span = tracer.span if tracer is not None else no_span
    t0 = time.perf_counter()
    with span("bench.setup"):
        with span("cluster.spawn"):
            cluster = LocalShardCluster(
                rules, shards=SHARDS, cache_dir=cache_dir
            )
            cluster.start()
        try:
            with span("cluster.attach"):
                remote = RemoteShardedMatcher(cluster.addresses, timeout=FLOW_TIMEOUT_S)
        except BaseException:
            cluster.stop(drain=False)
            raise
    return cluster, remote, time.perf_counter() - t0


def _cluster_flows(remote, pool, seconds, tracer, first: int = 0) -> FlowRun:
    """One caller: per flow, session(), FEED in CLUSTER_PIECE pieces
    (each followed by the PING barrier), finish().  Starts at pool
    flow ``first``."""
    from repro import ClusterPartialResultError

    span = tracer.span if tracer is not None else no_span
    run = FlowRun()
    start = time.perf_counter()
    sent = first
    while True:
        index = sent % len(pool)
        flow = pool[index]
        tag = f"f{sent}"
        t0 = time.perf_counter()
        try:
            with span("bench.flow", flow=tag):
                session = remote.session(stream=tag)
                pairs = []
                for offset in range(0, len(flow), CLUSTER_PIECE):
                    pairs += session.feed(flow[offset : offset + CLUSTER_PIECE])
                pairs += session.finish()
        except (ClusterPartialResultError, TimeoutError, ConnectionError):
            run.failed += 1
            break  # a shard is gone: later flows would only repeat this
        t1 = time.perf_counter()
        run.flows.append((index, t0, t1, [(m.rule, m.end) for m in pairs]))
        sent += 1
        if t1 - start >= seconds:
            break
    return run


def cluster_wrappers(tracer: Tracer) -> None:
    from repro.serve.cluster import ClusterSession, RemoteShardedMatcher

    tracer.wrap_many([
        (RemoteShardedMatcher, "session", "cluster.open"),
        (ClusterSession, "feed", "cluster.feed"),
        (ClusterSession, "finish", "cluster.feed"),
    ])


def run_cluster(seed: int, seconds: float, trace: bool, workdir: str) -> Outcome:
    from repro import LocalShardCluster, RulesetMatcher

    # One CPU for every thread of the run: the caller, the client loop
    # and the shard loop hand the GIL to each other at every barrier,
    # so a second CPU adds no parallelism, only cross-CPU wake-ups.
    # Unpinned, on a 2-CPU virtual machine, throughput read 0.18-0.22
    # MB/s and its spread over ten seeds reached 0.28; pinned, it read
    # 0.27-0.32 MB/s.
    os.sched_setaffinity(0, USABLE_CPUS[-1:])
    pool = flow_pool("cluster_flows", seed)
    rules = flow_rules()
    cache_dir = os.path.join(workdir, "cache")
    try:
        # fill the compiled-ruleset cache (untimed): the shards compile cold
        with LocalShardCluster(rules, shards=SHARDS, cache_dir=cache_dir):
            pass
        tracer = Tracer() if trace else None
        # The untraced run is cut into segments, each on a fresh cluster
        # whose set-up is timed: set-ups spread over the run's whole
        # length.  Back to back at the start, nine set-ups read 5.4 ms
        # in one run and 9.5 ms in the next.
        segments = 1 if trace else SETUP_REPEATS["cluster_flows"]
        setups, parts = [], []
        for _ in range(segments):
            cluster, remote, seconds_taken = _start_cluster(rules, cache_dir, tracer)
            setups.append(seconds_taken)
            try:
                if trace:
                    base = _cluster_flows(remote, pool, seconds / 2, None)
                    before = remote.shard_stats()
                    cluster_wrappers(tracer)
                    try:
                        run = _cluster_flows(remote, pool, seconds / 2, tracer)
                    finally:
                        tracer.uninstall()
                    after = remote.shard_stats()
                else:
                    first = sum(len(part.flows) for part in parts)
                    parts.append(_cluster_flows(remote, pool, seconds / segments,
                                                None, first))
            finally:
                remote.close()
                cluster.stop()
        peak_kb = proc_kb(os.getpid(), "VmHWM")
        if not trace:
            run = FlowRun([flow for part in parts for flow in part.flows],
                          sum(part.failed for part in parts))
        # offline references; the per-shard matchers warm-start from the
        # same cache the shards loaded
        buckets = LocalShardCluster(rules, shards=SHARDS).buckets
        if trace:
            compile_wrappers(tracer)
        try:
            shard_matchers = [RulesetMatcher(bucket, cache_dir=cache_dir)
                              for bucket in buckets]
        finally:
            if trace:
                tracer.uninstall()
        matcher = RulesetMatcher(rules)
        refs = reference_flows(matcher, pool)
        shard_refs = [reference_flows(m, pool) for m in shard_matchers]
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    served = run.served
    failed = run.failed + run.verify(refs)
    attempted = len(run.flows) + run.failed
    info = {"backend": auto_backend(shard_matchers[0]), "flows": len(run.flows),
            "shards": SHARDS}
    if not trace:
        metrics = {
            "setup_s": Metric(statistics.median(setups), "s", len(setups)),
            # one throughput block per segment: no block spans a restart
            **timing_metrics(run.ops(pool),
                             [part.ops(pool) for part in parts if part.flows]),
            "peak_rss_MB": Metric(peak_kb / 1024, "MB"),
            "hw_area_mm2": Metric(
                sum(m.resources().area_mm2 for m in shard_matchers), "mm2"
            ),
            "hw_energy_nJ_per_B": Metric(energy_per_byte(shard_refs, served), "nJ/B"),
        }
        return Outcome(metrics, attempted, failed, {**info, "setups": setups})

    failed += base.failed + base.verify(refs)
    attempted += len(base.flows) + base.failed
    busy = [b.busy_seconds - a.busy_seconds for a, b in zip(before, after)]
    feed_s = tracer.self_times().get("cluster.feed", 0.0)
    values = {
        **footprint_counts(shard_matchers),
        **flow_scan_counts(refs, served),
        "cluster.shard_busy_s_max": max(busy),
        "cluster.shard_busy_s_min": min(busy),
        "cluster.wait_s": feed_s - max(busy),
        "cluster.barriers": SHARDS * sum(
            -(-len(pool[index]) // CLUSTER_PIECE) for index in served
        ),
        "trace.overhead_pct": overhead_pct(base.timing(pool), run.timing(pool)),
    }
    return Outcome(per_layer_metrics(values, tracer), attempted, failed, info)


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> Outcome:
    if workload in ("ids_corpus", "unfolded_dense"):
        return run_offline(workload, seed, seconds, trace)
    if workload == "served_flows":
        return run_served(seed, seconds, trace)
    if workload == "cluster_flows":
        return run_cluster(seed, seconds, trace, workdir)
    raise ValueError(f"unknown workload {workload!r}")
