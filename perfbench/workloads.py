"""The benchmark's three workloads.

Each is a closed loop with one caller: the ledger allows one open query
cycle at a time, so biochain serves one query (or one command) at a time.

* ``identify-5k``: 5000 enrolled templates; the matcher does most of the
  work of a query, and set-up is the enrollment of 5000 leaves.
* ``chain-deep``: 50 templates behind a 10-stage chain of every stage kind;
  the extraction cycle (asymmetric crypto, signatures, ledger appends)
  does most of the work, and matcher scaling is bypassed.
* ``cli-audit``: the operator's write and repair side, one ``biochain``
  process per command: identify, tamper, audit, restore.

An untraced run (``trace=False``) reports the end-to-end metrics. A traced
run measures an untraced phase and then a traced phase, each for half the
time, and reports the per-layer metrics and the difference between the
two phases as the tracing overhead. Every operation's output is checked
outside its timed window; a wrong or failed operation counts in
``failed``.
"""

from __future__ import annotations

import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from biochain import extractor, harness, matcher, metrics
from biochain.ledger import Ledger

import calibrate
import inputs
import layers
import tracing

LAUNCHER = Path(__file__).resolve().with_name("launcher.py")
WARMUP_QUERIES = 3
# p95 keeps at least ten samples beyond it from 200 queries on.
MIN_QUERIES = 200
TAMPER_FRACTION = 0.02
# Templates per chief: 100 chiefs at N=5000, one at N=50.
FANOUT = 50
# Measuring stops this long after the run started, whatever the counts, so
# that a much slower program still finishes well inside three minutes.
DEADLINE_S = 130.0


@dataclass(frozen=True)
class QueryWorkload:
    n: int
    dim: int
    metric: str
    chain_spec: Optional[list]
    setup_repeats: int
    check_identity: bool = False


@dataclass(frozen=True)
class CliWorkload:
    n: int
    dim: int
    setup_repeats: int


WORKLOADS = {
    "identify-5k": QueryWorkload(5000, 16, "euclidean", None, setup_repeats=4,
                                 check_identity=True),
    "chain-deep": QueryWorkload(50, 32, "cosine", inputs.DEEP_CHAIN, setup_repeats=7),
    "cli-audit": CliWorkload(500, 16, setup_repeats=5),
}


@dataclass
class Context:
    """Where a run keeps its files, and when it must stop measuring."""

    root: Path
    work: Path
    out: Path
    name: str
    deadline: float
    reference: calibrate.Reference

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def out_of_time(self) -> bool:
        return time.perf_counter() > self.deadline


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    table: list = field(default_factory=list)


def _ms(seconds: list[float], q: float) -> float:
    return 1e3 * float(np.percentile(seconds, q)) if seconds else 0.0


def _ratio_p50(raw: list[float], scaled: list[float]) -> float:
    """Median slowdown of the machine against its reference state."""
    return statistics.median(r / s for r, s in zip(raw, scaled)) if raw else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# identify-5k and chain-deep: queries in this process
# ---------------------------------------------------------------------------

def _enroll(spec: QueryWorkload, gallery, seed: int, ctx: Context, repeats: int):
    """Enroll ``repeats`` times, each into a fresh file-backed ledger;
    return the scaled enrollment times and the last system with its ledger
    path."""
    times, system, path = [], None, None
    for k in range(repeats):
        if system is not None:
            system.ledger.close()
            system = None
        path = ctx.fresh_dir(f"setup{k}") / "ledger.bin"
        ledger = Ledger(path)
        before = ctx.reference.ms(repeats=10)
        t0 = time.perf_counter()
        system = harness.enroll(gallery, spec.chain_spec, fanout=FANOUT,
                                seed=seed, ledger=ledger)
        seconds = time.perf_counter() - t0
        times.append(seconds * calibrate.scale(before, ctx.reference.ms(repeats=10)))
    return times, system, path


def check_query(system, probe, truth: Optional[str], result, metric: str) -> tuple[bool, float]:
    """Compare one identify result with the flat linear-scan reference over
    the chain's output; return whether it matched and the reference's time."""
    feature = extractor.compose_stages([b.params for b in system.chain.blocks], probe)
    templates = system.tree.templates()
    t0 = time.perf_counter()
    expected = metrics.flat_rank(templates, feature, metric)
    flat_seconds = time.perf_counter() - t0
    got = [(c.identity, c.score) for c in result.candidates]
    want = [(c.identity, c.score) for c in expected]
    ok = got == want and result.identity == want[0][0]
    if truth is not None:
        ok = ok and result.identity == truth
    return ok, flat_seconds


@dataclass
class QueryPhase:
    latency: list = field(default_factory=list)
    scaled: list = field(default_factory=list)
    cycle: list = field(default_factory=list)
    identify: list = field(default_factory=list)
    flat: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    timings: matcher.MatchTimings = field(default_factory=matcher.MatchTimings)
    ledger_bytes: int = 0
    peak_rss_mb: float = 0.0


def _query_phase(spec, system, ledger_path, probe_iter, seconds, min_queries, ctx,
                 rec: Optional[tracing.Recorder] = None) -> QueryPhase:
    phase = QueryPhase()
    for _ in range(WARMUP_QUERIES):
        probe, _ = next(probe_iter)
        if rec is not None:
            rec.begin_op("warmup", "bench.warmup")
        entry = extractor.run_query_cycle(system.chain, system.ledger, probe)
        matcher.identify(system.tree, extractor.handoff_envelope(entry), spec.metric)
        if rec is not None:
            rec.end_op()
    size0 = ledger_path.stat().st_size
    spent = 0.0
    while (spent < seconds or phase.attempted < min_queries) and not ctx.out_of_time():
        probe, truth = next(probe_iter)
        phase.attempted += 1
        if phase.attempted == min_queries:
            # The ledger keeps every entry in memory, so memory grows with the
            # number of queries; read the peak at a fixed count, not at a
            # time that depends on the program's speed.
            phase.peak_rss_mb = _peak_rss_mb()
        before = ctx.reference.ms()
        if rec is not None:
            rec.begin_op("query", "bench.query")
        t0 = time.perf_counter()
        try:
            entry = extractor.run_query_cycle(system.chain, system.ledger, probe)
            t1 = time.perf_counter()
            result = matcher.identify(system.tree, extractor.handoff_envelope(entry),
                                      spec.metric, phase.timings)
            t2 = time.perf_counter()
        except Exception:
            spent += time.perf_counter() - t0
            phase.failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        finally:
            if rec is not None:
                rec.end_op()
        spent += t2 - t0
        scale = calibrate.scale(before, ctx.reference.ms())
        ok, flat_seconds = check_query(system, probe, truth if spec.check_identity else None,
                                       result, spec.metric)
        if not ok:
            phase.failed += 1
            continue
        phase.latency.append(t2 - t0)
        phase.scaled.append((t2 - t0) * scale)
        phase.cycle.append(t1 - t0)
        phase.identify.append(t2 - t1)
        phase.flat.append(flat_seconds)
    phase.ledger_bytes = ledger_path.stat().st_size - size0
    phase.peak_rss_mb = phase.peak_rss_mb or _peak_rss_mb()
    return phase


def _argmin_ms(gallery, seed: int) -> float:
    """Plain numpy nearest-row search over the (N, d) gallery, for scale."""
    matrix = np.stack([t.vector for t in gallery])
    probe_iter = inputs.probes(seed, gallery)
    times = []
    for _ in range(50):
        probe, _ = next(probe_iter)
        t0 = time.perf_counter()
        np.argmin(np.linalg.norm(matrix - probe, axis=1))
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def _roadmap_table(name, spec, phase, enroll_s, argmin_ms) -> list[str]:
    t = phase.timings
    per = 1e3 / t.probes if t.probes else 0.0
    rows = [
        ("chain cycle per query", f"{_ms(phase.cycle, 50):.2f} ms"),
        ("`identify` per query, total", f"{_ms(phase.identify, 50):.2f} ms"),
        ("  delegation", f"{t.delegate * per:.2f}"),
        ("  template match", f"{t.match * per:.2f}"),
        ("  leaf compare + consent", f"{t.compare_leaves * per:.2f}"),
        ("  secret sharing", f"{t.sharing * per:.2f}"),
        ("  chief compare + candidate sort", f"{t.compare_chiefs * per:.2f}"),
        ("plain numpy argmin over an (N, d) matrix, for scale", f"{argmin_ms:.3f} ms"),
        ("`enroll` (tree + chain build), scaled to the reference machine", f"{enroll_s:.3f} s"),
        ("machine slowdown against the reference (median)",
         f"{_ratio_p50(phase.latency, phase.scaled):.2f}x"),
    ]
    lines = [f"| layer | {name} N={spec.n} d={spec.dim} ({len(phase.latency)} queries) |",
             "| --- | --- |"]
    lines += [f"| {label} | {value} |" for label, value in rows]
    return lines


def run_queries(name: str, spec: QueryWorkload, seed: int, seconds: float, trace: bool,
                ctx: Context) -> Result:
    gallery = inputs.draw_gallery(seed, spec.n, spec.dim)
    probe_iter = inputs.probes(seed, gallery)
    out = Result()
    repeats = 1 if trace else spec.setup_repeats
    setup_times, system, ledger_path = _enroll(spec, gallery, seed, ctx, repeats)
    plain = _query_phase(spec, system, ledger_path, probe_iter, seconds / 2 if trace else seconds,
                         0 if trace else MIN_QUERIES, ctx)
    system.ledger.close()
    out.attempted, out.failed = plain.attempted, plain.failed
    out.table = _roadmap_table(name, spec, plain, statistics.median(setup_times),
                               _argmin_ms(gallery, seed))
    out.report = {"queries": len(plain.latency), "setups": len(setup_times),
                  "raw_p50_ms": _ms(plain.latency, 50), "raw_p95_ms": _ms(plain.latency, 95),
                  "machine_factor_p50": _ratio_p50(plain.latency, plain.scaled)}
    if not trace:
        total = sum(plain.scaled)
        out.metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "op_p50_ms": (_ms(plain.scaled, 50), "ms"),
            "op_p95_ms": (_ms(plain.scaled, 95), "ms"),
            "ops_per_s": (len(plain.scaled) / total if total else 0.0, "1/s"),
            "peak_rss_mb": (plain.peak_rss_mb, "MB"),
        }
        return out

    system = None  # freed before the traced enrollment builds another
    rec = tracing.Recorder()
    uninstall = tracing.install(rec)
    try:
        rec.begin_op("setup", "bench.setup")
        _, system, ledger_path = _enroll(spec, gallery, seed, ctx, 1)
        rec.end_op()
        traced = _query_phase(spec, system, ledger_path, probe_iter, seconds / 2, 0, ctx, rec)
        system.ledger.close()
    finally:
        uninstall()
    rec.dump(ctx.out / f"{ctx.name}.spans.pkl")
    out.attempted += traced.attempted
    out.failed += traced.failed
    trace_data = [rec.data()]
    ops = layers.summarize(trace_data, lambda label: label == "query")
    setup = layers.summarize(trace_data, lambda label: label == "setup")
    t = plain.timings
    per = 1e3 / t.probes if t.probes else 0.0
    flat_ms = _ms(plain.flat, 50)
    out.metrics = layers.layer_metrics(ops, setup, setup, {
        "match_timings_ms": {
            "delegate": t.delegate * per, "match": t.match * per,
            "compare_leaves": t.compare_leaves * per, "sharing": t.sharing * per,
            "compare_chiefs": t.compare_chiefs * per,
        },
        "ledger_bytes": traced.ledger_bytes,
        "flat_rank_ms": flat_ms,
        "protected_ms": _ms(plain.latency, 50),
        "untraced_p50_ms": _ms(plain.scaled, 50),
        "traced_p50_ms": _ms(traced.scaled, 50),
        "error_rate": out.failed / out.attempted,
    })
    out.report.update(traced_queries=len(traced.latency), self_ms=dict(ops.self_ms),
                      spans=len(rec.start))
    return out


# ---------------------------------------------------------------------------
# cli-audit: one biochain process per command
# ---------------------------------------------------------------------------

_LOCATED = re.compile(r"^tree: tampered leaf .* identity=(\S+); ")


@dataclass
class Command:
    label: str
    returncode: int
    lines: list
    seconds: float
    scaled: float
    maxrss_kb: int
    ok: bool = True
    probe: str = ""


class CliRunner:
    """Runs ``biochain`` commands against one state directory, one at a
    time, each in its own process, timing it and reading its peak memory."""

    def __init__(self, ctx: Context, state: Path):
        self.ctx = ctx
        self.state = state
        src = str(ctx.root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.spans: Optional[Path] = None
        self.count = 0

    def run(self, label: str, args: list[str]) -> Command:
        """Run one command; with ``self.spans`` set it goes through the
        tracing launcher and leaves its spans in that directory."""
        if self.spans is None:
            argv = [sys.executable, "-m", "biochain.cli"]
            env = self.env
        else:
            argv = [sys.executable, str(LAUNCHER)]
            env = dict(self.env, PERFBENCH_OP=label,
                       PERFBENCH_SPANS=str(self.spans / f"{self.count:04d}-{label}.pkl"))
        argv += ["--out", str(self.state), *args]
        self.count += 1
        # Commands are few and long, so each factor gets more samples.
        before = self.ctx.reference.ms(repeats=10)
        with open(self.ctx.work / "stderr.txt", "ab") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env,
                                    cwd=self.ctx.root)
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t0
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        scaled = seconds * calibrate.scale(before, self.ctx.reference.ms(repeats=10))
        return Command(label, proc.returncode, stdout.decode().splitlines(), seconds, scaled,
                       usage.ru_maxrss)


def _changed_identities(state: Path) -> set[str]:
    """Identities whose live gallery record differs from the archive."""
    live = (state / "gallery.txt").read_text().splitlines()[1:]
    archived = (state / "archive.txt").read_text().splitlines()[1:]
    return {a.split()[0] for a, b in zip(archived, live) if a != b}


def _cli_round(cli: CliRunner, spec: CliWorkload, identity: str) -> list[Command]:
    """One fixed round of eight commands, each checked after it ran."""
    done: list[Command] = []
    expect = max(1, int(round(TAMPER_FRACTION * spec.n)))

    def step(label, args, check):
        cmd = cli.run(label, args)
        cmd.ok = bool(check(cmd))
        if not cmd.ok:
            print(f"wrong output from {label} (exit {cmd.returncode}): {cmd.lines}",
                  file=sys.stderr)
        done.append(cmd)
        return cmd

    step("identify", ["identify", "--identity", identity],
         lambda c: c.returncode == 0 and f"identity: {identity}" in c.lines)
    done[-1].probe = identity
    cmd = step("tamper-templates", ["tamper", "--fraction", str(TAMPER_FRACTION)],
               lambda c: c.returncode == 0 and c.lines[:1] and
               c.lines[0].startswith(f"perturbed {expect} templates"))
    perturbed = _changed_identities(cli.state)
    if len(perturbed) != expect:
        print(f"tamper changed {len(perturbed)} records, expected {expect}", file=sys.stderr)
        cmd.ok = False

    def located_exactly(c):
        found = [m.group(1) for m in map(_LOCATED.match, c.lines) if m]
        return (c.returncode == 1 and "chain: intact" in c.lines
                and len(found) == len(perturbed) and set(found) == perturbed)

    step("audit-tampered-templates", ["audit"], located_exactly)
    step("restore-templates", ["restore"],
         lambda c: c.returncode == 0 and f"restored {expect} templates" in c.lines
         and c.lines[-1:] == ["post-restore audit: clean"])
    step("audit-clean", ["audit"],
         lambda c: c.returncode == 0 and c.lines == ["chain: intact", "tree: intact"])
    step("tamper-block", ["tamper", "--block", "0", "--epsilon", "1e-6"],
         lambda c: c.returncode == 0 and c.lines[:1] and
         c.lines[0].startswith("perturbed chain stage 0 "))
    step("audit-tampered-block", ["audit"],
         lambda c: c.returncode == 1 and c.lines[:1] and
         c.lines[0].startswith("chain: first tampered block index 0;")
         and "tree: intact" in c.lines)
    step("restore-block", ["restore"],
         lambda c: c.returncode == 0 and "restored chain stage 0" in c.lines
         and c.lines[-1:] == ["post-restore audit: clean"])
    return done


def _cli_enroll(cli: CliRunner, spec: CliWorkload) -> Command:
    cmd = cli.run("setup", ["enroll"])
    if cmd.returncode != 0 or not cmd.lines or \
            not cmd.lines[0].startswith(f"enrolled {spec.n} templates"):
        raise RuntimeError(f"enroll failed: {cmd.lines}")
    return cmd


def _cli_rounds(cli: CliRunner, spec: CliWorkload, identities, seconds: float) -> list[Command]:
    """Whole rounds until ``seconds`` of command time, at least one."""
    commands: list[Command] = []
    while not commands or (sum(c.seconds for c in commands) < seconds
                           and not cli.ctx.out_of_time()):
        commands += _cli_round(cli, spec, next(identities))
    return commands


def _median_by_kind(commands: list[Command]) -> dict:
    out = {}
    for kind in ("identify", "tamper", "audit", "restore"):
        times = [c.scaled for c in commands if c.ok and c.label.split("-")[0] == kind]
        out[f"cli_{kind}_ms"] = _ms(times, 50)
        out[f"cli_{kind}_samples"] = len(times)
    return out


def run_cli(name: str, spec: CliWorkload, seed: int, seconds: float, trace: bool,
            ctx: Context) -> Result:
    state = ctx.work / "state"
    cli = CliRunner(ctx, state)
    gen = cli.run("gen", ["--seed", str(seed), "gen", "--gallery-size", str(spec.n),
                          "--template-dim", str(spec.dim)])
    if gen.returncode != 0:
        raise RuntimeError(f"gen failed: {gen.lines}")
    identities = inputs.cli_identities(seed, spec.n)
    setups = [_cli_enroll(cli, spec) for _ in range(1 if trace else spec.setup_repeats)]
    plain = _cli_rounds(cli, spec, identities, seconds / 2 if trace else seconds)
    out = Result(attempted=len(plain), failed=sum(not c.ok for c in plain))
    by_kind = _median_by_kind(plain)
    out.report = {"commands": len(plain), **by_kind}
    out.table = ["| command | median | samples |", "| --- | --- | --- |"]
    out.table += [f"| `{kind}` | {by_kind[f'cli_{kind}_ms']:.1f} ms | {by_kind[f'cli_{kind}_samples']} |"
                  for kind in ("identify", "tamper", "audit", "restore")]
    out.table.append(f"| `enroll` (set-up) | {1e3 * statistics.median(c.scaled for c in setups):.1f} ms "
                     f"| {len(setups)} |")
    good = [c.scaled for c in plain if c.ok]
    raw = [c.seconds for c in plain if c.ok]
    out.report.update(raw_p50_ms=_ms(raw, 50), raw_p95_ms=_ms(raw, 95),
                      machine_factor_p50=_ratio_p50(raw, good))
    if not trace:
        out.metrics = {
            "setup_s": (statistics.median(c.scaled for c in setups), "s"),
            "op_p50_ms": (_ms(good, 50), "ms"),
            "op_p95_ms": (_ms(good, 95), "ms"),
            "ops_per_s": (len(good) / sum(good) if good else 0.0, "1/s"),
            "peak_rss_mb": (max(c.maxrss_kb for c in setups + plain) / 1024.0, "MB"),
        }
        return out

    # Reference cost of one unprotected identify: the flat scan of the
    # archived gallery for each identity the round probed.
    archive = harness.load_gallery(state / "archive.txt")
    by_identity = {t.identity: t.vector for t in archive}
    flat = []
    for cmd in plain:
        if cmd.probe:
            probe = by_identity[cmd.probe]
            t0 = time.perf_counter()
            metrics.flat_rank(archive, probe, "euclidean")
            flat.append(time.perf_counter() - t0)

    spans_dir = ctx.out / f"{ctx.name}.spans"
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir(parents=True)
    cli.spans = spans_dir
    _cli_enroll(cli, spec)
    size0 = (state / "ledger.bin").stat().st_size
    traced = _cli_rounds(cli, spec, identities, seconds / 2)
    ledger_bytes = (state / "ledger.bin").stat().st_size - size0
    out.attempted += len(traced)
    out.failed += sum(not c.ok for c in traced)
    trace_data = [tracing.load(p) for p in sorted(spans_dir.glob("*.pkl"))]
    ops = layers.summarize(trace_data, lambda label: label != "setup")
    setup = layers.summarize(trace_data, lambda label: label == "setup")
    audits = layers.summarize(trace_data, lambda label: label == "audit-tampered-templates")
    out.metrics = layers.layer_metrics(ops, ops, setup, {
        **by_kind,
        "leaves_located": audits.counters["matcher.leaves_located"] / audits.ops if audits.ops else 0.0,
        "ledger_bytes": ledger_bytes,
        "flat_rank_ms": _ms(flat, 50),
        "protected_ms": _ms([c.seconds for c in plain if c.ok and c.probe], 50),
        "untraced_p50_ms": _ms(good, 50),
        "traced_p50_ms": _ms([c.scaled for c in traced if c.ok], 50),
        "error_rate": out.failed / out.attempted,
    })
    out.report.update(traced_commands=len(traced), self_ms=dict(ops.self_ms))
    return out


def run(name: str, seed: int, seconds: float, trace: bool, ctx: Context) -> Result:
    spec = WORKLOADS[name]
    if isinstance(spec, CliWorkload):
        return run_cli(name, spec, seed, seconds, trace, ctx)
    return run_queries(name, spec, seed, seconds, trace, ctx)
