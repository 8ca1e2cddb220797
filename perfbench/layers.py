"""Per-layer metrics from the spans of a traced run.

A layer is a biochain module. ``summarize`` totals the spans of the chosen
operations: inclusive time and calls per wrapped function, and self time
per module (a span's duration minus the part its child spans cover), plus
the counters the wrappers took. ``layer_metrics`` turns those totals into
the per-layer metrics named in ``PER_LAYER``; METRICS.md says what each one
means and which end-to-end metric it should move.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Callable, Iterable

import numpy as np

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

LAYERS = ("crypto", "ledger", "extractor", "matcher", "harness", "cli")

PER_LAYER = (
    ("matcher.identify_ms", "ms"),
    ("matcher.delegate_ms", "ms"),
    ("matcher.match_ms", "ms"),
    ("matcher.compare_leaves_ms", "ms"),
    ("matcher.sharing_ms", "ms"),
    ("matcher.compare_chiefs_ms", "ms"),
    ("matcher.build_tree_ms", "ms"),
    ("matcher.verify_tree_ms", "ms"),
    ("matcher.restore_leaves_ms", "ms"),
    ("matcher.scrutinized_chiefs_per_query", "count"),
    ("matcher.leaves_located", "count"),
    ("crypto.shamir_reconstruct_ms", "ms"),
    ("crypto.shamir_reconstruct_calls", "count"),
    ("crypto.derive_public_ms", "ms"),
    ("crypto.derive_public_calls", "count"),
    ("crypto.sym_ms", "ms"),
    ("crypto.sym_calls", "count"),
    ("crypto.asym_encrypt_ms", "ms"),
    ("crypto.asym_encrypt_calls", "count"),
    ("crypto.asym_decrypt_ms", "ms"),
    ("crypto.asym_decrypt_calls", "count"),
    ("crypto.asym_decrypt_failures", "count"),
    ("crypto.sign_ms", "ms"),
    ("crypto.sign_calls", "count"),
    ("crypto.verify_ms", "ms"),
    ("crypto.verify_calls", "count"),
    ("crypto.shamir_split_ms", "ms"),
    ("crypto.shamir_split_calls", "count"),
    ("crypto.generate_keypair_ms", "ms"),
    ("crypto.generate_keypair_calls", "count"),
    ("crypto.seal_open_ms", "ms"),
    ("extractor.cycle_ms", "ms"),
    ("extractor.block_update_ms", "ms"),
    ("extractor.notary_update_ms", "ms"),
    ("extractor.turn_hit_ratio", "ratio"),
    ("extractor.hops_per_query", "count"),
    ("extractor.chain_verify_ms", "ms"),
    ("extractor.apply_stage_ms", "ms"),
    ("ledger.append_ms", "ms"),
    ("ledger.appends_per_query", "count"),
    ("ledger.bytes_per_query", "bytes"),
    ("ledger.load_ms", "ms"),
    ("ledger.entries_replayed", "count"),
    ("harness.enroll_s", "s"),
    ("harness.audit_ms", "ms"),
    ("harness.load_gallery_ms", "ms"),
    ("harness.save_gallery_ms", "ms"),
    ("harness.inject_template_noise_ms", "ms"),
    ("metrics.flat_rank_ms", "ms"),
    ("metrics.protection_cost_ratio", "ratio"),
    ("cli.import_ms", "ms"),
    ("cli_identify_ms", "ms"),
    ("cli_tamper_ms", "ms"),
    ("cli_audit_ms", "ms"),
    ("cli_restore_ms", "ms"),
    *((f"{layer}.self_ms", "ms") for layer in LAYERS),
    ("trace.overhead_ms", "ms"),
    ("error_rate", "ratio"),
)


class Summary:
    """Totals over a set of traced operations."""

    def __init__(self) -> None:
        self.ops = 0
        self.ms: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.self_ms: dict[str, float] = defaultdict(float)
        self.counters: Counter = Counter()

    def per_op_ms(self, *names: str) -> float:
        return sum(self.ms[n] for n in names) / self.ops if self.ops else 0.0

    def per_op_calls(self, *names: str) -> float:
        return sum(self.calls[n] for n in names) / self.ops if self.ops else 0.0


def summarize(traces: Iterable[dict], want: Callable[[str], bool]) -> Summary:
    """Total the spans of every operation whose label ``want`` accepts."""
    out = Summary()
    for trace in traces:
        keep_op = np.array([want(label) for label in trace["ops"]] + [False], dtype=bool)
        out.ops += int(keep_op[:-1].sum())
        for index in np.flatnonzero(keep_op[:-1]):
            out.counters.update(trace["counters"][index])
        op = np.asarray(trace["op"], dtype=np.int64)
        if op.size == 0:
            continue
        parent = np.asarray(trace["parent"], dtype=np.int64)
        name = np.asarray(trace["name"], dtype=np.int64)
        dur = np.asarray(trace["end"]) - np.asarray(trace["start"])
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=op.size)
        own = dur - covered
        keep = keep_op[op]  # op -1 (outside any operation) maps to False
        width = len(trace["names"])
        calls = np.bincount(name[keep], minlength=width)
        total = np.bincount(name[keep], weights=dur[keep], minlength=width)
        own_total = np.bincount(name[keep], weights=own[keep], minlength=width)
        for i, label in enumerate(trace["names"]):
            if calls[i]:
                out.calls[label] += int(calls[i])
                out.ms[label] += 1e3 * float(total[i])
                out.self_ms[label.split(".", 1)[0]] += 1e3 * float(own_total[i])
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ops: Summary, build: Summary, setup: Summary, x: dict) -> dict:
    """Every ``PER_LAYER`` metric as ``{name: (value, unit)}``.

    ``ops`` totals the measured queries or commands, ``build`` the
    operations that build the tree (the set-ups in-process, every command on
    the CLI workload) and ``setup`` the enrollments. ``x`` holds what the
    workload measured outside the spans; a missing key reads 0, meaning the
    workload makes no such call.
    """
    cycles = ops.calls["extractor.run_query_cycle"]
    block_calls = ops.calls["extractor.block_handle_update"]
    loads = ops.calls["ledger.Ledger.load"]
    timings = x.get("match_timings_ms", {})
    values = {
        "matcher.identify_ms": ops.per_op_ms("matcher.identify"),
        "matcher.delegate_ms": timings.get("delegate", 0.0),
        "matcher.match_ms": timings.get("match", 0.0),
        "matcher.compare_leaves_ms": timings.get("compare_leaves", 0.0),
        "matcher.sharing_ms": timings.get("sharing", 0.0),
        "matcher.compare_chiefs_ms": timings.get("compare_chiefs", 0.0),
        "matcher.build_tree_ms": build.per_op_ms("matcher.build_tree"),
        "matcher.verify_tree_ms": ops.per_op_ms("matcher.verify_tree"),
        "matcher.restore_leaves_ms": ops.per_op_ms("matcher.restore_leaves"),
        "matcher.scrutinized_chiefs_per_query": _ratio(
            ops.counters["matcher.scrutinized_chiefs"], ops.calls["matcher.identify"]),
        "matcher.leaves_located": x.get("leaves_located", 0.0),
        "crypto.asym_decrypt_failures": _ratio(
            ops.counters["crypto.asym_decrypt_failures"], ops.ops),
        "crypto.seal_open_ms": build.per_op_ms("crypto.seal", "crypto.open_envelope"),
        "extractor.cycle_ms": ops.per_op_ms("extractor.run_query_cycle"),
        "extractor.block_update_ms": ops.per_op_ms("extractor.block_handle_update"),
        "extractor.notary_update_ms": ops.per_op_ms(
            "extractor.notary_begin_cycle", "extractor.notary_handle_update"),
        "extractor.turn_hit_ratio": _ratio(ops.counters["extractor.block_acted"], block_calls),
        "extractor.hops_per_query": _ratio(ops.calls["extractor.notary_handle_update"], cycles),
        "extractor.chain_verify_ms": ops.per_op_ms("extractor.ExtractorChain.verify"),
        "extractor.apply_stage_ms": ops.per_op_ms("extractor.apply_stage"),
        "ledger.append_ms": ops.per_op_ms("ledger.Ledger.append"),
        "ledger.appends_per_query": _ratio(ops.calls["ledger.Ledger.append"], cycles),
        "ledger.bytes_per_query": _ratio(x.get("ledger_bytes", 0.0), cycles),
        "ledger.load_ms": ops.per_op_ms("ledger.Ledger.load"),
        "ledger.entries_replayed": _ratio(ops.counters["ledger.entries_replayed"], loads),
        "harness.enroll_s": setup.per_op_ms("harness.enroll") / 1e3,
        "harness.audit_ms": ops.per_op_ms("harness.audit"),
        "harness.load_gallery_ms": ops.per_op_ms("harness.load_gallery"),
        "harness.save_gallery_ms": ops.per_op_ms("harness.save_gallery"),
        "harness.inject_template_noise_ms": ops.per_op_ms("harness.inject_template_noise"),
        "metrics.flat_rank_ms": x.get("flat_rank_ms", 0.0),
        "metrics.protection_cost_ratio": _ratio(
            x.get("protected_ms", 0.0), x.get("flat_rank_ms", 0.0)),
        "cli.import_ms": _ratio(ops.counters["cli.import_ms"], ops.ops),
        "trace.overhead_ms": x["traced_p50_ms"] - x["untraced_p50_ms"],
        "error_rate": x["error_rate"],
    }
    for short, names in (
        ("shamir_reconstruct", ("crypto.shamir_reconstruct",)),
        ("derive_public", ("crypto.derive_public",)),
        ("sym", ("crypto.sym_encrypt", "crypto.sym_decrypt")),
        ("asym_encrypt", ("crypto.asym_encrypt",)),
        ("asym_decrypt", ("crypto.asym_decrypt",)),
        ("sign", ("crypto.sign",)),
        ("verify", ("crypto.verify",)),
    ):
        values[f"crypto.{short}_ms"] = ops.per_op_ms(*names)
        values[f"crypto.{short}_calls"] = ops.per_op_calls(*names)
    for short in ("shamir_split", "generate_keypair"):
        values[f"crypto.{short}_ms"] = build.per_op_ms(f"crypto.{short}")
        values[f"crypto.{short}_calls"] = build.per_op_calls(f"crypto.{short}")
    for kind in ("identify", "tamper", "audit", "restore"):
        values[f"cli_{kind}_ms"] = x.get(f"cli_{kind}_ms", 0.0)
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = _ratio(ops.self_ms[layer], ops.ops)
    return {name: (float(values[name]), unit) for name, unit in PER_LAYER}
