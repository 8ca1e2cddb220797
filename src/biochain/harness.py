"""Experiment harness: synthetic galleries, enrollment, tamper injection,
integrity audits, and the traditional-versus-protected comparison run.

The "traditional" architecture is the unprotected baseline: a flat
template store scored by plain linear scan, with no hashing, no
consensus, and no recovery. The protected architecture runs every probe
through the notarized extraction chain and the consensus matching tree,
and repairs itself from the enrollment archive when an audit finds
tampering. Both score probes with the same metric code, so any accuracy
difference comes from integrity handling alone.

Everything a command produces is a deterministic function of the
configuration and its seed; wall-clock timings are kept out of the
deterministic report and surfaced separately.

:func:`build_system` builds every deployment, enrolled or rebuilt, and
this module alone knows its key streams; :func:`setup_keys` adds the key
set-up a query needs.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import crypto
from .crypto import InvalidConfig
from .encoding import write_atomic
from .extractor import (
    ExtractorChain,
    IndexOutOfRange,
    StageParams,
    handoff_envelope,
    run_query_cycle,
)
from .ledger import Ledger
from .matcher import (
    LeafLocator,
    MatchTimings,
    MatcherTree,
    Template,
    build_hash_tree,
    restore_leaves,
    setup_tree_keys,
    verify_tree,
)
from .metrics import METRICS, CMCData, MatchScore, cmc_curve, flat_rank, rank_k_accuracy

GALLERY_FORMAT_VERSION = 1

# Independent random streams derived from one experiment seed.
_STREAM_GALLERY = 0
_STREAM_KEYS = 1  # the matching tree's root key pair, then its key set-up
_STREAM_PROBES = 2
_STREAM_TAMPER = 3
_STREAM_CHAIN = 4  # extraction-stage parameters
# The chain's notary and block keys: independent of the gallery, so a
# command that sets up no tree keys rebuilds the same chain keys.
_STREAM_CHAIN_KEYS = 5


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def default_chain_spec() -> list[dict]:
    """Identity extraction chain: probes pass through unchanged, so the
    protocol machinery is exercised without distorting template space."""
    return [
        {"kind": "dense", "init": "identity"},
        {"kind": "activation", "activation": "linear"},
        {"kind": "dense", "init": "identity"},
    ]


# What each annotated field type accepts: a float field takes an int, none a bool.
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str,
                "Optional[float]": (numbers.Real, type(None)), "list[dict]": list}


@dataclass
class ExperimentConfig:
    seed: int = 7
    gallery_size: int = 120
    template_dim: int = 16
    fanout: int = 50
    metric: str = "euclidean"
    probe_noise_sigma: float = 0.1
    # None picks 10x the per-coordinate separation scale, which reliably
    # flips the unprotected argmin while leaving probes identifiable.
    noise_sigma: Optional[float] = None
    tamper_fraction: float = 1.0
    probes_per_identity: int = 5
    ranks: int = 10
    chain_spec: list[dict] = field(default_factory=default_chain_spec)

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise InvalidConfig(f"{f.name} must be of type {f.type}, got {value!r}")
        if not all(isinstance(stage, dict) for stage in self.chain_spec):
            raise InvalidConfig("chain_spec must be a list of objects")
        for name in ("gallery_size", "template_dim", "fanout", "probes_per_identity", "ranks"):
            if getattr(self, name) < 1:
                raise InvalidConfig(f"{name} must be >= 1")
        if self.metric not in METRICS:
            raise InvalidConfig(f"metric must be one of {sorted(METRICS)}, got {self.metric!r}")
        if not self.probe_noise_sigma >= 0:  # NaN fails too
            raise InvalidConfig("probe_noise_sigma must be >= 0")
        if self.noise_sigma is not None and not self.noise_sigma >= 0:
            raise InvalidConfig("noise_sigma must be >= 0")
        if not 0 < self.tamper_fraction <= 1:
            raise InvalidConfig("tamper_fraction must be in (0, 1]")
        try:  # every stage must build at the configured dimension
            build_stage_params(self.chain_spec, self.template_dim, np.random.default_rng(0))
        except (InvalidConfig, TypeError, ValueError, OverflowError) as exc:
            raise InvalidConfig(f"chain_spec does not build: {exc}")

    def separation_bound(self) -> float:
        """Minimum pairwise template distance enforced at generation."""
        return 10.0 * self.probe_noise_sigma * math.sqrt(self.template_dim)

    def effective_noise_sigma(self) -> float:
        if self.noise_sigma is not None:
            return self.noise_sigma
        return 10.0 * self.separation_bound() / math.sqrt(self.template_dim)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """A validated configuration; raises :class:`InvalidConfig` for a key
        that is not a field or a value out of range."""
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise InvalidConfig(f"unknown configuration keys: {', '.join(unknown)}")
        config = cls(**data)
        config.validate()
        return config


# ---------------------------------------------------------------------------
# Synthetic galleries and the gallery file format
# ---------------------------------------------------------------------------

def generate_synthetic_gallery(config: ExperimentConfig) -> list[Template]:
    """Deterministically draw well-separated identity templates.

    Centers are Gaussian at the separation-bound scale; any pair closer
    than the bound is resampled, so probes perturbed by the probe noise
    stay decisively nearest their own template.
    """
    config.validate()
    rng = _rng(config.seed, _STREAM_GALLERY)
    n, d = config.gallery_size, config.template_dim
    bound = config.separation_bound()
    scale = max(bound, 1.0)
    centers = rng.normal(scale=scale, size=(n, d))
    if n > 1 and bound > 0:
        for _ in range(1000):
            bad = _first_crowded_row(centers, bound)
            if bad is None:
                break
            centers[bad] = rng.normal(scale=scale, size=d)
        else:
            raise InvalidConfig("could not separate gallery centers; lower gallery_size")
    return [Template(f"id{i:04d}", centers[i]) for i in range(n)]


# Elements of one block of the row-by-row difference array (2 MiB of
# float64), so separation checks never hold an N x N x d array.
_SCAN_ELEMENTS = 1 << 18


def _first_crowded_row(centers: np.ndarray, bound: float) -> Optional[int]:
    """Lowest index of a center closer than ``bound`` to another, or None.

    Rows are scanned in blocks, stopping at the first block that holds
    one; each distance is computed as a full N x N matrix would compute
    it, so the answer is the same."""
    n, d = centers.shape
    step = max(1, _SCAN_ELEMENTS // (n * d))
    for lo in range(0, n, step):
        block = centers[lo:lo + step]
        dists = np.linalg.norm(block[:, None, :] - centers[None, :, :], axis=2)
        dists[np.arange(len(block)), np.arange(lo, lo + len(block))] = np.inf
        bad = np.flatnonzero(dists.min(axis=1) < bound)
        if bad.size:
            return lo + int(bad[0])
    return None


def save_gallery(path: Path, templates: Sequence[Template]) -> None:
    """Write the delimited text gallery format: a header line with the
    version, dimension, and count, then one record per line."""
    d = templates[0].vector.shape[0] if templates else 0
    lines = [f"biochain-gallery {GALLERY_FORMAT_VERSION} {d} {len(templates)}"]
    for t in templates:
        values = " ".join(f"{v:.17g}" for v in t.vector)
        lines.append(f"{t.identity} {values}")
    write_atomic(path, ("\n".join(lines) + "\n").encode())


def load_gallery(path: Path) -> list[Template]:
    """Read a file written by :func:`save_gallery`.

    Raises:
        ValueError: a malformed header or record line (a blank line, a
            wrong number of values, a value that is not a finite number),
            a record count other than the header's, or a repeated
            identity. The message names the file.
    """
    text = Path(path).read_text().strip().splitlines()
    if not text:
        raise ValueError(f"{path}: empty gallery file")
    head = text[0].split()
    if len(head) != 4 or head[0] != "biochain-gallery":
        raise ValueError(f"{path}: not a gallery file")
    try:
        version, dim, count = int(head[1]), int(head[2]), int(head[3])
    except ValueError:
        raise ValueError(f"{path}: header fields are not integers") from None
    if version != GALLERY_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported gallery version {version}")
    templates = []
    for number, line in enumerate(text[1:], start=2):
        fields = line.split()
        if not fields:
            raise ValueError(f"{path}: line {number} is blank")
        label, values = fields[0], fields[1:]
        if len(values) != dim:
            raise ValueError(f"{path}: record {label} has {len(values)} values, expected {dim}")
        try:
            templates.append(Template(label, np.array([float(v) for v in values])))
        except ValueError as exc:
            raise ValueError(f"{path}: record {label}: {exc}") from None
    if len(templates) != count:
        raise ValueError(f"{path}: header says {count} records, found {len(templates)}")
    labels = [t.identity for t in templates]
    if len(set(labels)) != len(labels):
        raise ValueError(f"{path}: duplicate identity labels")
    return templates


# ---------------------------------------------------------------------------
# Enrollment
# ---------------------------------------------------------------------------

# The keys each stage kind reads; a descriptor holding any other is refused.
_STAGE_KEYS = {
    "dense": {"kind", "activation", "out", "init"},
    "convolution": {"kind", "activation", "kernel", "bias"},
    "pooling": {"kind", "pool_size"},
    "activation": {"kind", "activation"},
}


def _stage_value(desc: dict, key: str, default, kind: type):
    """``desc[key]``, or ``default``, as ``kind``: an int passes as a float, a bool as neither,
    and a NaN or infinite float not at all."""
    value = desc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[kind.__name__]):
        raise InvalidConfig(f"stage key {key!r} must be of type {kind.__name__}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise InvalidConfig(f"stage key {key!r} must be finite, got {value!r}")
    return kind(value)


def build_stage_params(
    chain_spec: Sequence[dict], input_dim: int, rng: np.random.Generator
) -> list[StageParams]:
    """Instantiate stage parameters from descriptors, tracking the vector
    dimension through the chain."""
    stages = []
    dim = input_dim
    for desc in chain_spec:
        kind, activation = desc.get("kind"), desc.get("activation", "linear")
        if not isinstance(kind, str) or kind not in _STAGE_KEYS:
            raise InvalidConfig(f"unknown stage kind {kind!r}")
        unread = sorted(set(desc) - _STAGE_KEYS[kind])
        if unread:
            raise InvalidConfig(f"stage kind {kind!r} reads no key {', '.join(map(repr, unread))}")
        if kind == "dense":
            out_dim = _stage_value(desc, "out", dim, int)
            init = desc.get("init", "random")
            if init not in ("identity", "random"):
                raise InvalidConfig(f"stage key 'init' must be 'identity' or 'random', got {init!r}")
            if init == "identity":
                if out_dim != dim:
                    raise InvalidConfig("identity dense stage cannot change dimension")
                weights = np.eye(dim)
                bias = np.zeros(dim)
            else:
                weights = rng.normal(scale=0.5, size=(out_dim, dim))
                bias = rng.normal(scale=0.1, size=out_dim)
            stages.append(StageParams(kind="dense", weights=weights, bias=bias, activation=activation))
            dim = out_dim
        elif kind == "convolution":
            k = _stage_value(desc, "kernel", 3, int)
            stages.append(StageParams(kind="convolution", weights=rng.normal(scale=0.5, size=k),
                                      bias=np.array([_stage_value(desc, "bias", 0.0, float)]),
                                      activation=activation))
            dim = dim - k + 1
        elif kind == "pooling":
            size = _stage_value(desc, "pool_size", 2, int)
            stages.append(StageParams(kind="pooling", pool_size=size))
            dim = dim // size
        else:
            stages.append(StageParams(kind="activation", activation=activation))
        if dim < 1:
            raise InvalidConfig("chain collapses the vector to nothing")
    return stages


def enrollment_stages(
    gallery: Sequence[Template], chain_spec: Sequence[dict], seed: int
) -> list[StageParams]:
    """The chain's stage parameters for ``gallery``, drawn from the seed's
    stage stream; an empty gallery is an :class:`InvalidConfig`."""
    if not gallery:
        raise InvalidConfig("cannot enroll an empty gallery")
    return build_stage_params(chain_spec, gallery[0].vector.shape[0], _rng(seed, _STREAM_CHAIN))


@dataclass
class EnrolledSystem:
    """Everything enrollment produces, for both architectures."""

    chain: ExtractorChain
    ledger: Ledger
    tree: MatcherTree
    archive: list[Template]  # enrollment-time copies, in enrollment order
    # The unprotected architecture's templates; None when a rebuilt
    # deployment's stored copy does not parse.
    flat_store: Optional[list[Template]]


def build_system(
    templates: Sequence[Template], stages: list[StageParams], fanout: int, seed: int
) -> tuple[MatcherTree, ExtractorChain]:
    """The tree's hash structure over ``templates`` under the root's key
    pair, the first draw of the seed's tree-key stream, and the chain over
    ``stages``, keyed from the chain's own stream."""
    tree = build_hash_tree(templates, crypto.generate_keypair(_rng(seed, _STREAM_KEYS)), fanout)
    return tree, ExtractorChain.build(stages, tree.public_key, rng=_rng(seed, _STREAM_CHAIN_KEYS))


def setup_keys(tree: MatcherTree, seed: int) -> None:
    """:func:`matcher.setup_tree_keys`, continuing the seed's tree-key
    stream after the root's key pair.

    Raises:
        ValueError: the root's key pair is not that stream's first draw,
            so the tree was built under another seed.
    """
    rng = _rng(seed, _STREAM_KEYS)
    if crypto.generate_keypair(rng).private != tree.keys.private:
        raise ValueError(f"the tree's root key pair was not drawn under seed {seed}")
    setup_tree_keys(tree, rng)


def enroll(
    gallery: Sequence[Template],
    chain_spec: Optional[Sequence[dict]] = None,
    fanout: int = 50,
    seed: int = 0,
    ledger: Optional[Ledger] = None,
) -> EnrolledSystem:
    """Build the full protected system plus the unprotected baseline store.

    The tree, chain, key material, and shard allocation are all
    deterministic functions of (gallery, fanout, seed), so an enrolled
    deployment can be reconstructed from its inputs. The chain's keys
    depend on the seed alone.
    """
    stages = enrollment_stages(
        gallery, chain_spec if chain_spec is not None else default_chain_spec(), seed)
    tree, chain = build_system(gallery, stages, fanout, seed)
    chain.take_snapshot()
    setup_keys(tree, seed)
    return EnrolledSystem(
        chain=chain, ledger=ledger if ledger is not None else Ledger(), tree=tree,
        archive=[t.copy() for t in gallery], flat_store=[t.copy() for t in gallery],
    )


# ---------------------------------------------------------------------------
# Tamper injection
# ---------------------------------------------------------------------------

def inject_template_noise(
    templates: Sequence[Template], sigma: float, seed: int, fraction: float = 1.0
) -> list[int]:
    """Add zero-mean Gaussian noise to a fraction of a template list, in
    place. The noise depends only on the seed and the list's length, so the
    same seed perturbs any copy of a gallery identically. Returns the
    enrollment indices that were perturbed.
    """
    if not sigma > 0:
        raise ValueError("sigma must be > 0")
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    n = len(templates)
    count = max(1, int(round(fraction * n)))
    rng = _rng(seed, _STREAM_TAMPER)
    chosen = sorted(rng.choice(n, size=count, replace=False).tolist())
    for idx in chosen:
        noise = rng.normal(scale=sigma, size=templates[idx].vector.shape[0])
        templates[idx].vector = templates[idx].vector + noise
    return chosen


def tamper_extractor_block(chain: ExtractorChain, index: int, epsilon: float) -> None:
    """Perturb one numeric parameter of one stage block by ``epsilon``."""
    if not 0 <= index < len(chain.blocks):
        raise IndexOutOfRange(f"block index {index} out of range")
    if epsilon == 0:
        return
    params = chain.blocks[index].params
    if params.weights is not None and params.weights.size:
        params.weights.flat[0] += epsilon
    elif params.bias is not None and params.bias.size:
        params.bias.flat[0] += epsilon
    else:
        raise ValueError(f"stage {index} ({params.kind}) has no numeric parameters")


# ---------------------------------------------------------------------------
# Audit
# ---------------------------------------------------------------------------

@dataclass
class AuditReport:
    # First block index where chain and snapshot disagree; 0 when there is
    # no readable snapshot to verify the chain against.
    chain_first_tampered: Optional[int]
    tree_locators: list[LeafLocator]
    # The live store does not parse, or its records are not the archive's
    # in count or dimension.
    store_mismatch: bool
    snapshot_consistent: bool  # readable, and its parameters reproduce its hashes
    clean: bool
    lines: list[str]

    @property
    def findings(self) -> list[str]:
        """The lines that report a finding: every line but an ``intact`` one."""
        return [line for line in self.lines if not line.endswith(": intact")]


def audit(system: EnrolledSystem) -> AuditReport:
    """Run both integrity checks, compare the live store's record count
    and dimension with the archive's and the chain's stage count with the
    snapshot's, self-check the chain snapshot, and describe what they found.
    A live store that does not parse is a ``store:`` finding.

    A chain without a snapshot (its stored copy did not parse) cannot be
    verified: that is a ``snapshot:`` finding, and the chain counts as
    tampered from block 0."""
    snapshot = system.chain.snapshot
    if snapshot is None:
        chain_result, snapshot_consistent = 0, False
    else:
        chain_result = system.chain.verify()
        snapshot_consistent = snapshot.self_check()
    live_stages = len(system.chain.blocks)
    locators = verify_tree(system.tree)
    dim = system.tree.vectors.shape[1]
    store = system.flat_store
    if store is None:
        store_mismatch = True
    else:
        misfits = sum(t.vector.shape[0] != dim for t in store)
        store_mismatch = len(store) != len(system.archive) or misfits > 0
    lines = []
    if snapshot is None:
        lines.append("chain: not verified, there is no readable snapshot")
    elif chain_result is None:
        lines.append("chain: intact")
    elif live_stages != len(snapshot.blocks):
        lines.append(
            f"chain: {live_stages} stages, snapshot holds {len(snapshot.blocks)}; "
            "restore rewrites the stage list from the snapshot"
        )
    else:
        lines.append(
            f"chain: first tampered block index {chain_result}; "
            "restore rewrites the stage list from the snapshot"
        )
    if not locators:
        lines.append("tree: intact")
    else:
        for loc in locators:
            lines.append(
                f"tree: tampered leaf chief={loc.chief_index} leaf={loc.leaf_index} "
                f"identity={loc.identity}; restore from archive index {loc.global_index}"
            )
    if store is None:
        lines.append("store: does not parse; restore rewrites the store from the tree")
    elif store_mismatch:
        lines.append(
            f"store: {len(store)} live records, archive holds "
            f"{len(system.archive)}; {misfits} live records are not of dimension {dim}; "
            "restore rewrites the store from the tree"
        )
    if snapshot is None:
        lines.append(
            "snapshot: does not parse; the chain cannot be verified or restored from it"
        )
    elif not snapshot_consistent:
        lines.append(
            "snapshot: stored parameters do not reproduce the stored hashes; "
            "the chain cannot be restored from it"
        )
    clean = (
        chain_result is None and not locators and not store_mismatch
        and snapshot_consistent
    )
    return AuditReport(
        chain_first_tampered=chain_result,
        tree_locators=locators,
        store_mismatch=store_mismatch,
        snapshot_consistent=snapshot_consistent,
        clean=clean,
        lines=lines,
    )


# ---------------------------------------------------------------------------
# The comparison experiment
# ---------------------------------------------------------------------------

@dataclass
class ArmResult:
    """Identification quality of one architecture under one condition."""

    rank1: float
    cmc: CMCData


@dataclass
class Report:
    config: ExperimentConfig
    before_traditional: ArmResult
    before_proposed: ArmResult
    after_traditional: ArmResult
    after_proposed: ArmResult
    tampered_indices: list[int]
    audit_lines: list[str]
    timings: MatchTimings
    traditional_seconds: float
    proposed_seconds: float

    def _rows(self) -> list[tuple[str, str, ArmResult]]:
        """The four (architecture, condition, arm) results, in report order."""
        return [
            ("traditional", "before_tamper", self.before_traditional),
            ("proposed", "before_tamper", self.before_proposed),
            ("traditional", "after_tamper", self.after_traditional),
            ("proposed", "after_tamper", self.after_proposed),
        ]

    def to_text(self) -> str:
        """Deterministic report: a pure function of (config, seed)."""
        cfg = self.config
        out = []
        out.append("experiment report")
        out.append(
            f"config: seed={cfg.seed} gallery={cfg.gallery_size} dim={cfg.template_dim} "
            f"fanout={cfg.fanout} metric={cfg.metric} probes_per_identity={cfg.probes_per_identity}"
        )
        out.append(
            f"noise: probe_sigma={cfg.probe_noise_sigma:.17g} "
            f"tamper_sigma={cfg.effective_noise_sigma():.17g} fraction={cfg.tamper_fraction:.17g}"
        )
        out.append(f"tampered_templates: {len(self.tampered_indices)}")
        out.append("")
        out.append("architecture | condition | rank1")
        rows = self._rows()
        for arch, cond, arm in rows:
            out.append(f"{arch} | {cond} | {arm.rank1:.17g}")
        out.append("")
        out.append("cmc: architecture | condition | " + " ".join(
            f"r{r}" for r in self.before_traditional.cmc.ranks
        ))
        for arch, cond, arm in rows:
            values = " ".join(f"{a:.17g}" for a in arm.cmc.accuracy)
            out.append(f"{arch} | {cond} | {values}")
        out.append("")
        out.append("audit:")
        out.extend("  " + line for line in self.audit_lines)
        return "\n".join(out) + "\n"

    def to_json_dict(self) -> dict:
        results: dict[str, dict] = {}
        for arch, cond, arm in self._rows():
            results.setdefault(cond, {})[arch] = {
                "rank1": arm.rank1,
                "cmc": list(arm.cmc.accuracy),
            }
        return {
            "config": self.config.to_dict(),
            "results": results,
            "tampered_templates": len(self.tampered_indices),
            "audit": self.audit_lines,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def timing_text(self) -> str:
        """Measured wall-clock costs; excluded from the deterministic report."""
        t = self.timings
        out = ["timing breakdown (seconds, protected matcher, all probes)"]
        out.append(f"probes_timed: {t.probes}")
        out.append(f"delegate_to_leaves: {t.delegate:.6f}")
        out.append(f"template_match: {t.match:.6f}")
        out.append(f"compare_leaf_scores: {t.compare_leaves:.6f}")
        out.append(f"secret_sharing: {t.sharing:.6f}")
        out.append(f"compare_chief_decisions: {t.compare_chiefs:.6f}")
        out.append(f"matcher_total: {t.total():.6f}")
        out.append(f"traditional_eval_total: {self.traditional_seconds:.6f}")
        out.append(f"proposed_eval_total: {self.proposed_seconds:.6f}")
        return "\n".join(out) + "\n"


def make_probes(
    gallery: Sequence[Template], config: ExperimentConfig
) -> tuple[list[np.ndarray], list[str]]:
    """Probe set: every identity's template plus Gaussian probe noise."""
    rng = _rng(config.seed, _STREAM_PROBES)
    probes, truth = [], []
    for t in gallery:
        for _ in range(config.probes_per_identity):
            probes.append(t.vector + rng.normal(scale=config.probe_noise_sigma, size=t.vector.shape[0]))
            truth.append(t.identity)
    return probes, truth


def evaluate_traditional(
    store: Sequence[Template],
    probes: Sequence[np.ndarray],
    truth: Sequence[str],
    metric: str,
    ranks: int,
) -> ArmResult:
    results = [flat_rank(store, p, metric) for p in probes]
    return ArmResult(
        rank1=rank_k_accuracy(results, truth, 1),
        cmc=cmc_curve(results, truth, ranks),
    )


def evaluate_proposed(
    system: EnrolledSystem,
    probes: Sequence[np.ndarray],
    truth: Sequence[str],
    metric: str,
    ranks: int,
    timings: Optional[MatchTimings] = None,
) -> ArmResult:
    """Full-pipeline evaluation: every probe runs the notarized chain and
    the consensus tree."""
    from .matcher import identify

    results: list[Sequence[MatchScore]] = []
    for probe in probes:
        entry = run_query_cycle(system.chain, system.ledger, probe)
        outcome = identify(system.tree, handoff_envelope(entry), metric, timings)
        results.append(outcome.candidates)
    return ArmResult(
        rank1=rank_k_accuracy(results, truth, 1),
        cmc=cmc_curve(results, truth, ranks),
    )


def run_experiment(config: ExperimentConfig) -> Report:
    """The tamper-retention comparison.

    Both architectures are scored before tampering, the same Gaussian
    noise is injected into both template stores, the unprotected
    architecture is scored as-is, and the protected one audits, restores
    from the archive, and is scored again.
    """
    gallery = generate_synthetic_gallery(config)
    system = enroll(
        gallery, config.chain_spec, fanout=config.fanout, seed=config.seed
    )
    probes, truth = make_probes(gallery, config)
    timings = MatchTimings()

    t0 = time.perf_counter()
    before_traditional = evaluate_traditional(
        system.flat_store, probes, truth, config.metric, config.ranks
    )
    traditional_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    before_proposed = evaluate_proposed(
        system, probes, truth, config.metric, config.ranks, timings
    )
    proposed_seconds = time.perf_counter() - t0

    # The same noise reaches both architectures' template stores.
    tampered = inject_template_noise(
        system.flat_store, config.effective_noise_sigma(), config.seed,
        config.tamper_fraction,
    )
    for index in tampered:
        system.tree.write_template(index, system.flat_store[index])

    t0 = time.perf_counter()
    after_traditional = evaluate_traditional(
        system.flat_store, probes, truth, config.metric, config.ranks
    )
    traditional_seconds += time.perf_counter() - t0

    findings = audit(system)
    audit_lines = list(findings.lines)
    restore_leaves(system.tree, findings.tree_locators, system.archive)
    post = audit(system)
    audit_lines.append(
        "after restore: " + ("clean" if post.clean else "; ".join(post.lines))
    )

    t0 = time.perf_counter()
    after_proposed = evaluate_proposed(
        system, probes, truth, config.metric, config.ranks, timings
    )
    proposed_seconds += time.perf_counter() - t0

    return Report(
        config=config,
        before_traditional=before_traditional,
        before_proposed=before_proposed,
        after_traditional=after_traditional,
        after_proposed=after_proposed,
        tampered_indices=tampered,
        audit_lines=audit_lines,
        timings=timings,
        traditional_seconds=traditional_seconds,
        proposed_seconds=proposed_seconds,
    )
