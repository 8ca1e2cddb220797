"""Template matching tree with shard-consensus decisions.

The tree has three levels. Leaves each hold one gallery template and do
the actual scoring. Chiefs group up to ``fanout`` leaves, pick the best
score on their path, and must win their leaves' consent for it. The root
aggregates the chiefs' decisions and declares the final match.

Integrity uses aggregate hashing: a leaf's hash covers its template, and
every parent's hash covers the ordered hashes of its children, so one
modified template changes its leaf, its chief, and the root. Parents also
keep copies of their children's enrollment hashes, which is what makes
top-down localization of tampered leaves possible.

Decisions use threshold secret sharing. Every root-chief link gets its
own decision key pair whose private half is split into ``2n + 1`` shards
(``n`` leaves on the link), reconstructable from ``n + 2``:

* each leaf holds one shard, surrendered only to endorse a decision
  document whose score is at least as good as the leaf's own result,
* the chief holds one shard of its own,
* the root holds the single shard it contributes to every attempt plus
  ``n - 1`` inert spares kept for administrative key rotation.

An honest document collects all ``n`` leaf shards; with the chief's and
the root's that meets the threshold exactly, and reconstruction is
checked by deriving the public half from the rebuilt key and comparing
it with the stored one. A chief that drafts a document worse than some
leaf's own score loses that leaf's shard, can never reach threshold, and
triggers scrutiny: the root reads the dissenting leaves' scores directly
and repairs the decision for that path. A dissent against a genuinely
best document also triggers scrutiny, which then simply confirms the
document.

A round keeps no state on the tree: each chief's leaf scores travel as
one float64 array, and consent yields the pooled shards plus a boolean
dissent mask over the chief's leaves.

Probe fan-out is encrypted. Each root-chief and chief-leaf link gets its
channel key at build time, in the paper's key-establishment step: the
key is sealed to the receiving node's public key and opened with its
private key. The link's AES-GCM cipher is prepared then, once. A query
crosses every link as one ciphertext under a fresh nonce, and every leaf
authenticates its own copy. Each chief then stacks its leaves' copies
into one (n, d) probe matrix, row i parsed from leaf i's copy, and scores
it against its stacked templates with one row kernel whose scores are
bit-identical to the scalar metrics. Templates are stacked anew on every
query, so a template edited or replaced between queries is always seen.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from . import crypto
from .crypto import KeyPair, Shard, SharingConfig
from .encoding import decode_vectors, encode_vector, lp
from .metrics import DimensionMismatch, MatchScore, get_row_metric

_LEAF_HASH_TAG = b"biochain/leaf-hash/v1"
_NODE_HASH_TAG = b"biochain/node-hash/v1"

DEFAULT_FANOUT = 50


class EmptyGallery(Exception):
    pass


class ArchiveMissing(Exception):
    pass


class ConsensusResult(Enum):
    ACCEPTED = "accepted"
    SCRUTINY = "scrutiny"


# ---------------------------------------------------------------------------
# Templates and hashing
# ---------------------------------------------------------------------------

@dataclass
class Template:
    identity: str
    vector: np.ndarray

    def __post_init__(self) -> None:
        self.vector = np.asarray(self.vector, dtype=np.float64)
        if self.vector.ndim != 1:
            raise ValueError("templates are 1-D vectors")
        if not np.all(np.isfinite(self.vector)):
            raise ValueError("template entries must be finite")

    def canonical_bytes(self) -> bytes:
        return lp(self.identity.encode("utf-8")) + encode_vector(self.vector)

    def copy(self) -> "Template":
        return Template(self.identity, self.vector.copy())


def leaf_hash(template: Template) -> bytes:
    return crypto.digest_parts(_LEAF_HASH_TAG, template.canonical_bytes())


def node_hash(children_hashes: Sequence[bytes]) -> bytes:
    """Aggregate hash of an ordered list of child digests."""
    if not children_hashes:
        raise ValueError("a node needs at least one child")
    return crypto.digest_parts(_NODE_HASH_TAG, *children_hashes)


# ---------------------------------------------------------------------------
# Tree nodes
# ---------------------------------------------------------------------------

@dataclass
class LeafBlock:
    index: int  # position within the chief
    global_index: int  # position in enrollment order
    template: Template
    keys: KeyPair
    channel: Optional[crypto.SymCipher] = None  # chief-to-leaf link
    shard: Optional[Shard] = None
    hash: bytes = b""  # enrollment-time hash
    # Fault-injection toggle for simulations: a compromised leaf withholds
    # its shard and dissents no matter what the document says.
    always_dissent: bool = False

    def current_hash(self) -> bytes:
        return leaf_hash(self.template)


@dataclass
class ChiefBlock:
    index: int
    leaves: list[LeafBlock]
    keys: KeyPair
    channel: Optional[crypto.SymCipher] = None  # root-to-chief link
    leaf_hash_copies: list[bytes] = field(default_factory=list)
    retained_shard: Optional[Shard] = None
    decision_public: bytes = b""
    sharing: Optional[SharingConfig] = None
    hash: bytes = b""  # enrollment-time hash
    # Fault-injection hook for simulations: a compromised chief rewrites
    # its honest draft before seeking consent.
    tamper_document: Optional[Callable[["DecisionDocument"], "DecisionDocument"]] = None

    def current_hash(self) -> bytes:
        return node_hash([leaf.current_hash() for leaf in self.leaves])


@dataclass(frozen=True)
class DecisionDocument:
    chief_id: int
    cycle_id: str
    identity: str
    score: float
    metric: str
    leaf_index: int  # drafting leaf's position within the chief


@dataclass
class ShardPool:
    shards: list[Shard]
    dissent: np.ndarray  # bool, one entry per leaf of the chief


@dataclass(frozen=True)
class LeafLocator:
    chief_index: int
    leaf_index: int
    global_index: int
    identity: str


@dataclass
class MatchTimings:
    """Accumulated wall-clock cost of the matcher phases."""

    delegate: float = 0.0
    match: float = 0.0
    compare_leaves: float = 0.0
    sharing: float = 0.0
    compare_chiefs: float = 0.0
    probes: int = 0

    def total(self) -> float:
        return (
            self.delegate
            + self.match
            + self.compare_leaves
            + self.sharing
            + self.compare_chiefs
        )


@dataclass(frozen=True)
class IdentifyResult:
    identity: str
    score: float
    metric: str
    candidates: list[MatchScore]
    scrutinized_chiefs: tuple[int, ...] = ()


class MatcherTree:
    """Root block: owns the chiefs, the decision keys, and the final say."""

    def __init__(self, chiefs: list[ChiefBlock], keys: KeyPair):
        self.chiefs = chiefs
        self.keys = keys
        self.chief_hash_copies: list[bytes] = []
        self.contribution_shards: dict[int, Shard] = {}
        self.retained_shards: dict[int, list[Shard]] = {}
        self.decision_publics: dict[int, bytes] = {}
        self.hash: bytes = b""
        self._cycle_counter = 0

    @property
    def public_key(self) -> bytes:
        return self.keys.public

    def leaves(self) -> list[LeafBlock]:
        return [leaf for chief in self.chiefs for leaf in chief.leaves]

    def templates(self) -> list[Template]:
        return [leaf.template for leaf in self.leaves()]

    def next_cycle_id(self) -> str:
        self._cycle_counter += 1
        return f"match-{self._cycle_counter}"

    def current_hash(self) -> bytes:
        return node_hash([chief.current_hash() for chief in self.chiefs])


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def setup_decision_keys(
    tree: MatcherTree, chief: ChiefBlock, rng: Optional[np.random.Generator] = None
) -> None:
    """Create and distribute the decision key material for one root-chief
    link: a fresh key pair, its private half split into ``2n + 1`` shards
    at threshold ``n + 2``, allocated one per leaf, one to the chief, one
    as the root's contribution, and the remaining ``n - 1`` to the root's
    inert reserve."""
    n = len(chief.leaves)
    config = SharingConfig.for_group(n)
    decision_keys = crypto.generate_keypair(rng)
    shards = crypto.shamir_split(decision_keys.private, config, rng)
    for leaf, shard in zip(chief.leaves, shards[:n]):
        leaf.shard = shard
    chief.retained_shard = shards[n]
    chief.decision_public = decision_keys.public
    chief.sharing = config
    tree.contribution_shards[chief.index] = shards[n + 1]
    tree.retained_shards[chief.index] = list(shards[n + 2 :])
    tree.decision_publics[chief.index] = decision_keys.public


def _establish_channel(
    keys: KeyPair, rng: Optional[np.random.Generator] = None
) -> crypto.SymCipher:
    """Key establishment for one delegation link, the paper's set-up
    step: a fresh channel key is sealed to the receiving node's public key
    and opened with its private key, so the key never travels in the
    clear. The node prepares the link's cipher once, here."""
    sealed = crypto.seal(crypto.generate_sym_key(rng), keys.public, rng=rng)
    return crypto.SymCipher(crypto.open_envelope(sealed, keys.private))


def build_tree(
    gallery: Sequence[Template],
    fanout: int = DEFAULT_FANOUT,
    rng: Optional[np.random.Generator] = None,
) -> MatcherTree:
    """Build the matching tree over a gallery, one template per leaf.

    ``ceil(len(gallery) / fanout)`` chiefs are created; every chief holds
    ``fanout`` leaves except possibly the last, which holds the remainder.

    Raises:
        EmptyGallery: the gallery has no templates.
    """
    if not gallery:
        raise EmptyGallery("cannot build a tree over an empty gallery")
    if fanout < 1:
        raise ValueError("fanout must be >= 1")
    dims = {t.vector.shape[0] for t in gallery}
    if len(dims) != 1:
        raise DimensionMismatch(f"gallery templates disagree on dimension: {dims}")

    tree = MatcherTree(chiefs=[], keys=crypto.generate_keypair(rng))
    chief_count = math.ceil(len(gallery) / fanout)
    for c in range(chief_count):
        chunk = gallery[c * fanout : (c + 1) * fanout]
        leaves = []
        for i, template in enumerate(chunk):
            leaves.append(
                LeafBlock(
                    index=i,
                    global_index=c * fanout + i,
                    template=template.copy(),
                    keys=crypto.generate_keypair(rng),
                )
            )
        chief = ChiefBlock(index=c, leaves=leaves, keys=crypto.generate_keypair(rng))
        tree.chiefs.append(chief)

    for chief in tree.chiefs:
        chief.channel = _establish_channel(chief.keys, rng)
        for leaf in chief.leaves:
            leaf.channel = _establish_channel(leaf.keys, rng)

    for chief in tree.chiefs:
        setup_decision_keys(tree, chief, rng)

    # Enrollment hashes, copied upward for later localization.
    for chief in tree.chiefs:
        for leaf in chief.leaves:
            leaf.hash = leaf.current_hash()
        chief.leaf_hash_copies = [leaf.hash for leaf in chief.leaves]
        chief.hash = node_hash(chief.leaf_hash_copies)
    tree.chief_hash_copies = [chief.hash for chief in tree.chiefs]
    tree.hash = node_hash(tree.chief_hash_copies)
    return tree


# ---------------------------------------------------------------------------
# Scoring and consensus
# ---------------------------------------------------------------------------

def _leaf_document(
    chief: ChiefBlock, scores: np.ndarray, leaf_index: int, cycle_id: str, metric: str
) -> DecisionDocument:
    return DecisionDocument(
        chief_id=chief.index,
        cycle_id=cycle_id,
        identity=chief.leaves[leaf_index].template.identity,
        score=float(scores[leaf_index]),
        metric=metric,
        leaf_index=leaf_index,
    )


def chief_draft_document(
    chief: ChiefBlock, scores: np.ndarray, cycle_id: str, metric: str
) -> DecisionDocument:
    """Draft the path decision from the chief's leaf scores: the identity
    with the best (lowest) score, ties broken by lowest leaf index."""
    document = _leaf_document(chief, scores, int(np.argmin(scores)), cycle_id, metric)
    if chief.tamper_document is not None:
        document = chief.tamper_document(document)
    return document


def collect_consent(
    chief: ChiefBlock, document: DecisionDocument, scores: np.ndarray
) -> ShardPool:
    """Ask every leaf to endorse the document.

    A leaf consents, adding its shard to the pool, when the document's
    score is at least as good as its own; otherwise it withholds the
    shard and dissents. The chief always adds its retained shard.
    """
    # Negated rather than ">" so an incomparable (NaN) score also dissents.
    dissent = ~(document.score <= scores)
    dissent |= np.array([leaf.always_dissent for leaf in chief.leaves], dtype=bool)
    shards = [leaf.shard for leaf, refused in zip(chief.leaves, dissent) if not refused]
    shards.append(chief.retained_shard)
    return ShardPool(shards=shards, dissent=dissent)


def root_finalize(tree: MatcherTree, chief: ChiefBlock, pool: ShardPool) -> ConsensusResult:
    """Add the root's contribution shard and try to reach consensus.

    Consensus requires the pooled shards to reconstruct the link's
    decision private key, proven by deriving its public half and
    comparing it with the stored one. Anything else (short pool,
    corrupted shard) triggers scrutiny.
    """
    shards = pool.shards + [tree.contribution_shards[chief.index]]
    try:
        secret = crypto.shamir_reconstruct(shards, chief.sharing)
        if crypto.derive_public(secret) == tree.decision_publics[chief.index]:
            return ConsensusResult.ACCEPTED
    except (crypto.CryptoError, ValueError):
        pass
    return ConsensusResult.SCRUTINY


def root_scrutinize(
    chief: ChiefBlock, document: DecisionDocument, scores: np.ndarray, pool: ShardPool
) -> DecisionDocument:
    """Resolve a failed consensus by reading the dissenting leaves' scores.

    The best dissenting score (ties to the lowest leaf index) beats the
    document only if strictly better; otherwise the document stands (a
    dissent against a genuinely best document, or a corrupted shard with
    no dissent at all).
    """
    dissenters = np.flatnonzero(pool.dissent)
    if dissenters.size == 0:
        return document
    best = int(dissenters[np.argmin(scores[dissenters])])
    if not scores[best] < document.score:
        return document
    return _leaf_document(chief, scores, best, document.cycle_id, document.metric)


# ---------------------------------------------------------------------------
# Identification
# ---------------------------------------------------------------------------

def identify(
    tree: MatcherTree,
    envelope: crypto.Envelope,
    metric: str,
    timings: Optional[MatchTimings] = None,
) -> IdentifyResult:
    """Identify an encrypted probe against the whole tree.

    The payload must decrypt with the root's private key. The root fans
    the probe down the encrypted channels, every leaf scores it, every
    chief drafts and defends a path decision (scrutiny repairing any path
    that fails consensus), and the root takes the best path decision,
    ties broken by lowest chief index. The full ascending candidate list
    over all leaves is returned alongside the decision.

    Raises:
        crypto.DecryptionFailure: payload not addressed to this tree.
        ValueError: the probe's length header disagrees with its size.
        DimensionMismatch: probe dimension differs from the gallery's.
        ZeroVector: a zero-norm probe or template under cosine.
    """
    t0 = time.perf_counter()
    probe_bytes = crypto.open_envelope(envelope, tree.keys)
    cycle_id = tree.next_cycle_id()

    # Fan the probe down the encrypted channels: root to chiefs, chiefs to
    # leaves. Every leaf authenticates its own copy, and the chief stacks
    # the copies so that row i of its probe matrix is parsed from leaf i's.
    chief_probes: list[np.ndarray] = []
    for chief in tree.chiefs:
        at_chief = crypto.sym_decrypt(
            crypto.sym_encrypt(probe_bytes, chief.channel), chief.channel
        )
        chief_probes.append(decode_vectors([
            crypto.sym_decrypt(crypto.sym_encrypt(at_chief, leaf.channel), leaf.channel)
            for leaf in chief.leaves
        ]))
    t1 = time.perf_counter()

    # Templates are stacked anew on every query, so a template edited in
    # place or replaced between queries is always seen.
    score_rows = get_row_metric(metric)
    chief_scores = [
        score_rows(np.stack([leaf.template.vector for leaf in chief.leaves]), probes)
        for chief, probes in zip(tree.chiefs, chief_probes)
    ]
    t2 = time.perf_counter()

    drafts = [
        chief_draft_document(chief, scores, cycle_id, metric)
        for chief, scores in zip(tree.chiefs, chief_scores)
    ]
    t3 = time.perf_counter()

    sharing_time = 0.0
    decisions: list[DecisionDocument] = []
    scrutinized: list[int] = []
    for chief, scores, document in zip(tree.chiefs, chief_scores, drafts):
        pool = collect_consent(chief, document, scores)
        s0 = time.perf_counter()
        outcome = root_finalize(tree, chief, pool)
        sharing_time += time.perf_counter() - s0
        if outcome is ConsensusResult.SCRUTINY:
            document = root_scrutinize(chief, document, scores, pool)
            scrutinized.append(chief.index)
        decisions.append(document)
    t4 = time.perf_counter()

    best = min(decisions, key=lambda d: (d.score, d.chief_id))
    # Enrollment order, so the stable sort breaks ties by global index.
    all_scores = np.concatenate(chief_scores)
    values = all_scores.tolist()
    identities = [leaf.template.identity for leaf in tree.leaves()]
    candidates = [
        MatchScore(identities[i], values[i], metric)
        for i in np.argsort(all_scores, kind="stable").tolist()
    ]
    t5 = time.perf_counter()

    if timings is not None:
        timings.delegate += t1 - t0
        timings.match += t2 - t1
        timings.compare_leaves += (t3 - t2) + (t4 - t3 - sharing_time)
        timings.sharing += sharing_time
        timings.compare_chiefs += t5 - t4
        timings.probes += 1

    return IdentifyResult(
        identity=best.identity,
        score=best.score,
        metric=metric,
        candidates=candidates,
        scrutinized_chiefs=tuple(scrutinized),
    )


def identify_vector(
    tree: MatcherTree,
    probe: np.ndarray,
    metric: str,
    timings: Optional[MatchTimings] = None,
) -> IdentifyResult:
    """Convenience wrapper: seal a plaintext probe to the root and identify."""
    payload = encode_vector(np.asarray(probe, dtype=np.float64))
    return identify(tree, crypto.seal(payload, tree.public_key), metric, timings)


# ---------------------------------------------------------------------------
# Integrity: localization and restoration
# ---------------------------------------------------------------------------

def verify_tree(tree: MatcherTree) -> list[LeafLocator]:
    """Locate every leaf whose current hash differs from enrollment.

    Hashes are recomputed bottom-up and compared against the stored
    copies top-down: only chiefs whose aggregate changed are descended
    into, and within them only leaves whose hash changed are reported.
    An intact tree returns an empty list.
    """
    locators: list[LeafLocator] = []
    for chief in tree.chiefs:
        recomputed_leaf_hashes = [leaf.current_hash() for leaf in chief.leaves]
        if node_hash(recomputed_leaf_hashes) == tree.chief_hash_copies[chief.index]:
            continue
        for leaf, current in zip(chief.leaves, recomputed_leaf_hashes):
            if current != chief.leaf_hash_copies[leaf.index]:
                locators.append(
                    LeafLocator(
                        chief_index=chief.index,
                        leaf_index=leaf.index,
                        global_index=leaf.global_index,
                        identity=leaf.template.identity,
                    )
                )
    return locators


class TemplateArchive:
    """Enrollment-time template copies, indexed by enrollment order."""

    def __init__(self, templates: Sequence[Template]):
        self._templates = [t.copy() for t in templates]

    def __len__(self) -> int:
        return len(self._templates)

    def get(self, global_index: int) -> Template:
        if not 0 <= global_index < len(self._templates):
            raise ArchiveMissing(f"no archived template at index {global_index}")
        return self._templates[global_index]

    def templates(self) -> list[Template]:
        return [t.copy() for t in self._templates]


def restore_leaves(
    tree: MatcherTree,
    locators: Sequence[LeafLocator],
    archive: Optional[TemplateArchive],
) -> None:
    """Restore the located leaves' templates from the archive, byte-exactly.

    Raises:
        ArchiveMissing: no archive, or a locator the archive cannot serve.
    """
    if archive is None:
        raise ArchiveMissing("no template archive available")
    for locator in locators:
        leaf = tree.chiefs[locator.chief_index].leaves[locator.leaf_index]
        leaf.template = archive.get(locator.global_index).copy()


def admin_recover_decision_key(tree: MatcherTree, chief: ChiefBlock) -> bytes:
    """Administrative reconstruction of a link's decision private key,
    for key rotation outside the consensus protocol.

    The root's inert reserve plus its contribution shard plus the chief's
    shard total one short of the threshold, so recovery additionally
    needs a single cooperating leaf. Returns the private key bytes after
    checking them against the stored public half.
    """
    shards = list(tree.retained_shards[chief.index])
    shards.append(tree.contribution_shards[chief.index])
    shards.append(chief.retained_shard)
    shards.append(chief.leaves[0].shard)
    secret = crypto.shamir_reconstruct(shards, chief.sharing)
    if crypto.derive_public(secret) != tree.decision_publics[chief.index]:
        raise crypto.CryptoError("recovered key does not match the stored public half")
    return secret
