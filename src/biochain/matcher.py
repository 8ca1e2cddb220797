"""Template matching tree with shard-consensus decisions.

The tree has three levels. Each leaf stands for one gallery template and
holds its own keys, link and decision shard. Chiefs group up to
``fanout`` leaves, pick the best score on their path, and must win their
leaves' consent for it. The root aggregates the chiefs' decisions and
declares the final match.

The tree is built in two steps. :func:`build_hash_tree` builds its hash
structure: the gallery as one C-contiguous (N, d) float64 matrix,
``MatcherTree.vectors``, beside the list of N identities, each chief's
row slice in ``MatcherTree.chief_rows``, and every enrollment hash. Row i
is the template of the leaf at enrollment position i. Verification,
template writes and restoration read nothing else. :func:`setup_tree_keys`
then enrolls the nodes: key pairs, channels, decision keys and shards,
held by the ``ChiefBlock`` and ``LeafBlock`` objects in
``MatcherTree.chiefs``, which only a query reads. :func:`build_tree` runs
both. ``MatcherTree.write_template`` is the one way a
stored template changes, so every edit (loading a live store, tampering,
restoring from the archive) is seen by the next query and the next
verification.

Integrity uses aggregate hashing: a leaf's hash covers its identity and
template row, and every parent's hash covers the ordered hashes of its
children, so one modified template changes its leaf, its chief, and the
root. The root keeps every leaf's and every chief's enrollment hash,
which is what makes top-down localization of tampered leaves possible.

Decisions use threshold secret sharing. Every root-chief link gets its
own decision key pair whose private half is split into ``2n + 1`` shards
(``n`` leaves on the link), reconstructable from ``n + 2``:

* each leaf holds one shard, surrendered only to endorse a decision
  document whose score is at least as good as the leaf's own result,
* the chief holds one shard of its own,
* the root holds the single shard it contributes to every attempt plus
  ``n - 1`` inert spares kept for administrative key rotation.

An honest document collects all ``n`` leaf shards; with the chief's and
the root's that meets the threshold exactly. When it deals the key, the
root keeps only a commitment to it, a domain-separated SHA-256 digest of
the private key, and a reconstruction counts only if its digest equals
the commitment: one hash per chief, and any byte that differs from the
dealt key fails. A chief that drafts a document worse than some
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
it against its rows of the template matrix with one row kernel whose
scores are bit-identical to the scalar metrics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from . import crypto
from .crypto import KeyPair, Shard, SharingConfig
from .encoding import decode_vectors, encode_vector, lp
from .metrics import DimensionMismatch, MatchScore, get_row_metric

_LEAF_HASH_TAG = b"biochain/leaf-hash/v1"
_NODE_HASH_TAG = b"biochain/node-hash/v1"
_DECISION_KEY_TAG = b"biochain/decision-key/v1"

DEFAULT_FANOUT = 50


class EmptyGallery(Exception):
    pass


class ArchiveMissing(Exception):
    pass


class KeysNotSetUp(Exception):
    """A query reached a tree that holds only its hash structure."""


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

    def copy(self) -> "Template":
        return Template(self.identity, self.vector.copy())


def leaf_hash(identity: str, vector: np.ndarray) -> bytes:
    return crypto.digest_parts(
        _LEAF_HASH_TAG, lp(identity.encode("utf-8")) + encode_vector(vector)
    )


def node_hash(children_hashes: Sequence[bytes]) -> bytes:
    """Aggregate hash of an ordered list of child digests."""
    if not children_hashes:
        raise ValueError("a node needs at least one child")
    return crypto.digest_parts(_NODE_HASH_TAG, *children_hashes)


def decision_key_commitment(private: bytes) -> bytes:
    """The root's commitment to a link's decision private key."""
    return crypto.digest_parts(_DECISION_KEY_TAG, private)


# ---------------------------------------------------------------------------
# Tree nodes
# ---------------------------------------------------------------------------

@dataclass
class LeafBlock:
    keys: KeyPair
    channel: Optional[crypto.SymCipher] = None  # chief-to-leaf link
    shard: Optional[Shard] = None


@dataclass
class ChiefBlock:
    index: int
    rows: slice  # its leaves' rows of the tree's template matrix
    leaves: list[LeafBlock]
    keys: KeyPair
    channel: Optional[crypto.SymCipher] = None  # root-to-chief link
    retained_shard: Optional[Shard] = None
    sharing: Optional[SharingConfig] = None


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
    """Root block: owns the gallery, the chiefs, a commitment to each
    link's decision key, and the final say. The chiefs' nodes and keys
    exist once :func:`setup_tree_keys` has run."""

    def __init__(self, gallery: Sequence[Template], keys: KeyPair, fanout: int):
        self.vectors = np.array([t.vector for t in gallery], dtype=np.float64)
        self.identities = [t.identity for t in gallery]
        n = len(self.identities)
        self.chief_rows = [slice(start, min(start + fanout, n)) for start in range(0, n, fanout)]
        self.chiefs: list[ChiefBlock] = []
        self.keys = keys
        self.leaf_hashes: list[bytes] = []  # enrollment-time, one per row
        self.chief_hash_copies: list[bytes] = []
        self.contribution_shards: dict[int, Shard] = {}
        self.retained_shards: dict[int, list[Shard]] = {}
        self.decision_commitments: dict[int, bytes] = {}
        self.hash: bytes = b""
        self._cycle_counter = 0

    @property
    def public_key(self) -> bytes:
        return self.keys.public

    def templates(self) -> list[Template]:
        """The stored templates in enrollment order, as copies: editing
        them leaves the tree unchanged."""
        return [
            Template(identity, row)
            for identity, row in zip(self.identities, self.vectors.copy())
        ]

    def write_template(self, index: int, template: Template) -> None:
        """Store a copy of ``template`` at enrollment position ``index``.

        Raises:
            DimensionMismatch: the template does not fit a matrix row.
        """
        if template.vector.shape != self.vectors.shape[1:]:
            raise DimensionMismatch(
                f"template {template.identity!r} has {template.vector.shape[0]} values, "
                f"the gallery {self.vectors.shape[1]}"
            )
        self.vectors[index] = template.vector
        self.identities[index] = template.identity

    def current_leaf_hashes(self, rows: slice) -> list[bytes]:
        """Hashes of one chief's leaves, its ``rows``, recomputed from the
        stored templates."""
        return [
            leaf_hash(identity, row)
            for identity, row in zip(self.identities[rows], self.vectors[rows])
        ]

    def next_cycle_id(self) -> str:
        self._cycle_counter += 1
        return f"match-{self._cycle_counter}"


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
    inert reserve. The root keeps a commitment to the private key, not
    the key."""
    n = len(chief.leaves)
    config = SharingConfig.for_group(n)
    decision_keys = crypto.generate_keypair(rng)
    shards = crypto.shamir_split(decision_keys.private, config, rng)
    for leaf, shard in zip(chief.leaves, shards[:n]):
        leaf.shard = shard
    chief.retained_shard = shards[n]
    chief.sharing = config
    tree.contribution_shards[chief.index] = shards[n + 1]
    tree.retained_shards[chief.index] = list(shards[n + 2 :])
    tree.decision_commitments[chief.index] = decision_key_commitment(decision_keys.private)


def _establish_channel(
    keys: KeyPair, rng: Optional[np.random.Generator] = None
) -> crypto.SymCipher:
    """Key establishment for one delegation link, the paper's set-up
    step: a fresh channel key is sealed to the receiving node's public key
    and opened with its private key, so the key never travels in the
    clear. The node prepares the link's cipher once, here."""
    sealed = crypto.seal(crypto.generate_sym_key(rng), keys.public, rng=rng)
    return crypto.SymCipher(crypto.open_envelope(sealed, keys.private))


def build_hash_tree(
    gallery: Sequence[Template], keys: KeyPair, fanout: int = DEFAULT_FANOUT
) -> MatcherTree:
    """The tree's hash structure over a gallery, one template per leaf,
    under the root key pair ``keys``: the template matrix, the chiefs' row
    slices, and the enrollment hash of every leaf, every chief and the
    root, kept at the root for later localization.

    ``ceil(len(gallery) / fanout)`` chiefs are laid out; every chief holds
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

    tree = MatcherTree(gallery, keys, fanout)
    for rows in tree.chief_rows:
        hashes = tree.current_leaf_hashes(rows)
        tree.leaf_hashes.extend(hashes)
        tree.chief_hash_copies.append(node_hash(hashes))
    tree.hash = node_hash(tree.chief_hash_copies)
    return tree


def setup_tree_keys(tree: MatcherTree, rng: Optional[np.random.Generator] = None) -> None:
    """The tree's key set-up: a key pair for every chief and leaf, a
    channel on every delegation link, and each root-chief link's decision
    keys and shards. Only a query reads them."""
    tree.chiefs = []
    for index, rows in enumerate(tree.chief_rows):
        leaves = [LeafBlock(keys=crypto.generate_keypair(rng)) for _ in range(rows.start, rows.stop)]
        chief = ChiefBlock(index=index, rows=rows, leaves=leaves, keys=crypto.generate_keypair(rng))
        tree.chiefs.append(chief)

    for chief in tree.chiefs:
        chief.channel = _establish_channel(chief.keys, rng)
        for leaf in chief.leaves:
            leaf.channel = _establish_channel(leaf.keys, rng)

    for chief in tree.chiefs:
        setup_decision_keys(tree, chief, rng)


def build_tree(
    gallery: Sequence[Template],
    fanout: int = DEFAULT_FANOUT,
    rng: Optional[np.random.Generator] = None,
) -> MatcherTree:
    """Build the matching tree over a gallery, ready to query: the hash
    structure under a root key pair drawn from ``rng``, then the key
    set-up, continuing the same stream.

    Raises:
        EmptyGallery: the gallery has no templates.
    """
    tree = build_hash_tree(gallery, crypto.generate_keypair(rng), fanout)
    setup_tree_keys(tree, rng)
    return tree


# ---------------------------------------------------------------------------
# Scoring and consensus
# ---------------------------------------------------------------------------

def _leaf_document(
    tree: MatcherTree, chief: ChiefBlock, scores: np.ndarray, leaf_index: int,
    cycle_id: str, metric: str,
) -> DecisionDocument:
    return DecisionDocument(
        chief_id=chief.index,
        cycle_id=cycle_id,
        identity=tree.identities[chief.rows.start + leaf_index],
        score=float(scores[leaf_index]),
        metric=metric,
        leaf_index=leaf_index,
    )


def chief_draft_document(
    tree: MatcherTree, chief: ChiefBlock, scores: np.ndarray, cycle_id: str, metric: str
) -> DecisionDocument:
    """Draft the path decision from the chief's leaf scores: the identity
    with the best (lowest) score, ties broken by lowest leaf index."""
    return _leaf_document(tree, chief, scores, int(np.argmin(scores)), cycle_id, metric)


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
    shards = [leaf.shard for leaf, refused in zip(chief.leaves, dissent) if not refused]
    shards.append(chief.retained_shard)
    return ShardPool(shards=shards, dissent=dissent)


def root_finalize(tree: MatcherTree, chief: ChiefBlock, pool: ShardPool) -> ConsensusResult:
    """Add the root's contribution shard and try to reach consensus.

    Consensus requires the pooled shards to reconstruct the link's
    decision private key exactly: the digest of the reconstruction must
    equal the commitment the root kept when it dealt the key. Anything
    else (short pool, corrupted shard) triggers scrutiny.
    """
    shards = pool.shards + [tree.contribution_shards[chief.index]]
    try:
        secret = crypto.shamir_reconstruct(shards, chief.sharing)
        if decision_key_commitment(secret) == tree.decision_commitments[chief.index]:
            return ConsensusResult.ACCEPTED
    except (crypto.CryptoError, ValueError):
        pass
    return ConsensusResult.SCRUTINY


def root_scrutinize(
    tree: MatcherTree, chief: ChiefBlock, document: DecisionDocument,
    scores: np.ndarray, pool: ShardPool,
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
    return _leaf_document(tree, chief, scores, best, document.cycle_id, document.metric)


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
        KeysNotSetUp: the tree holds only its hash structure.
        crypto.DecryptionFailure: payload not addressed to this tree.
        ValueError: the probe's length header disagrees with its size.
        DimensionMismatch: probe dimension differs from the gallery's.
        ZeroVector: a zero-norm probe or template under cosine.
    """
    if not tree.chiefs:
        raise KeysNotSetUp("the tree has no node keys; run setup_tree_keys before querying")
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

    score_rows = get_row_metric(metric)
    chief_scores = [
        score_rows(tree.vectors[chief.rows], probes)
        for chief, probes in zip(tree.chiefs, chief_probes)
    ]
    t2 = time.perf_counter()

    drafts = [
        chief_draft_document(tree, chief, scores, cycle_id, metric)
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
            document = root_scrutinize(tree, chief, document, scores, pool)
            scrutinized.append(chief.index)
        decisions.append(document)
    t4 = time.perf_counter()

    best = min(decisions, key=lambda d: (d.score, d.chief_id))
    # Enrollment order, so the stable sort breaks ties by global index.
    all_scores = np.concatenate(chief_scores)
    values = all_scores.tolist()
    identities = tree.identities
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
    for chief_index, rows in enumerate(tree.chief_rows):
        recomputed_leaf_hashes = tree.current_leaf_hashes(rows)
        if node_hash(recomputed_leaf_hashes) == tree.chief_hash_copies[chief_index]:
            continue
        enrolled = tree.leaf_hashes[rows]
        for leaf_index, current in enumerate(recomputed_leaf_hashes):
            if current != enrolled[leaf_index]:
                global_index = rows.start + leaf_index
                locators.append(
                    LeafLocator(
                        chief_index=chief_index,
                        leaf_index=leaf_index,
                        global_index=global_index,
                        identity=tree.identities[global_index],
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
        tree.write_template(locator.global_index, archive.get(locator.global_index))

