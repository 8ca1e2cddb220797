"""Template matching tree with shard-consensus decisions.

The tree has three levels. Each leaf stands for one gallery template and
holds its own link and decision shard. Chiefs group up to ``fanout``
leaves, pick the best score on their path, and must win their leaves'
consent for it. The root aggregates the chiefs' decisions and declares
the final match.

The tree is built in two steps. :func:`build_hash_tree` builds its hash
structure: the gallery as one C-contiguous (N, d) float64 matrix,
``MatcherTree.vectors``, beside the list of N identities, each chief's
row slice in ``MatcherTree.chief_rows``, and every enrollment hash. Row i
is the template of the leaf at enrollment position i. Verification,
template writes and restoration read nothing else. :func:`setup_tree_keys`
then enrolls the nodes and leaves the tree only what a query reads:
``chief_channels``, ``leaf_channels`` (row i's link is entry i),
``shards``, ``weights`` and ``decision_commitments``. A node's X25519 key
only agrees its links' keys and is not kept; the root's is the one key
pair the tree holds. :func:`build_tree` runs both.
``MatcherTree.write_template`` is the one way a stored template changes,
so every edit (loading a live store, tampering, restoring from the
archive) is seen by the next query and the next verification.

Integrity uses aggregate hashing: a leaf's hash covers its identity and
template row, and every parent's hash covers the ordered hashes of its
children, so one modified template changes its leaf, its chief, and the
root. The root keeps every leaf's and every chief's enrollment hash,
which is what makes top-down localization of tampered leaves possible.

Decisions use threshold secret sharing. Every root-chief link gets its
own 64-byte decision secret, split into ``2n + 1`` shards (``n`` leaves
on the link) and reconstructable from ``n + 2``. Row k of chief c of the
(C, 2 n_max + 1, 64) uint8 tensor ``MatcherTree.shards`` (n_max leaves
on the largest link) is that link's shard at field point k + 1:

* rows 0..n-1 are the leaves', row i surrendered by leaf i only to
  endorse a decision document whose score is at least as good as its own,
* row n is the chief's,
* row n+1 is the root's contribution to every attempt, and rows n+2..2n
  are the root's inert spares, kept for administrative key rotation;
  a short last chief's further rows are zero.

An honest document collects all ``n`` leaf shards; with the chief's and
the root's that meets the threshold exactly, so the pool is the chief's
first ``n + 2`` rows, whose Lagrange weights depend only on ``n``: the
key set-up builds them once, as row c of ``MatcherTree.weights``. When
it deals the secret, the root keeps only a commitment to it, a
domain-separated SHA-256 digest, and a reconstruction counts only if its
digest equals the commitment. A chief that drafts a document worse than
some leaf's own score loses that leaf's shard, fails by count without
interpolation, and triggers scrutiny: the root reads the dissenting
leaves' scores directly and repairs the decision for that path.

A decision document is the identity and score a chief claims; its
position in the round's list of documents is the chief. A round keeps no
state on the tree, not even a cycle id (the ledger's cycle names the
query), and runs once over all chiefs: drafts read the one (N,) score
array, consent is one dissent mask over its rows, and the pools of every
chief without dissent are gathered from the shard tensor in one index and
reconstructed in one batched call; nothing reconstructed is cached.

Probe fan-out is encrypted. Each root-chief and chief-leaf link gets its
channel key at build time, in the paper's key-establishment step: both
ends derive it by static-static X25519 agreement bound to the link's
position, and its AES-GCM cipher is prepared once the two keys are found
equal. A query crosses every link as one ciphertext under a fresh nonce,
and every leaf authenticates its own copy. Each link set, the root's C
chief links and then all N leaf links, is crossed in one call that draws
all its nonces at once and opens each copy as soon as it is sealed,
about 2 us a link at N = 5000 and d = 16 on a 2-core Xeon host. The
leaves' copies, in enrollment order, are decoded into one (N, d) probe
matrix and scored against the template matrix with one row kernel whose
scores are bit-identical to the scalar metrics; each chief reads its
slice.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Optional, Sequence

import numpy as np

from . import crypto
from .crypto import KeyPair, SharingConfig
from .encoding import decode_vectors, encode_vector, lp
from .metrics import DimensionMismatch, NonFiniteFeature, Ranking, get_row_metric

_LEAF_HASH_TAG = b"biochain/leaf-hash/v1"
_NODE_HASH_TAG = b"biochain/node-hash/v1"
_DECISION_KEY_TAG = b"biochain/decision-key/v1"

DEFAULT_FANOUT = 50
MAX_CHIEF_LEAVES = 127  # 2n + 1 shards, each at one of GF(2^8)'s 255 nonzero points
_DECISION_SECRET_LEN = 64


class EmptyGallery(Exception):
    pass


class KeysNotSetUp(Exception):
    """A query reached a tree that holds only its hash structure."""


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


def decision_key_commitment(secret: bytes) -> bytes:
    """The root's commitment to a link's decision secret."""
    return crypto.digest_parts(_DECISION_KEY_TAG, secret)


# ---------------------------------------------------------------------------
# Tree nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecisionDocument:
    identity: str
    score: float


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
        return self.delegate + self.match + self.compare_leaves + self.sharing + self.compare_chiefs


@dataclass(frozen=True)
class IdentifyResult:
    identity: str
    score: float
    metric: str
    candidates: Ranking
    scrutinized_chiefs: tuple[int, ...] = ()


class MatcherTree:
    """Root block: owns the gallery, the chiefs' row slices, and the final
    say; the channels, shards and commitments exist once
    :func:`setup_tree_keys` has run. Its one key pair is the root's."""

    def __init__(self, gallery: Sequence[Template], keys: KeyPair, fanout: int):
        self.vectors = np.array([t.vector for t in gallery], dtype=np.float64)
        self.identities = [t.identity for t in gallery]
        n = len(self.identities)
        self.fanout = fanout
        self.chief_rows = [slice(start, min(start + fanout, n)) for start in range(0, n, fanout)]
        self.keys = keys
        self.leaf_hashes: list[bytes] = []  # enrollment-time, one per row
        self.chief_hash_copies: list[bytes] = []
        self.chief_channels: list[crypto.SymCipher] = []  # one per chief
        self.leaf_channels: list[crypto.SymCipher] = []  # one per row
        self.shards = np.zeros((0, 0, 0), dtype=np.uint8)  # (C, 2 n_max + 1, 64) once set up
        self.weights = np.zeros((0, 0, 1), dtype=np.uint8)  # (C, n_max + 2, 1) once set up
        self.decision_commitments: list[bytes] = []  # one per chief
        self.hash: bytes = b""

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


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

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
        crypto.InvalidConfig: ``fanout`` is below 1, or a chief would hold
            more than :data:`MAX_CHIEF_LEAVES` leaves.
    """
    if not gallery:
        raise EmptyGallery("cannot build a tree over an empty gallery")
    if fanout < 1:
        raise crypto.InvalidConfig("fanout must be >= 1")
    if min(fanout, len(gallery)) > MAX_CHIEF_LEAVES:
        raise crypto.InvalidConfig(
            f"fanout {fanout} puts {min(fanout, len(gallery))} leaves under a chief; "
            f"GF(2^8) sharing allows at most {MAX_CHIEF_LEAVES}"
        )
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


def _link_cipher(
    sender: crypto.AgreementKey, receiver: crypto.AgreementKey, position: bytes
) -> crypto.SymCipher:
    """Key establishment for one delegation link, the paper's set-up step:
    each end derives the link key from its own private key and the other
    end's public key, so the key never travels. The cipher is prepared
    once, here, and only after the two ends' keys are found equal."""
    key = crypto.link_key(sender, receiver.public_key(), position)
    if key != crypto.link_key(receiver, sender.public_key(), position):
        raise crypto.CryptoError(f"the ends of link {position!r} derived different keys")
    return crypto.SymCipher(key)


def setup_tree_keys(tree: MatcherTree, rng: Optional[np.random.Generator] = None) -> None:
    """The tree's key set-up, drawn from ``rng`` chief by chief: in one
    draw, X25519-only private keys for its leaves and then itself; then its
    decision secret, split into its rows of ``tree.shards`` and kept as a
    commitment. Each link's cipher is keyed by static-static agreement
    between its ends, bound to its position: ``b"c"`` for chief c's link
    to the root, ``b"c/i"`` for its link to the leaf in row i. Each chief's
    full pool, at points ``1..n+2``, gets its Lagrange weights here. No
    node key outlives the set-up; only a query reads any of it."""
    root = tree.keys.decryption_key
    configs = [SharingConfig.for_group(rows.stop - rows.start) for rows in tree.chief_rows]
    # The first chief is the largest: its shards and its pool set the widths.
    tree.shards = np.zeros((len(configs), configs[0].total, _DECISION_SECRET_LEN), dtype=np.uint8)
    tree.weights = np.array([crypto.lagrange_weights(tuple(range(1, config.threshold + 1)), config,
                                                     configs[0].threshold) for config in configs])
    tree.chief_channels, tree.leaf_channels, tree.decision_commitments = [], [], []
    for c, (rows, config, held) in enumerate(zip(tree.chief_rows, configs, tree.shards)):
        *leaves, chief = crypto.agreement_keys(
            crypto.random_bytes(rng, crypto.KEY_HALF_LEN * (config.n + 1)))
        tree.chief_channels.append(_link_cipher(root, chief, b"%d" % c))
        tree.leaf_channels += [_link_cipher(chief, leaf, b"%d/%d" % (c, row))
                               for row, leaf in zip(range(rows.start, rows.stop), leaves)]
        secret = crypto.random_bytes(rng, _DECISION_SECRET_LEN)
        shards = crypto.shamir_split(secret, config, rng)
        held[:len(shards)] = [np.frombuffer(shard.payload, dtype=np.uint8) for shard in shards]
        tree.decision_commitments.append(decision_key_commitment(secret))


def build_tree(
    gallery: Sequence[Template],
    fanout: int = DEFAULT_FANOUT,
    rng: Optional[np.random.Generator] = None,
) -> MatcherTree:
    """Build the matching tree over a gallery, ready to query: the hash
    structure under a root key pair drawn from ``rng``, then the key
    set-up, continuing the same stream.

    Raises:
        EmptyGallery, crypto.InvalidConfig: as :func:`build_hash_tree`.
    """
    tree = build_hash_tree(gallery, crypto.generate_keypair(rng), fanout)
    setup_tree_keys(tree, rng)
    return tree


# ---------------------------------------------------------------------------
# Scoring and consensus
# ---------------------------------------------------------------------------

def _leaf_document(tree: MatcherTree, scores: np.ndarray, row: int) -> DecisionDocument:
    return DecisionDocument(tree.identities[row], float(scores[row]))


def chief_drafts(tree: MatcherTree, scores: np.ndarray) -> list[DecisionDocument]:
    """Every chief's draft path decision, read from the tree's (N,) leaf
    scores: the identity among its leaves with the best (lowest) score,
    ties broken by lowest leaf index. Entry c is chief c's."""
    # +inf pads a short last chief; argmin takes the first of equal minima.
    padded = np.full(len(tree.chief_rows) * tree.fanout, np.inf)
    padded[:len(scores)] = scores
    leaf_indices = np.argmin(padded.reshape(-1, tree.fanout), axis=1).tolist()
    return [
        _leaf_document(tree, scores, rows.start + leaf_index)
        for rows, leaf_index in zip(tree.chief_rows, leaf_indices)
    ]


def collect_consent(
    tree: MatcherTree, documents: Sequence[DecisionDocument], scores: np.ndarray
) -> np.ndarray:
    """Ask every leaf to endorse its chief's document; returns the dissent
    mask over the tree's N rows. A leaf consents, adding its shard to the
    pool, when the document's score is at least as good as its own."""
    drafted = np.repeat([document.score for document in documents], tree.fanout)[:len(scores)]
    # Negated rather than ">" so an incomparable (NaN) score also dissents.
    return ~(drafted <= scores)


def root_finalize(tree: MatcherTree, dissent: np.ndarray) -> np.ndarray:
    """Add the root's contribution shard to every chief's pool and try to
    reach consensus on every path; True where a path is accepted.

    A pool holds the consenting leaves' shards, the chief's and the root's,
    so a chief with any dissent falls short of its threshold ``n + 2`` and
    is never interpolated. A full pool is the first ``n + 2`` rows of its
    chief's shards, at field points ``1..n+2``; the full pools are gathered
    in one index and reconstructed under ``tree.weights`` in one call, and
    a path is accepted only if its reconstruction's digest equals the
    commitment the root kept when it dealt the secret. Anything else
    (short pool, corrupted shard) triggers scrutiny."""
    dissenting = np.logical_or.reduceat(dissent, np.arange(0, len(dissent), tree.fanout))
    full = np.flatnonzero(~dissenting)
    # A short last chief's extra rows get zero weight in the reconstruction.
    pools = tree.shards[full, :tree.weights.shape[1]]
    secrets = crypto.shamir_reconstruct_each(pools, tree.weights[full])
    accepted = np.zeros(len(tree.chief_rows), dtype=bool)
    for chief, secret in zip(full.tolist(), secrets):
        commitment = decision_key_commitment(secret.tobytes())
        accepted[chief] = commitment == tree.decision_commitments[chief]
    return accepted


def root_scrutinize(
    tree: MatcherTree, documents: Sequence[DecisionDocument], scores: np.ndarray,
    dissent: np.ndarray, accepted: np.ndarray,
) -> list[DecisionDocument]:
    """The path decisions: every accepted document, and every other one
    resolved by reading its dissenting leaves' scores. The best dissenting
    score (ties to the lowest leaf index) beats the document only if
    strictly better; otherwise the document stands (a dissent against a
    genuinely best document, or a corrupted shard with no dissent at all).
    """
    decisions = list(documents)
    for chief_index in np.flatnonzero(~accepted).tolist():
        rows, document = tree.chief_rows[chief_index], documents[chief_index]
        dissenters = rows.start + np.flatnonzero(dissent[rows])
        if dissenters.size:
            best = int(dissenters[np.argmin(scores[dissenters])])
            if scores[best] < document.score:
                decisions[chief_index] = _leaf_document(tree, scores, best)
    return decisions


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
    over all leaves, a :class:`Ranking`, is returned alongside the decision.

    Raises:
        KeysNotSetUp: the tree holds only its hash structure.
        crypto.DecryptionFailure: payload not addressed to this tree.
        crypto.AuthenticationFailure: the envelope's ``ed`` or a delegated
            copy fails its tag.
        ValueError: the probe's length header disagrees with its size.
        DimensionMismatch: probe dimension differs from the gallery's.
        ZeroVector: a zero-norm probe or template under cosine.
        NonFiniteFeature: the probe, or a score of it, is NaN or infinite.
    """
    if not tree.chief_channels:
        raise KeysNotSetUp("the tree has no node keys; run setup_tree_keys before querying")
    t0 = time.perf_counter()
    probe_bytes = crypto.open_envelope(envelope, tree.keys)

    # Fan the probe down the encrypted channels, one call per link set:
    # root to chiefs, then chiefs to leaves, each leaf's message its chief's
    # opened copy. Every leaf authenticates its own copy, and row i of the
    # probe matrix is parsed from leaf i's copy, in enrollment order.
    sizes = [rows.stop - rows.start for rows in tree.chief_rows]
    at_chiefs = crypto.sym_cross_each(repeat(probe_bytes, len(sizes)), tree.chief_channels)
    copies = crypto.sym_cross_each(
        chain.from_iterable(map(repeat, at_chiefs, sizes)), tree.leaf_channels)
    probes = decode_vectors(copies)
    t1 = time.perf_counter()

    # A non-finite probe scores non-finite against every template, so one
    # pass over the scores covers the probe too.
    with np.errstate(over="ignore", invalid="ignore"):
        all_scores = get_row_metric(metric)(tree.vectors, probes)
    if not np.isfinite(all_scores).all():
        raise NonFiniteFeature("its scores are not finite")
    t2 = time.perf_counter()

    documents = chief_drafts(tree, all_scores)
    dissent = collect_consent(tree, documents, all_scores)
    t3 = time.perf_counter()
    accepted = root_finalize(tree, dissent)
    t4 = time.perf_counter()
    decisions = root_scrutinize(tree, documents, all_scores, dissent, accepted)
    t5 = time.perf_counter()

    # min keeps the first of equal scores: ties go to the lowest chief.
    best = min(decisions, key=lambda d: d.score)
    # Enrollment order, so the stable sort breaks ties by global index.
    candidates = Ranking(tree.identities, all_scores, metric)
    t6 = time.perf_counter()

    if timings is not None:
        timings.delegate += t1 - t0
        timings.match += t2 - t1
        timings.compare_leaves += (t3 - t2) + (t5 - t4)
        timings.sharing += t4 - t3
        timings.compare_chiefs += t6 - t5
        timings.probes += 1

    return IdentifyResult(
        identity=best.identity,
        score=best.score,
        metric=metric,
        candidates=candidates,
        scrutinized_chiefs=tuple(np.flatnonzero(~accepted).tolist()),
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


def restore_leaves(
    tree: MatcherTree,
    locators: Sequence[LeafLocator],
    archive: Sequence[Template],
) -> None:
    """Restore the located leaves' templates from the archive, the
    enrollment-time templates in enrollment order, byte-exactly."""
    for locator in locators:
        tree.write_template(locator.global_index, archive[locator.global_index])

