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
``MatcherTree.write_template`` is the one way a stored template changes:
``vectors`` is a read-only view of the matrix it writes. Every write
hashes its one leaf and keeps ``MatcherTree.altered``, the set of rows
whose template differs from its enrollment hash, so every edit (loading a
live store, tampering, restoring from the archive) is seen by the next
verification, and a query refuses a tree with any altered row
(:class:`TreeTampered`), as the chain cycle refuses a tampered chain.

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
key set-up builds them once per distinct ``n`` and keeps chief c's as
row c of ``MatcherTree.weights``. When
it deals the secret, the root keeps only a commitment to it, a
domain-separated SHA-256 digest, and a reconstruction counts only if its
digest equals the commitment. A leaf endorses only a document that one
of its chief's leaves attests, holding the named identity at exactly the
claimed score, so a chief cannot claim a score none of its leaves holds.
A chief that drafts a document worse than some leaf's own score, or one
no leaf attests, loses shards, fails by count without interpolation, and
triggers scrutiny: the root re-derives that path's decision from all of
its leaves' scores.

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
equal. The set-up makes every draw in this process, in draw order: per
chief its node keys, its decision secret and the randomness that splits
it. Each share of contiguous chiefs then deals its own chiefs: it agrees
their links, splits their secrets in one pass and commits to them. A
tree of at least :data:`PARALLEL_MIN_LINKS` links (over 2,450 templates
under fanout 50) deals its shares in ``fork`` worker processes, one share
per usable CPU, this process taking one; the keys, shards and
commitments are the same bytes either way. Threads would not help:
``cryptography`` holds the GIL during an X25519 exchange, so 2,000
exchanges took 109 ms split over two threads and 115 ms on one. The
workers need ``os.fork`` and CPU affinity, so the path is POSIX-only
(Linux in practice); elsewhere, and with one usable CPU, every tree is
dealt in this process. Python 3.12 and later warn that a fork while
other threads run, such as OpenBLAS's, may deadlock the child; a worker
runs X25519, HKDF, SHA-256, numpy element-wise gathers and AES-GCM, no
BLAS routine, and ends with ``os._exit``.

A query crosses every link as one ciphertext under a fresh nonce, and
every leaf authenticates its own copy. A set of links is crossed in one
call that draws all their nonces at once and opens each copy as soon as
it is sealed, about 1.4 us a link on a 2-core Xeon host (5,000 links of
132-byte copies, d = 16, in one process). The root crosses its C chief
links so; the leaf links are crossed share by share, by the one
function :func:`_cross_share`, in the processes that dealt them: a
forked worker does not exit once it has dealt, but prepares its share's
leaf ciphers and stays, owned by the tree, as its share's crossing
worker. Each query sends a worker its chiefs' opened copies over a pipe
while this process crosses its own share; the worker writes its leaves'
opened copies into anonymous shared memory mapped before its fork, and
its reply pipe carries back only a status byte and the query's number.
A worker keeps no descriptor it inherited but its two pipe ends, and
exits when its request pipe ends: when the tree is dropped or set up
again, or this process exits or dies. A worker lost between queries
fails the next query with :class:`crypto.CryptoError`, and later
queries cross its share in this process, under the ciphers it already
holds. The root parses its own copy of the probe first, so a record of
another size or dimension crosses no link. The leaves' copies, in
enrollment order, are decoded into one (N, d) probe matrix and scored
against the template matrix with one row kernel whose scores are
bit-identical to the scalar metrics; each chief reads its slice.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import pickle
import select
import signal
import struct
import time
import traceback
import weakref
from dataclasses import dataclass
from itertools import chain, repeat
from typing import NamedTuple, NoReturn, Optional, Sequence

import numpy as np

from . import crypto
from .crypto import KeyPair, SharingConfig
from .encoding import decode_joined, decode_vector, encode_u32, encode_vector, lp
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


class TreeTampered(Exception):
    """A query reached a tree whose stored templates differ from their
    enrollment hashes at ``rows``, in enrollment order."""

    def __init__(self, rows: Sequence[int]):
        self.rows = list(rows)
        super().__init__(f"rows {self.rows} differ from their enrollment hashes")


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
        if not np.isfinite(self.vector).all():
            raise ValueError("template entries must be finite")

    def copy(self) -> "Template":
        return Template(self.identity, self.vector.copy())


def leaf_hash(identity: str, vector: np.ndarray) -> bytes:
    return _leaf_digest(identity, encode_vector(vector))


def _leaf_digest(identity: str, encoded: bytes) -> bytes:
    """A leaf's hash from its identity and its template's
    :func:`encode_vector` bytes."""
    return crypto.digest_parts(_LEAF_HASH_TAG, lp(identity.encode("utf-8")) + encoded)


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
        self._matrix = np.array([t.vector for t in gallery], dtype=np.float64)
        self.vectors = self._matrix.view()  # read-only: write_template writes _matrix
        self.vectors.flags.writeable = False
        self.identities = [t.identity for t in gallery]
        n = len(self.identities)
        self.fanout = fanout
        self.chief_rows = [slice(start, min(start + fanout, n)) for start in range(0, n, fanout)]
        self.keys = keys
        self.leaf_hashes: list[bytes] = []  # enrollment-time, one per row
        self.altered: set[int] = set()  # rows whose leaf hash is not the enrolled one
        self.chief_hash_copies: list[bytes] = []
        self.chief_channels: list[crypto.SymCipher] = []  # one per chief
        self.leaf_channels: list[crypto.SymCipher] = []  # one per row
        self.shards = np.zeros((0, 0, 0), dtype=np.uint8)  # (C, 2 n_max + 1, 64) once set up
        self.weights = np.zeros((0, 0, 1), dtype=np.uint8)  # (C, n_max + 2, 1) once set up
        self.decision_commitments: list[bytes] = []  # one per chief
        self.shares: list[_Share] = []  # who crosses which leaf links, once set up
        self._end_shares: Optional[weakref.finalize] = None
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
        """Store a copy of ``template`` at enrollment position ``index``,
        and mark the row altered unless its leaf hash is the enrolled one.

        Raises:
            DimensionMismatch: the template does not fit a matrix row.
        """
        if template.vector.shape != self.vectors.shape[1:]:
            raise DimensionMismatch(
                f"template {template.identity!r} has {template.vector.shape[0]} values, "
                f"the gallery {self.vectors.shape[1]}"
            )
        self._matrix[index] = template.vector
        self.identities[index] = template.identity
        if leaf_hash(template.identity, template.vector) == self.leaf_hashes[index]:
            self.altered.discard(index)
        else:
            self.altered.add(index)

    def require_intact(self) -> None:
        """Raises :class:`TreeTampered` if a stored template differs from
        its enrollment hash."""
        if self.altered:
            raise TreeTampered(sorted(self.altered))

    def current_leaf_hashes(self, rows: slice) -> list[bytes]:
        """Hashes of one chief's leaves, its ``rows``, recomputed from the
        stored templates, every row encoded in one conversion: the bytes
        :func:`leaf_hash` hashes."""
        header = encode_u32(self.vectors.shape[1])
        return [
            _leaf_digest(identity, header + row.tobytes())
            for identity, row in zip(self.identities[rows], self.vectors[rows].astype(">f8"))
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


# Trees with at least this many links (chiefs plus leaves) deal their
# chiefs in forked worker processes, each share at least half this size.
# On a 2-core Xeon host, two shares broke even between 1,000 and 2,000
# links, varying from run to run: in a warm process, medians of 15
# alternating set-ups in-process against two shares were 281 against
# 301 ms at 1,530 links and 420 against 298 ms at 2,040. 2,500 leaves
# margin, so the 510 links of a 500-template tree stay in-process. Those
# set-ups split every decision secret in the calling process; now that
# each share splits its own, two shares save about 1 ms more per 50-leaf
# chief, which can only lower the break-even and is well inside its
# run-to-run spread, so the constant was not re-tuned.
PARALLEL_MIN_LINKS = 2500


class _ChiefDraws(NamedTuple):
    """What the set-up draws for chief ``c``, whose leaves are ``rows``
    under sharing ``config``: its leaves' and then its own X25519-only
    private keys, its decision secret, and the randomness that splits the
    secret."""

    c: int
    rows: slice
    config: SharingConfig
    agreement: bytes
    secret: bytes
    randomness: bytes


def _agreed_key(sender: crypto.AgreementKey, sender_public: crypto.X25519PublicKey,
                receiver: crypto.AgreementKey, receiver_public: crypto.X25519PublicKey,
                position: bytes) -> bytes:
    """Key establishment for one delegation link, the paper's set-up step:
    each end derives the link key from its own private key and the other
    end's public key, so the key never travels. The key is returned only
    once the two ends' keys are found equal."""
    key = crypto.link_key(sender, receiver_public, position)
    if key != crypto.link_key(receiver, sender_public, position):
        raise crypto.CryptoError(f"the ends of link {position!r} derived different keys")
    return key


def _chief_link_keys(root: crypto.AgreementKey, root_public: crypto.X25519PublicKey,
                     draws: _ChiefDraws) -> list[bytes]:
    """Chief c's link keys: its link to the root, then its link to each
    leaf in its rows. The node keys are parsed from the chief's draw and
    die with it."""
    c, rows = draws.c, draws.rows
    *leaves, chief = crypto.agreement_keys(draws.agreement)
    chief_public = chief.public_key()
    return [_agreed_key(root, root_public, chief, chief_public, b"%d" % c)] + [
        _agreed_key(chief, chief_public, leaf, leaf.public_key(), b"%d/%d" % (c, row))
        for row, leaf in zip(range(rows.start, rows.stop), leaves)]


def _deal(root: crypto.AgreementKey,
          share: Sequence[_ChiefDraws]) -> tuple[list[list[bytes]], np.ndarray, list[bytes]]:
    """One share's contiguous chiefs, dealt from their draws: every chief's
    link keys, its rows of the shard tensor (one
    :func:`crypto.shamir_split_each` over the share, as wide as its largest
    chief's ``2n + 1``), and the commitments to its secrets."""
    root_public = root.public_key()
    keys = [_chief_link_keys(root, root_public, draws) for draws in share]
    shards = crypto.shamir_split_each(
        [draws.secret for draws in share], [draws.randomness for draws in share],
        [draws.config for draws in share])
    return keys, shards, [decision_key_commitment(draws.secret) for draws in share]


def _deal_shares(links: int) -> int:
    """How many processes deal a tree of ``links`` links: one per usable
    CPU, no share below half of :data:`PARALLEL_MIN_LINKS` links; 1 below
    that size, or where ``os.fork`` or CPU affinity is missing."""
    if links < PARALLEL_MIN_LINKS or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), 2 * links // max(PARALLEL_MIN_LINKS, 1))


# A crossing worker that has not answered a request in this many seconds
# is taken for lost, as is one whose reply pipe ends; a share's 2,500 leaf
# links take a few milliseconds to cross.
_REPLY_TIMEOUT_S = 10.0
_U64 = struct.Struct(">Q")  # a dealt share's length, or a request's query number
_REPLY = struct.Struct(">BQ")  # a crossing's status, then its query's number
_CROSSED, _FORGED, _FAILED = range(3)


@dataclass
class _Worker:
    """A forked worker: its process, the write end of its request pipe, the
    read end of its reply pipe, the anonymous shared memory, mapped before
    the fork, into which it writes its share's opened leaf copies, and the
    number of the last query it was asked to cross."""

    pid: int
    requests: int
    replies: int
    copies: mmap.mmap
    asked: int = 0


@dataclass
class _Share:
    """Contiguous ``chiefs``, whose leaves are ``rows``, and the worker that
    crosses their leaf links, or None where this process does."""

    chiefs: slice
    rows: slice
    worker: Optional[_Worker] = None


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _read_exactly(fd: int, n: int) -> bytes:
    """``n`` bytes from ``fd``, or fewer where it ends first."""
    parts = []
    while n:
        part = os.read(fd, n)
        if not part:
            break
        parts.append(part)
        n -= len(part)
    return b"".join(parts)


def _cross_share(at_chiefs: Sequence[bytes], sizes: Sequence[int],
                 channels: Sequence[crypto.SymCipher]) -> bytes:
    """One share's leaf links crossed in one :func:`crypto.sym_cross_each`,
    each leaf's message its chief's opened copy: ``at_chiefs[k]`` for the
    ``sizes[k]`` leaves of the share's chief k. Returns the leaves' opened
    copies laid end to end, in enrollment order. This process runs it for
    the share it crosses, and every crossing worker for its own."""
    return b"".join(crypto.sym_cross_each(
        chain.from_iterable(map(repeat, at_chiefs, sizes)), channels))


def _serve(requests: int, replies: int, copies: mmap.mmap, sizes: Sequence[int],
           channels: Sequence[crypto.SymCipher]) -> None:
    """A crossing worker's loop: read a request (the query's number, then
    the share's chiefs' opened copies of one record size), cross the share
    into ``copies``, reply with a status and the number; until the request
    pipe ends."""
    record = len(copies) // sum(sizes)
    while True:
        request = _read_exactly(requests, _U64.size + record * len(sizes))
        if len(request) < _U64.size + record * len(sizes):
            return
        (number,) = _U64.unpack_from(request)
        at_chiefs = [request[start:start + record]
                     for start in range(_U64.size, len(request), record)]
        try:
            copies[:] = _cross_share(at_chiefs, sizes, channels)
            status = _CROSSED
        except crypto.AuthenticationFailure:
            status = _FORGED
        except Exception:
            status = _FAILED
        _write_all(replies, _REPLY.pack(status, number))


def _work_share(root: crypto.AgreementKey, share: Sequence[_ChiefDraws], requests: int,
                replies: int, copies: mmap.mmap) -> NoReturn:
    """A forked worker's life. It deals its share (:func:`_deal`) and sends
    the pickled result, or the :class:`crypto.CryptoError` that stopped it.
    Having dealt, it closes every descriptor it inherited but its own two
    pipe ends, prepares its share's leaf ciphers and crosses their links
    (:func:`_serve`) until its request pipe ends. It never returns: it
    ends with ``os._exit``, so no inherited writer, such as the ledger
    file, is ever flushed from it."""
    code = 1
    try:
        try:
            dealt = _deal(root, share)
        except crypto.CryptoError as exc:
            dealt = exc
        body = pickle.dumps(dealt)
        _write_all(replies, _U64.pack(len(body)) + body)
        if not isinstance(dealt, crypto.CryptoError):
            low, high = sorted((requests, replies))
            os.closerange(0, low)
            os.closerange(low + 1, high)
            os.closerange(high + 1, os.sysconf("SC_OPEN_MAX"))
            channels = [crypto.SymCipher(key) for chief in dealt[0] for key in chief[1:]]
            _serve(requests, replies, copies,
                   [draws.rows.stop - draws.rows.start for draws in share], channels)
        code = 0
    except BaseException:
        traceback.print_exc()  # to standard error while it is still open
    finally:
        os._exit(code)


def _fork_worker(root: crypto.AgreementKey, share: Sequence[_ChiefDraws], record: int) -> _Worker:
    """Fork the worker of ``share``, whose leaves' copies are ``record``
    bytes each."""
    copies = mmap.mmap(-1, record * sum(draws.config.n for draws in share))
    requests, request_end = os.pipe()
    reply_end, replies = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (requests, request_end, reply_end, replies):
            os.close(fd)
        copies.close()
        raise
    if pid == 0:
        _work_share(root, share, requests, replies, copies)
    os.close(requests)
    os.close(replies)
    return _Worker(pid, request_end, reply_end, copies)


def _dealt_by(worker: _Worker):
    """What ``worker`` dealt, as :func:`_deal` returns it.

    Raises:
        crypto.CryptoError: the worker's, or it ended without a result.
    """
    header = _read_exactly(worker.replies, _U64.size)
    length = _U64.unpack(header)[0] if len(header) == _U64.size else -1
    body = _read_exactly(worker.replies, max(length, 0))
    if len(body) != length:
        raise crypto.CryptoError("a key-set-up worker ended without a result")
    dealt = pickle.loads(body)
    if isinstance(dealt, crypto.CryptoError):
        raise dealt
    return dealt


def _stop(workers: Sequence[_Worker]) -> None:
    """End and reap ``workers``: each exits at the end of its request pipe,
    and its reply pipe, drained meanwhile, then ends; one whose reply pipe
    has not ended within :data:`_REPLY_TIMEOUT_S` is killed."""
    running = {}
    poller = select.poll()
    for worker in workers:
        os.close(worker.requests)
        running[worker.replies] = worker
        poller.register(worker.replies, select.POLLIN)
    deadline = time.monotonic() + _REPLY_TIMEOUT_S
    while running and (ready := poller.poll(max(0, int(1e3 * (deadline - time.monotonic()))))):
        for fd, _ in ready:
            if not os.read(fd, 1 << 16):
                poller.unregister(fd)
                del running[fd]
    for worker in workers:
        if worker.replies in running:
            with contextlib.suppress(ProcessLookupError):
                os.kill(worker.pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(worker.pid, 0)
        os.close(worker.replies)
        worker.copies.close()


def _stop_shares(owner: int, shares: Sequence[_Share]) -> None:
    """The tree's finalizer: stop its crossing workers, in the process
    ``owner`` that forked them only."""
    if os.getpid() == owner:
        _stop([share.worker for share in shares if share.worker is not None])


def _deal_all(root: crypto.AgreementKey, draws: list[_ChiefDraws],
              record: int) -> tuple[list, list[_Share]]:
    """Every chief dealt by :func:`_deal`, one result per share, in chief
    order, and the shares.

    A large tree's chiefs are cut into contiguous shares
    (:func:`_deal_shares`): ``fork`` workers take all but the last, which
    this process deals meanwhile. A forked worker reads the root's key and
    the draws in the memory it was forked with, sends back only what it
    dealt, and then stays, as its share's crossing worker, until the tree
    that owns it ends it (:func:`_work_share`). It runs X25519, HKDF,
    SHA-256, numpy element-wise gathers and AES-GCM, and no BLAS routine.
    A worker's :class:`crypto.CryptoError` is raised here once this
    process's share is done; a worker that ends without sending, its
    traceback on standard error, is a :class:`crypto.CryptoError` too.
    Either way, and on any other failure, every worker is ended first."""
    shares = _deal_shares(sum(d.config.n + 1 for d in draws))
    bounds = [len(draws) * k // shares for k in range(shares + 1)]
    cut = [_Share(slice(start, stop), slice(draws[start].rows.start, draws[stop - 1].rows.stop))
           for start, stop in zip(bounds[:-1], bounds[1:])]
    try:
        for share in cut[:-1]:
            share.worker = _fork_worker(root, draws[share.chiefs], record)
        own = _deal(root, draws[cut[-1].chiefs])
        return [_dealt_by(share.worker) for share in cut[:-1]] + [own], cut
    except BaseException:
        _stop([share.worker for share in cut if share.worker is not None])
        raise


def setup_tree_keys(tree: MatcherTree, rng: Optional[np.random.Generator] = None) -> None:
    """The tree's key set-up, drawn from ``rng`` chief by chief: in one
    draw, X25519-only private keys for its leaves and then itself; then its
    decision secret; then the randomness that splits the secret into its
    rows of ``tree.shards``, the secret kept only as a commitment. Each
    link's cipher is keyed by static-static agreement between its ends,
    bound to its position: ``b"c"`` for chief c's link to the root,
    ``b"c/i"`` for its link to the leaf in row i. Each chief's full pool,
    at points ``1..n+2``, gets its Lagrange weights here, built once per
    distinct group size. No node key outlives the set-up; only a query
    reads any of it.

    Every draw is made first, in draw order; then each share of contiguous
    chiefs agrees its links, deals its secrets and commits to them
    (:func:`_deal_all`), in forked workers for a tree of at least
    :data:`PARALLEL_MIN_LINKS` links, to the same bytes either way; then
    the ciphers are prepared. The tree is changed only once every share
    has been dealt. It then owns the shares in ``tree.shares``, the forked
    workers staying as their shares' crossing workers until the tree is
    collected or set up again, which ends them (a failed set-up ends its
    own workers, and keeps the earlier ones).

    Raises:
        crypto.CryptoError: the two ends of a link derived different keys,
            or a forked worker failed.
    """
    configs = [SharingConfig.for_group(rows.stop - rows.start) for rows in tree.chief_rows]
    draws = [_ChiefDraws(
        c, rows, config,
        crypto.random_bytes(rng, crypto.KEY_HALF_LEN * (config.n + 1)),
        crypto.random_bytes(rng, _DECISION_SECRET_LEN),
        crypto.random_bytes(rng, (config.threshold - 1) * _DECISION_SECRET_LEN),
    ) for c, (rows, config) in enumerate(zip(tree.chief_rows, configs))]
    dealt, shares = _deal_all(tree.keys.decryption_key, draws, len(encode_vector(tree.vectors[0])))
    try:
        keys, shards, commitments = zip(*dealt)
        # The first chief is the largest: its shards and its pool set the widths.
        width = configs[0].total
        shards = np.concatenate([np.pad(held, ((0, 0), (0, width - held.shape[1]), (0, 0)))
                                 for held in shards])
        columns = {config: crypto.lagrange_weights(tuple(range(1, config.threshold + 1)),
                                                   config, configs[0].threshold)
                   for config in dict.fromkeys(configs)}
        keys = list(chain.from_iterable(keys))
        chief_channels = [crypto.SymCipher(chief[0]) for chief in keys]
        leaf_channels = [crypto.SymCipher(key) for chief in keys for key in chief[1:]]
    except BaseException:
        _stop_shares(os.getpid(), shares)
        raise
    if tree._end_shares is not None:
        tree._end_shares()  # the workers of an earlier set-up
    tree.shards, tree.chief_channels, tree.leaf_channels = shards, chief_channels, leaf_channels
    tree.decision_commitments = list(chain.from_iterable(commitments))
    tree.weights = np.array([columns[config] for config in configs])
    tree.shares = shares
    tree._end_shares = weakref.finalize(tree, _stop_shares, os.getpid(), shares)


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


def _best_rows(tree: MatcherTree, scores: np.ndarray) -> np.ndarray:
    """Each chief's row with the best (lowest) of the tree's (N,) leaf
    scores, ties to the lowest row."""
    # +inf pads a short last chief; argmin takes the first of equal minima.
    padded = np.full(len(tree.chief_rows) * tree.fanout, np.inf)
    padded[:len(scores)] = scores
    starts = np.arange(0, len(scores), tree.fanout)
    return starts + np.argmin(padded.reshape(-1, tree.fanout), axis=1)


def chief_drafts(tree: MatcherTree, scores: np.ndarray) -> list[DecisionDocument]:
    """Every chief's draft path decision, read from the tree's (N,) leaf
    scores: the identity among its leaves with the best (lowest) score,
    ties broken by lowest leaf index. Entry c is chief c's."""
    return [_leaf_document(tree, scores, row) for row in _best_rows(tree, scores).tolist()]


def collect_consent(
    tree: MatcherTree, documents: Sequence[DecisionDocument], scores: np.ndarray
) -> np.ndarray:
    """Ask every leaf to endorse its chief's document; returns the dissent
    mask over the tree's N rows. A leaf consents, adding its shard to the
    pool, when the document's score is at least as good as its own and the
    document is attested: a leaf among the chief's rows holds the named
    identity with exactly the claimed score. Every leaf of a chief whose
    document is not attested dissents, so a chief cannot win with a score
    that none of its leaves holds."""
    drafted = np.repeat([document.score for document in documents], tree.fanout)[:len(scores)]
    # Only a row holding its chief's claimed score can attest; its identity
    # is compared there alone.
    claimed = np.flatnonzero(drafted == scores)
    chiefs = claimed // tree.fanout
    named = np.array([document.identity for document in documents], dtype=object)[chiefs]
    held = np.array(list(map(tree.identities.__getitem__, claimed.tolist())), dtype=object)
    attested = np.zeros(len(documents), dtype=bool)
    attested[chiefs[named == held]] = True
    # Negated rather than ">" so an incomparable (NaN) score also dissents.
    return ~(drafted <= scores) | ~np.repeat(attested, tree.fanout)[:len(scores)]


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
    accepted: np.ndarray,
) -> list[DecisionDocument]:
    """The path decisions: every accepted document, and for every other
    chief the decision re-derived from all of its leaves' scores, the
    best one, ties to the lowest leaf index. No document of a scrutinized
    chief stands on its own word."""
    decisions = list(documents)
    best = _best_rows(tree, scores)
    for chief_index in np.flatnonzero(~accepted).tolist():
        decisions[chief_index] = _leaf_document(tree, scores, int(best[chief_index]))
    return decisions


# ---------------------------------------------------------------------------
# Identification
# ---------------------------------------------------------------------------

def _cross_leaves(tree: MatcherTree, at_chiefs: Sequence[bytes]) -> bytes:
    """Every leaf link of ``tree`` crossed, chief c's leaves carrying
    ``at_chiefs[c]``: the leaves' opened copies laid end to end, in
    enrollment order.

    Each share's worker is sent its chiefs' copies under a fresh query
    number while this process crosses every share without one; then every
    worker's reply is awaited, one carrying an earlier number skipped, and
    its copies read from its shared memory. A worker that cannot be asked,
    ends, or does not answer in time is ended and its share crossed here
    from the next query on, under the ciphers this process holds. A
    tree's queries must not overlap: a worker answers its requests in turn.

    Raises:
        crypto.AuthenticationFailure: a copy fails its link's tag.
        crypto.CryptoError: a worker was lost or failed.
    """
    sizes = [rows.stop - rows.start for rows in tree.chief_rows]
    asked, lost, statuses = [], [], []
    for share in tree.shares:
        if share.worker is not None:
            share.worker.asked += 1
            try:
                _write_all(share.worker.requests,
                           _U64.pack(share.worker.asked) + b"".join(at_chiefs[share.chiefs]))
                asked.append(share)
            except OSError:
                lost.append(share)
    crossed = {}
    try:
        for share in tree.shares:
            if share.worker is None:
                crossed[share.chiefs.start] = _cross_share(
                    at_chiefs[share.chiefs], sizes[share.chiefs], tree.leaf_channels[share.rows])
    finally:
        for share in asked:
            status = _reply(share.worker)
            if status is None:
                lost.append(share)
            elif status == _CROSSED:
                crossed[share.chiefs.start] = share.worker.copies[:]
            statuses.append(status)
        for share in lost:
            _stop([share.worker])
            share.worker = None
    if lost:
        raise crypto.CryptoError(f"{len(lost)} crossing workers were lost; "
                                 "their shares are crossed in this process from now on")
    if _FORGED in statuses:
        raise crypto.AuthenticationFailure("authentication tag mismatch")
    if _FAILED in statuses:
        raise crypto.CryptoError("a crossing worker failed")
    return b"".join(crossed[share.chiefs.start] for share in tree.shares)


def _reply(worker: _Worker) -> Optional[int]:
    """The status ``worker`` replies for the last query it was asked to
    cross; None once it ends, or has not replied within
    :data:`_REPLY_TIMEOUT_S`."""
    poller = select.poll()
    poller.register(worker.replies, select.POLLIN)
    deadline = time.monotonic() + _REPLY_TIMEOUT_S
    while poller.poll(max(0, int(1e3 * (deadline - time.monotonic())))):
        reply = _read_exactly(worker.replies, _REPLY.size)
        if len(reply) < _REPLY.size:
            return None
        status, answered = _REPLY.unpack(reply)
        if answered == worker.asked:
            return status
    return None


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
        TreeTampered: a stored template differs from its enrollment hash.
        KeysNotSetUp: the tree holds only its hash structure.
        crypto.DecryptionFailure: payload not addressed to this tree.
        crypto.AuthenticationFailure: the envelope's ``ed`` or a delegated
            copy fails its tag.
        crypto.CryptoError: a crossing worker was lost or failed
            (:func:`_cross_leaves`).
        ValueError: the probe's length header disagrees with its size.
        DimensionMismatch: probe dimension differs from the gallery's.
        ZeroVector: a zero-norm probe or template under cosine.
        NonFiniteFeature: the probe, or a score of it, is NaN or infinite.
    """
    tree.require_intact()
    if not tree.chief_channels:
        raise KeysNotSetUp("the tree has no node keys; run setup_tree_keys before querying")
    t0 = time.perf_counter()
    probe_bytes = crypto.open_envelope(envelope, tree.keys)
    # The root parses its own copy first: a record of another size or
    # dimension crosses no link, so every copy fits the crossing buffers.
    dim = decode_vector(probe_bytes).shape[0]
    if dim != tree.vectors.shape[1]:
        raise DimensionMismatch(f"a probe of dimension {dim} against templates of dimension "
                                f"{tree.vectors.shape[1]}")

    # Fan the probe down the encrypted channels, one crossing per link set:
    # root to chiefs, then chiefs to leaves, each leaf's message its chief's
    # opened copy. Every leaf authenticates its own copy, and row i of the
    # probe matrix is parsed from leaf i's copy, in enrollment order.
    at_chiefs = crypto.sym_cross_each(repeat(probe_bytes, len(tree.chief_rows)),
                                      tree.chief_channels)
    probes = decode_joined(_cross_leaves(tree, at_chiefs), len(probe_bytes))
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
    decisions = root_scrutinize(tree, documents, all_scores, accepted)
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

