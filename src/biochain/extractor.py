"""Feature extraction as a hash-linked chain of computation stages.

Each stage of the pipeline (a dense map, a convolution, a pooling step,
or a bare activation) lives in its own block. A block's hash binds the
hash of the block before it together with a canonical serialization of
its numeric parameters, so changing any parameter anywhere shifts every
hash downstream of it, ending at the notary. The notary is the terminal
block: it has no parameters of its own (its hash depends only on the last
stage's hash), holds the route of block public keys in execution order,
and mediates every step of a query.

A query cycle runs entirely through the ledger:

1. The captured input arrives encrypted to the notary, which opens the
   cycle, re-encrypts the data under its own symmetric key, wraps that
   key and an encrypted turn marker for the first block, and signs the
   update. Every hop wraps its key and marker under one encapsulation,
   one ephemeral key, so the recipient opens both from one exchange.
2. Each block polls the newest entry. One opener, :func:`_open_hop`,
   authenticates every hop, the notary's too: the block acts only if the
   turn marker decrypts under its private key, and refuses outright if the
   update was not signed by the notary, or if its key was not sealed with
   its marker (fields of two hops spliced together). It then runs its
   stage and publishes the result wrapped back to the notary, signed
   with its own key. The sequential driver, :func:`run_query_cycle`,
   polls the blocks for hop ``k`` in the order ``k, k+1, ..., 0, ...,
   k-1``: every block still tries the marker and refuses one it cannot
   open, and only one key opens it, so the block that acts is the same as
   in any other order; in an honest cycle it is found on the first trial.
3. The notary forwards the output to the next block in the route, and
   after the last stage hands the finished feature vector off encrypted
   to the matching tree's root key, closing the cycle.

Detection and recovery work against a stable snapshot taken at
enrollment: recomputing the hash recurrence over current parameters and
comparing against the snapshot locates the first tampered block, and
restoring that block's parameters from the snapshot returns the chain to
its stable state.
"""

from __future__ import annotations

import secrets
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import crypto
from .crypto import DecryptionFailure, KeyPair
from .encoding import (
    ByteReader, decode_vector, encode_f64_array, encode_u32, encode_vector, lp, write_atomic,
)
from .ledger import Ledger, LedgerEntry

GENESIS_DIGEST = crypto.digest(b"biochain/genesis/v1")

_BLOCK_HASH_TAG = b"biochain/block-hash/v1"
_NOTARY_HASH_TAG = b"biochain/notary-hash/v1"

# Public protocol constants. Both are concatenated with the cycle nonce,
# so a recorded message from one cycle cannot be replayed into another.
TURN_MARKER = b"biochain/your-turn/v1"
AUTH_MESSAGE = b"biochain/notarized/v1"


class ShapeMismatch(Exception):
    pass


class SignatureRejected(Exception):
    """An update claimed authority it could not prove; the protocol stops."""


class IntegrityFailure(Exception):
    """The chain failed verification before a cycle could start."""


class NoSnapshot(Exception):
    pass


class IndexOutOfRange(Exception):
    pass


# ---------------------------------------------------------------------------
# Stage parameters and stage math
# ---------------------------------------------------------------------------

ACTIVATIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "linear": lambda x: x,
    "relu": lambda x: np.maximum(x, 0.0),
    "tanh": np.tanh,
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
}

STAGE_KINDS = ("dense", "convolution", "pooling", "activation")


@dataclass
class StageParams:
    """Parameters of one pipeline stage.

    dense:        weights (out, in), bias (out,), activation
    convolution:  weights (k,) used as a valid 1-D cross-correlation
                  kernel, bias (1,), activation
    pooling:      pool_size, non-overlapping max windows (remainder
                  samples are dropped)
    activation:   activation only
    """

    kind: str
    weights: Optional[np.ndarray] = None
    bias: Optional[np.ndarray] = None
    activation: str = "linear"
    pool_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in STAGE_KINDS:
            raise ValueError(f"unknown stage kind {self.kind!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.kind == "dense":
            if self.weights is None or self.weights.ndim != 2:
                raise ValueError("dense stage needs a 2-D weight matrix")
            if self.bias is None:
                self.bias = np.zeros(self.weights.shape[0])
            if self.bias.shape != (self.weights.shape[0],):
                raise ValueError("dense bias shape must match output dimension")
        elif self.kind == "convolution":
            if self.weights is None or self.weights.ndim != 1:
                raise ValueError("convolution stage needs a 1-D kernel")
            if self.bias is None:
                self.bias = np.zeros(1)
            if self.bias.shape != (1,):
                raise ValueError("convolution bias must be a single value")
        elif self.kind == "pooling":
            if self.pool_size is None or self.pool_size < 1:
                raise ValueError("pooling stage needs pool_size >= 1")

    def canonical_bytes(self) -> bytes:
        """Deterministic serialization used for hashing and snapshots."""
        parts = [
            lp(self.kind.encode("utf-8")),
            lp(self.activation.encode("utf-8")),
            encode_u32(self.pool_size or 0),
        ]
        for arr in (self.weights, self.bias):
            if arr is None:
                parts.append(encode_u32(0))
            else:
                parts.append(encode_u32(1))
                parts.append(encode_f64_array(arr))
        return b"".join(parts)

    @classmethod
    def from_canonical(cls, data: bytes) -> "StageParams":
        reader = ByteReader(data)
        kind = reader.read_lp().decode("utf-8")
        activation = reader.read_lp().decode("utf-8")
        pool_size = reader.read_u32() or None
        arrays: list[Optional[np.ndarray]] = []
        for _ in range(2):
            arrays.append(reader.read_f64_array() if reader.read_u32() else None)
        if not reader.exhausted:
            raise ValueError("trailing bytes after the stage parameters")
        return cls(
            kind=kind,
            weights=arrays[0],
            bias=arrays[1],
            activation=activation,
            pool_size=pool_size,
        )


def apply_stage(x: np.ndarray, params: StageParams) -> np.ndarray:
    """Run one stage forward on a 1-D input vector.

    Raises:
        ShapeMismatch: input incompatible with the stage parameters.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeMismatch(f"stages operate on 1-D vectors, got shape {x.shape}")
    act = ACTIVATIONS[params.activation]
    if params.kind == "dense":
        if x.shape[0] != params.weights.shape[1]:
            raise ShapeMismatch(
                f"dense stage expects {params.weights.shape[1]} inputs, got {x.shape[0]}"
            )
        return act(params.weights @ x + params.bias)
    if params.kind == "convolution":
        k = params.weights.shape[0]
        if x.shape[0] < k:
            raise ShapeMismatch(f"input shorter than kernel ({x.shape[0]} < {k})")
        out = np.correlate(x, params.weights, mode="valid") + params.bias[0]
        return act(out)
    if params.kind == "pooling":
        size = params.pool_size
        windows = x.shape[0] // size
        if windows < 1:
            raise ShapeMismatch(f"input shorter than pool window ({x.shape[0]} < {size})")
        return x[: windows * size].reshape(windows, size).max(axis=1)
    return act(x)


# ---------------------------------------------------------------------------
# Hashing
# ---------------------------------------------------------------------------

def compute_block_hash(prev_hash: bytes, params: StageParams) -> bytes:
    """Hash of a stage block: binds the previous hash and the canonical
    parameter bytes."""
    return crypto.digest_parts(_BLOCK_HASH_TAG, prev_hash, params.canonical_bytes())


def compute_notary_hash(prev_hash: bytes) -> bytes:
    """Hash of the notary: a tagged function of the last stage hash only."""
    return crypto.digest_parts(_NOTARY_HASH_TAG, prev_hash)


def chain_hashes(stages: Iterable[StageParams]) -> Iterator[bytes]:
    """The chained recurrence: every stage block's hash in order, then the
    notary's. Hashes are computed as they are drawn."""
    prev = GENESIS_DIGEST
    for params in stages:
        prev = compute_block_hash(prev, params)
        yield prev
    yield compute_notary_hash(prev)


# ---------------------------------------------------------------------------
# Blocks, notary, snapshot, chain
# ---------------------------------------------------------------------------

@dataclass
class ExtractorBlock:
    index: int
    params: StageParams
    keys: KeyPair
    sym_key: bytes
    notary_public: bytes


@dataclass
class NotaryBlock:
    keys: KeyPair
    sym_key: bytes
    route: list[bytes]
    matcher_root_public: bytes
    progress: dict[str, int] = field(default_factory=dict)


@dataclass
class StableSnapshot:
    """Enrollment-time record of every block hash and parameter blob."""

    blocks: list[tuple[int, bytes, bytes]]  # (index, hash, canonical params)
    notary_hash: bytes
    timestamp: float

    def self_check(self) -> bool:
        """Recompute every hash from the stored parameters; False when one
        differs or a parameter blob does not parse."""
        try:
            stages = [StageParams.from_canonical(params) for _, _, params in self.blocks]
        except ValueError:
            return False
        return list(chain_hashes(stages)) == [h for _, h, _ in self.blocks] + [self.notary_hash]

    def to_bytes(self) -> bytes:
        parts = [encode_u32(len(self.blocks))]
        for index, h, pb in self.blocks:
            parts.append(encode_u32(index))
            parts.append(lp(h))
            parts.append(lp(pb))
        parts.append(lp(self.notary_hash))
        parts.append(encode_f64_array(np.array([self.timestamp])))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "StableSnapshot":
        """Invert :meth:`to_bytes`.

        Raises:
            ValueError: the record is truncated, holds trailing bytes, stores
                a block under an index other than its position, or its
                timestamp is not a single value.
        """
        reader = ByteReader(data)
        count = reader.read_u32()
        blocks = []
        for position in range(count):
            if reader.read_u32() != position:
                raise ValueError(f"snapshot block {position} is stored under another index")
            blocks.append((position, reader.read_lp(), reader.read_lp()))
        notary_hash = reader.read_lp()
        timestamp = reader.read_f64_array()
        if timestamp.shape != (1,) or not reader.exhausted:
            raise ValueError("malformed snapshot record")
        return cls(blocks=blocks, notary_hash=notary_hash, timestamp=float(timestamp[0]))

    def save(self, path: Path) -> None:
        write_atomic(path, self.to_bytes())

    @classmethod
    def load(cls, path: Path) -> "StableSnapshot":
        return cls.from_bytes(Path(path).read_bytes())


class ExtractorChain:
    """An ordered chain of stage blocks plus its notary."""

    def __init__(self, blocks: list[ExtractorBlock], notary: NotaryBlock):
        self.blocks = blocks
        self.notary = notary
        self.snapshot: Optional[StableSnapshot] = None

    @classmethod
    def build(
        cls,
        stages: Sequence[StageParams],
        matcher_root_public: bytes,
        rng: Optional[np.random.Generator] = None,
    ) -> "ExtractorChain":
        if not stages:
            raise ValueError("a chain needs at least one stage")
        notary_keys = crypto.generate_keypair(rng)
        blocks = []
        for i, params in enumerate(stages):
            blocks.append(
                ExtractorBlock(
                    index=i,
                    params=params,
                    keys=crypto.generate_keypair(rng),
                    sym_key=crypto.generate_sym_key(rng),
                    notary_public=notary_keys.public,
                )
            )
        notary = NotaryBlock(
            keys=notary_keys,
            sym_key=crypto.generate_sym_key(rng),
            route=[b.keys.public for b in blocks],
            matcher_root_public=matcher_root_public,
        )
        return cls(blocks=blocks, notary=notary)

    def take_snapshot(self) -> StableSnapshot:
        """Record the current state as the stable reference."""
        *hashes, notary_hash = chain_hashes(b.params for b in self.blocks)
        self.snapshot = StableSnapshot(
            blocks=[(b.index, h, b.params.canonical_bytes()) for b, h in zip(self.blocks, hashes)],
            notary_hash=notary_hash,
            timestamp=time.time(),
        )
        return self.snapshot

    def verify(self) -> Optional[int]:
        """Compare current hashes against the snapshot.

        Returns the smallest block index at which the chain and the
        snapshot disagree, or None when the chain is intact. They disagree
        at a block whose recomputed hash differs from its snapshot value,
        and at the first block present on one side only (a stage added to
        or removed from the chain).

        Raises:
            NoSnapshot: no stable snapshot has been taken.
        """
        if self.snapshot is None:
            raise NoSnapshot("take_snapshot has not been called")
        stored = [stored_hash for _, stored_hash, _ in self.snapshot.blocks]
        current = chain_hashes(block.params for block in self.blocks)
        for i, then in enumerate(stored[:len(self.blocks)]):
            if next(current) != then:
                return i
        if len(self.blocks) != len(stored):
            return min(len(self.blocks), len(stored))
        return None


def compose_stages(stages: Sequence[StageParams], x: np.ndarray) -> np.ndarray:
    """Plain sequential forward pass, no protocol involved."""
    out = np.asarray(x, dtype=np.float64)
    for params in stages:
        out = apply_stage(out, params)
    return out


# ---------------------------------------------------------------------------
# Query-cycle protocol
# ---------------------------------------------------------------------------

def _turn_token(cycle_id: str) -> bytes:
    return TURN_MARKER + cycle_id.encode("utf-8")


def _auth_token(cycle_id: str) -> bytes:
    return AUTH_MESSAGE + cycle_id.encode("utf-8")


def _publish(
    ledger: Ledger,
    cycle_id: str,
    payload: bytes,
    sym_key: bytes,
    recipient: bytes,
    signer: KeyPair,
) -> LedgerEntry:
    """Append one hop: the payload under the sender's symmetric key, that
    key and the turn marker wrapped for the recipient under one
    encapsulation, and the sender's signature over the cycle-bound
    message."""
    ek, em = crypto.asym_encrypt_each([sym_key, _turn_token(cycle_id)], recipient)
    return ledger.append(
        cycle_id,
        ed=crypto.sym_encrypt(payload, sym_key),
        ek=ek,
        em=em,
        sig=crypto.sign(signer, _auth_token(cycle_id)),
    )


def _open_hop(
    ledger: Ledger, cycle_id: str, keys: KeyPair, sender: bytes, signer: str
) -> Optional[bytes]:
    """Open the newest hop of a cycle with ``keys``: the one path that
    authenticates a hop. Returns its payload, or None when its marker opens
    to another token than this cycle's.

    Raises:
        DecryptionFailure: the marker was not sealed to ``keys``.
        SignatureRejected: ``sender`` (``signer`` in the message) did not
            sign the hop, or its key was not sealed with its marker.
    """
    entry = ledger.latest(cycle_id)
    opened = crypto.asym_decrypt_each([entry.em, entry.ek], keys)
    if next(opened) != _turn_token(cycle_id):
        return None
    if not crypto.verify(sender, entry.sig, _auth_token(cycle_id)):
        raise SignatureRejected(f"update not signed by {signer}")
    try:
        return crypto.sym_decrypt(entry.ed, next(opened))
    except DecryptionFailure as exc:
        raise SignatureRejected("the hop's key was not sealed with its turn marker") from exc


def notary_begin_cycle(
    notary: NotaryBlock, ledger: Ledger, captured: bytes
) -> LedgerEntry:
    """Open a new query cycle from an encrypted capture.

    Appends the initiation entry (the capture as received) and the first
    full update: payload re-encrypted under the notary's symmetric key,
    that key wrapped for the first block, a turn marker for the first
    block, and the notary's signature over the cycle-bound message.

    Raises:
        DecryptionFailure: the capture was not encrypted to the notary.
    """
    x0 = crypto.asym_decrypt(captured, notary.keys)
    cycle_id = secrets.token_hex(16)
    ledger.append(cycle_id, ed=captured)
    entry = _publish(ledger, cycle_id, x0, notary.sym_key, notary.route[0], notary.keys)
    notary.progress[cycle_id] = 0
    return entry


def block_handle_update(
    block: ExtractorBlock, ledger: Ledger, cycle_id: str
) -> Optional[LedgerEntry]:
    """Let one block examine the newest update of a cycle.

    Returns None when the turn marker does not open to this cycle's token
    for this block (the update is someone else's turn). If the marker
    matches but :func:`_open_hop` finds the update was not signed by the
    notary, or its key was not sealed with its marker, the block refuses.

    Raises:
        SignatureRejected: marker matched but the notary signature did not
            verify, or the key was not sealed with the marker; no entry is
            appended.
    """
    try:
        payload = _open_hop(ledger, cycle_id, block.keys, block.notary_public, "the notary")
    except DecryptionFailure:
        return None
    if payload is None:
        return None
    out = apply_stage(decode_vector(payload), block.params)
    return _publish(
        ledger, cycle_id, encode_vector(out), block.sym_key, block.notary_public, block.keys
    )


def notary_handle_update(
    notary: NotaryBlock, ledger: Ledger, cycle_id: str
) -> LedgerEntry:
    """Let the notary consume a block's update and route the next hop.

    The newest entry must carry a turn marker for the notary and a valid
    signature from the block whose turn it was. The payload moves on to
    the next block in the route, or, after the final stage, out to the
    matching tree's root key, which finalizes the cycle.

    Raises:
        SignatureRejected: the marker is stale or foreign, the update was
            not signed by the expected block, or its key was not sealed with
            its marker.
        DecryptionFailure: the update was not addressed to the notary.
    """
    pos = notary.progress[cycle_id]
    payload = _open_hop(ledger, cycle_id, notary.keys, notary.route[pos], f"block {pos}")
    if payload is None:
        raise SignatureRejected("stale or foreign turn marker")
    pos += 1
    notary.progress[cycle_id] = pos
    last_hop = pos == len(notary.route)
    recipient = notary.matcher_root_public if last_hop else notary.route[pos]
    result = _publish(ledger, cycle_id, payload, notary.sym_key, recipient, notary.keys)
    if last_hop:
        ledger.close_cycle(cycle_id)
        del notary.progress[cycle_id]
    return result


def run_query_cycle(
    chain: ExtractorChain, ledger: Ledger, raw_input: np.ndarray
) -> LedgerEntry:
    """Drive one full query cycle and return the final handoff entry.

    The returned entry's payload is the feature vector encrypted to the
    matching tree's root key. The chain must verify intact against its
    snapshot before the cycle starts. A cycle that fails after it opens
    (a bad probe, a rejected update) is closed before the error
    propagates, so it cannot block later cycles on the same ledger.

    Raises:
        IntegrityFailure: the chain failed its pre-check.
        SignatureRejected: a protocol step saw an illegitimate update.
        crypto.AuthenticationFailure: a hop's ``ed`` fails its tag under
            the key sealed with its marker.
        ShapeMismatch: the input does not fit a stage.
    """
    if chain.verify() is not None:
        raise IntegrityFailure("chain does not match its stable snapshot")
    captured = crypto.asym_encrypt(
        encode_vector(np.asarray(raw_input, dtype=np.float64)),
        chain.notary.keys.public,
    )
    entry = notary_begin_cycle(chain.notary, ledger, captured)
    cycle_id = entry.cycle_id
    try:
        for hop in range(len(chain.blocks)):
            # The hop's own block first: in an honest cycle it is the one
            # whose key opens the marker, so it acts on the first trial.
            acted = None
            for block in chain.blocks[hop:] + chain.blocks[:hop]:
                acted = block_handle_update(block, ledger, cycle_id)
                if acted is not None:
                    break
            if acted is None:
                raise SignatureRejected("no block recognized the pending update")
            entry = notary_handle_update(chain.notary, ledger, cycle_id)
    except BaseException:
        ledger.close_cycle(cycle_id)
        chain.notary.progress.pop(cycle_id, None)
        raise
    return entry


def handoff_envelope(entry: LedgerEntry) -> crypto.Envelope:
    """View a ledger entry as the envelope for its intended recipient."""
    return crypto.Envelope(ed=entry.ed, ek=entry.ek)
