"""Cryptographic primitives: hashing, authenticated symmetric encryption,
public-key encryption, signatures, and threshold secret sharing.

Concrete choices (the rest of the package depends only on the contracts):

* hashing        SHA-256 (32-byte digests)
* symmetric      AES-256-GCM; decrypting with the wrong key or a modified
                 ciphertext fails the authentication tag.
                 :func:`sym_cross_each` crosses a set of links in one
                 call, one prepared cipher and fresh random nonce per
                 link, each copy opened as soon as it is sealed; the
                 one-message forms are :func:`sym_encrypt`/:func:`sym_decrypt`
* asymmetric     ephemeral X25519 + HKDF-SHA256 + AES-256-GCM, bounded to
                 short payloads (it carries wrapped keys and control
                 messages, never bulk data). One ephemeral key may seal
                 several messages to one recipient under one HKDF key
                 (:func:`asym_encrypt_each`), each under its own random
                 96-bit nonce: AES-GCM's requirement that a key never
                 repeat a nonce then holds with probability 1 - 2^-96 per
                 pair of messages. The recipient opens them all from one
                 exchange (:func:`asym_decrypt_each`);
                 :func:`asym_encrypt` and :func:`asym_decrypt` are the
                 one-message forms
* key agreement  static-static X25519 + HKDF-SHA256 (:func:`link_key`)
* signatures     Ed25519
* secret sharing byte-wise polynomial sharing over GF(2^8) with
                 index-tagged shards, dealt several secrets at a time
                 from pre-drawn randomness (:func:`shamir_split_each`;
                 :func:`shamir_split` is the one-secret form, drawing its
                 own) and recombined a stack of pools at a time
                 (:func:`shamir_reconstruct` is the one-pool form);
                 a caller checks a reconstruction against a SHA-256
                 commitment to the secret (:func:`digest_parts` under its
                 own tag), one hash that catches any differing byte

A :class:`KeyPair` bundles an encryption half and a signing half so a
single party identity can both receive wrapped keys and sign messages.

Each operation takes one form of its key. The ``asym_decrypt`` calls,
:func:`open_envelope` and :func:`sign` take a :class:`KeyPair`, which
parses its private halves on first use and keeps them, because parsing a
private key computes its public point, a full scalar multiplication;
nothing else keeps state between calls. :func:`sym_encrypt` and
:func:`sym_decrypt` take raw key bytes, the link-set calls prepared ciphers.

Pass a seeded ``numpy.random.Generator`` to the generators when
reproducible key material is needed (enrollment does this so a
deployment can be rebuilt from its seed).
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .encoding import lp

DIGEST_LEN = 32
SYM_KEY_LEN = 32
SYM_NONCE_LEN = 12
KEY_HALF_LEN = 32

# The asymmetric channel carries symmetric keys and short control
# messages only; anything larger belongs in a symmetric payload.
ASYM_MAX_PAYLOAD = 1024

_ECIES_INFO = b"biochain/ecies/v1"
_LINK_INFO = b"biochain/link-key/v1"


class CryptoError(Exception):
    """Base class for all failures raised by this module."""


class AuthenticationFailure(CryptoError):
    """Symmetric decryption failed its authentication check."""


class DecryptionFailure(CryptoError):
    """Asymmetric decryption failed (wrong key or damaged ciphertext)."""


class MixedEncapsulation(DecryptionFailure):
    """Ciphertexts opened as one encapsulation carry different ephemeral keys."""


class PayloadTooLarge(CryptoError):
    """Asymmetric payload exceeds the declared bound."""


class InvalidConfig(CryptoError):
    """A configuration violates its own arithmetic constraints."""


class InsufficientShards(CryptoError):
    """Fewer shards supplied than the reconstruction threshold."""


class DuplicateIndex(CryptoError):
    """Two shards in one reconstruction carry the same index."""


def random_bytes(rng: Optional[np.random.Generator], n: int) -> bytes:
    """``n`` bytes from ``rng``, or from the operating system's CSPRNG."""
    if rng is None:
        return os.urandom(n)
    return rng.bytes(n)


# ---------------------------------------------------------------------------
# Hashing
# ---------------------------------------------------------------------------

def digest(data: bytes) -> bytes:
    """Hash an arbitrary byte string to a fixed-length digest."""
    return hashlib.sha256(data).digest()


def digest_parts(*parts: bytes) -> bytes:
    """Hash several byte strings as one length-prefixed sequence.

    The length prefixes make the combination unambiguous: no two distinct
    part sequences can serialize to the same input.
    """
    h = hashlib.sha256()
    for part in parts:
        h.update(lp(part))
    return h.digest()


# ---------------------------------------------------------------------------
# Key pairs (X25519 encryption half + Ed25519 signing half)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KeyPair:
    """Composite key pair: 32 encryption bytes then 32 signing bytes.

    The parsed private halves are computed on first use, never at
    generation, and kept for the object's lifetime (about 0.55 KB);
    equality and hashing cover the two byte fields only.
    """

    public: bytes
    private: bytes

    @cached_property
    def decryption_key(self) -> X25519PrivateKey:
        return _enc_private(self.private)

    @cached_property
    def signing_key(self) -> Ed25519PrivateKey:
        return _sig_private(self.private)


def generate_keypair(rng: Optional[np.random.Generator] = None) -> KeyPair:
    private = random_bytes(rng, KEY_HALF_LEN) + random_bytes(rng, KEY_HALF_LEN)
    return KeyPair(public=_public_of(private), private=private)


def derive_public(private: bytes) -> bytes:
    """Recompute the composite public key from private key bytes.

    Nothing in the package calls it; ``perfbench/tracing.py`` wraps it by
    name, so it stays until the benchmark drops it.

    Note: X25519 clamps five bits of its scalar, so corruptions confined
    to those bits of the encryption half are not observable here; the
    signing half is injective in practice.
    """
    return _public_of(private)


def _public_of(private: bytes) -> bytes:
    return (_enc_private(private).public_key().public_bytes_raw()
            + _sig_private(private).public_key().public_bytes_raw())


def _enc_public(public: bytes) -> X25519PublicKey:
    return X25519PublicKey.from_public_bytes(public[:KEY_HALF_LEN])


def _enc_private(private: bytes) -> X25519PrivateKey:
    return X25519PrivateKey.from_private_bytes(private[:KEY_HALF_LEN])


# An X25519-only private key, parsed: it agrees keys and does nothing else.
AgreementKey = X25519PrivateKey


def agreement_keys(private: bytes) -> list[AgreementKey]:
    """One :data:`AgreementKey` per ``KEY_HALF_LEN`` bytes of ``private``,
    in order. Parsing a key computes its public point."""
    return [X25519PrivateKey.from_private_bytes(private[start:start + KEY_HALF_LEN])
            for start in range(0, len(private), KEY_HALF_LEN)]


def link_key(own: AgreementKey, peer: X25519PublicKey, position: bytes) -> bytes:
    """One end's key for the link between the holders of ``own`` and
    ``peer``: HKDF-SHA256 of their static-static X25519 shared secret (the
    C(0e, 2s) scheme of NIST SP 800-56A), bound to the link's ``position``.
    The other end, from its own private key and ``own``'s public key,
    derives the same key; nothing secret is sent."""
    return _hkdf(own.exchange(peer), _LINK_INFO + position)


def _hkdf(shared: bytes, info: bytes) -> bytes:
    return HKDF(algorithm=hashes.SHA256(), length=SYM_KEY_LEN, salt=None, info=info).derive(shared)


def _sig_public(public: bytes) -> Ed25519PublicKey:
    return Ed25519PublicKey.from_public_bytes(public[KEY_HALF_LEN:])


def _sig_private(private: bytes) -> Ed25519PrivateKey:
    return Ed25519PrivateKey.from_private_bytes(private[KEY_HALF_LEN:])


# ---------------------------------------------------------------------------
# Symmetric cipher
# ---------------------------------------------------------------------------

def generate_sym_key(rng: Optional[np.random.Generator] = None) -> bytes:
    return random_bytes(rng, SYM_KEY_LEN)


# A symmetric key with its AES-GCM key schedule already expanded,
# ``SymCipher(key)``. A link that carries many messages prepares its
# cipher once and passes it to the link-set calls; it lives exactly as
# long as the object that holds it.
SymCipher = AESGCM


def _nonces(count: int) -> tuple[bytes, ...]:
    """``count`` random ``SYM_NONCE_LEN``-byte nonces cut from one CSPRNG draw."""
    return struct.unpack(f"{SYM_NONCE_LEN}s" * count, os.urandom(SYM_NONCE_LEN * count))


def sym_seal_each(messages: Iterable[bytes], ciphers: Sequence[SymCipher],
                  nonces: Sequence[bytes]) -> Iterator[bytes]:
    """Seal message i under cipher i and nonce i as each is drawn."""
    return map(SymCipher.encrypt, ciphers, nonces, messages, repeat(None))


def sym_open_each(bodies: Iterable[bytes], ciphers: Sequence[SymCipher],
                  nonces: Sequence[bytes]) -> list[bytes]:
    """Open body i under cipher i and nonce i, drawing each body only once
    the one before is open.

    Raises:
        AuthenticationFailure: a body fails its cipher's tag.
    """
    try:
        return list(map(SymCipher.decrypt, ciphers, nonces, bodies, repeat(None)))
    except InvalidTag as exc:
        raise AuthenticationFailure("authentication tag mismatch") from exc


def sym_cross_each(messages: Iterable[bytes], ciphers: Sequence[SymCipher]) -> list[bytes]:
    """Carry message i over cipher i's link and open it at the far end,
    under nonces cut from one CSPRNG draw; each link is sealed and opened
    back to back, while its cipher is in cache. Returns the opened copies.

    Raises:
        AuthenticationFailure: a copy fails its link's tag.
        ValueError: ``messages`` and ``ciphers`` differ in length.
    """
    messages = iter(messages)
    nonces = _nonces(len(ciphers))
    opened = sym_open_each(sym_seal_each(messages, ciphers, nonces), ciphers, nonces)
    if len(opened) != len(ciphers) or next(messages, None) is not None:
        raise ValueError("messages and ciphers differ in length")
    return opened


def sym_encrypt(message: bytes, key: bytes) -> bytes:
    """Encrypt one message under raw key bytes with :func:`sym_seal_each`;
    output is the nonce followed by the ciphertext."""
    nonces = _nonces(1)
    return nonces[0] + next(sym_seal_each([message], [SymCipher(key)], nonces))


def sym_decrypt(ciphertext: bytes, key: bytes) -> bytes:
    """Invert :func:`sym_encrypt` with :func:`sym_open_each`.

    Raises:
        AuthenticationFailure: wrong key, or the ciphertext was modified.
    """
    if len(ciphertext) < SYM_NONCE_LEN + 16:
        raise AuthenticationFailure("ciphertext too short")
    nonce, body = ciphertext[:SYM_NONCE_LEN], ciphertext[SYM_NONCE_LEN:]
    return sym_open_each([body], [SymCipher(key)], [nonce])[0]


# ---------------------------------------------------------------------------
# Asymmetric cipher and signatures
# ---------------------------------------------------------------------------

def asym_encrypt_each(messages: Sequence[bytes], public: bytes) -> list[bytes]:
    """Encrypt short messages to the holder of ``public`` under one
    encapsulation.

    One ephemeral X25519 key agrees one shared secret with the
    recipient's encryption key, and HKDF turns it into one AES-GCM key
    that seals every message, each under its own random nonce; the nonces
    come from one CSPRNG draw, as in :func:`sym_cross_each`. Each output
    is laid out as the ephemeral public key, the nonce and the ciphertext,
    with the ephemeral public key as associated data, so
    :func:`asym_decrypt` opens any one of them alone.

    Raises:
        PayloadTooLarge: a message is longer than ``ASYM_MAX_PAYLOAD``.
    """
    for message in messages:
        if len(message) > ASYM_MAX_PAYLOAD:
            raise PayloadTooLarge(
                f"{len(message)} bytes exceeds the {ASYM_MAX_PAYLOAD}-byte bound"
            )
    eph = X25519PrivateKey.generate()
    eph_pub = eph.public_key().public_bytes_raw()
    cipher = AESGCM(_hkdf(eph.exchange(_enc_public(public)), _ECIES_INFO))
    return [eph_pub + nonce + cipher.encrypt(nonce, message, eph_pub)
            for nonce, message in zip(_nonces(len(messages)), messages)]


def asym_decrypt_each(ciphertexts: Sequence[bytes], keys: KeyPair) -> Iterator[bytes]:
    """Invert :func:`asym_encrypt_each` with the recipient's key pair,
    one message at a time as the caller draws them, so it can check one
    before it opens the next. The first draw does the one exchange, with
    the first ciphertext's ephemeral key; later ones only decrypt.

    Raises:
        DecryptionFailure: wrong private key or damaged ciphertext.
        MixedEncapsulation: a ciphertext carries another ephemeral key
            than the first, so the two were not sealed by one call.
    """
    header = KEY_HALF_LEN + SYM_NONCE_LEN
    first = cipher = None
    for ciphertext in ciphertexts:
        if len(ciphertext) < header + 16:
            raise DecryptionFailure("ciphertext too short")
        eph_pub = ciphertext[:KEY_HALF_LEN]
        if cipher is None:
            first = eph_pub
            try:
                shared = keys.decryption_key.exchange(X25519PublicKey.from_public_bytes(eph_pub))
            except ValueError as exc:
                raise DecryptionFailure("not the intended recipient") from exc
            cipher = AESGCM(_hkdf(shared, _ECIES_INFO))
        elif eph_pub != first:
            raise MixedEncapsulation("ciphertexts sealed under different ephemeral keys")
        try:
            message = cipher.decrypt(ciphertext[KEY_HALF_LEN:header], ciphertext[header:], eph_pub)
        except InvalidTag as exc:
            raise DecryptionFailure("not the intended recipient") from exc
        yield message


def asym_encrypt(message: bytes, public: bytes) -> bytes:
    """Encrypt one short message to the holder of ``public`` with
    :func:`asym_encrypt_each`."""
    [ciphertext] = asym_encrypt_each([message], public)
    return ciphertext


def asym_decrypt(ciphertext: bytes, keys: KeyPair) -> bytes:
    """Open one ciphertext of :func:`asym_encrypt` or
    :func:`asym_encrypt_each` with :func:`asym_decrypt_each`.

    Raises:
        DecryptionFailure: wrong private key or damaged ciphertext.
    """
    return next(asym_decrypt_each([ciphertext], keys))


def sign(keys: KeyPair, message: bytes) -> bytes:
    """Ed25519 signature (deterministic) with the signer's key pair."""
    return keys.signing_key.sign(message)


def verify(public: bytes, signature: bytes, message: bytes) -> bool:
    """True iff ``signature`` was produced over exactly ``message`` by the
    signing half matching ``public``. Never raises."""
    try:
        _sig_public(public).verify(signature, message)
        return True
    except Exception:
        return False


# ---------------------------------------------------------------------------
# Hybrid envelope (symmetric payload, asymmetric key wrap)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Envelope:
    """Sealed payload: ``ed`` is the symmetric ciphertext, ``ek`` wraps the
    symmetric key for the intended recipient."""

    ed: bytes
    ek: bytes


def seal(payload: bytes, recipient_public: bytes) -> Envelope:
    """Encrypt ``payload`` under a fresh symmetric key wrapped to
    ``recipient_public``. Nothing in the package calls it; tests seal
    probes with it, and ``perfbench/tracing.py`` wraps it by name."""
    key = generate_sym_key()
    return Envelope(ed=sym_encrypt(payload, key), ek=asym_encrypt(key, recipient_public))


def open_envelope(envelope: Envelope, keys: KeyPair) -> bytes:
    key = asym_decrypt(envelope.ek, keys)
    return sym_decrypt(envelope.ed, key)


# ---------------------------------------------------------------------------
# Shamir threshold secret sharing over GF(2^8)
# ---------------------------------------------------------------------------

# Field tables for the AES polynomial x^8 + x^4 + x^3 + x + 1 (0x11B).
_GF_EXP = np.zeros(512, dtype=np.uint8)
_GF_LOG = np.zeros(256, dtype=np.int64)
# Full 256 x 256 product table (64 KiB); row and column 0 stay zero.
_GF_MUL = np.zeros((256, 256), dtype=np.uint8)


def _init_tables() -> None:
    # Generator 3 (x + 1); 2 does not generate the full multiplicative group.
    x = 1
    for i in range(255):
        _GF_EXP[i] = x
        _GF_LOG[x] = i
        doubled = x << 1
        if doubled & 0x100:
            doubled ^= 0x11B
        x = doubled ^ x
    _GF_EXP[255:510] = _GF_EXP[:255]
    for a in range(1, 256):  # by rows: no 256 x 256 index temporary
        _GF_MUL[a, 1:] = _GF_EXP[_GF_LOG[a] + _GF_LOG[1:]]


_init_tables()


def _gf_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """GF(2^8) product, elementwise over broadcastable uint8 arrays, ``b``
    the one broadcast; a flat ``take`` at ``256 b + a`` is twice as fast
    as a 2-D index, and its index is built in one pass over ``a``."""
    return _GF_MUL.take(np.left_shift(b, 8, dtype=np.intp) + a)


@dataclass(frozen=True)
class Shard:
    """One piece of a split secret. ``index`` is the field point (1-based),
    ``payload`` has the same length as the secret."""

    index: int
    payload: bytes


@dataclass(frozen=True)
class SharingConfig:
    """Sharing arithmetic for a group of ``n`` participants: the secret is
    split into ``2n + 1`` shards and any ``n + 2`` of them reconstruct it.
    An ``n`` below 1, or one whose shards outnumber the 255 nonzero points
    of GF(2^8), is an :class:`InvalidConfig` when the config is built."""

    n: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= 127:
            raise InvalidConfig(f"group size must be in 1..127, got {self.n}")

    @classmethod
    def for_group(cls, n: int) -> "SharingConfig":
        return cls(n)

    @property
    def total(self) -> int:
        return 2 * self.n + 1

    @property
    def threshold(self) -> int:
        return self.n + 2


def shamir_split(
    secret: bytes,
    config: SharingConfig,
    rng: Optional[np.random.Generator] = None,
) -> list[Shard]:
    """Split ``secret`` into ``config.total`` shards at ``config.threshold``:
    the one-secret call of :func:`shamir_split_each`, its coefficients drawn
    from ``rng`` in one :func:`random_bytes` call of
    ``(threshold - 1) * len(secret)`` bytes."""
    if not secret:
        raise ValueError("cannot split an empty secret")
    rand = random_bytes(rng, (config.threshold - 1) * len(secret))
    [dealt] = shamir_split_each([secret], [rand], [config])
    return [Shard(index=x, payload=values.tobytes()) for x, values in enumerate(dealt, 1)]


def shamir_split_each(secrets: Sequence[bytes], randomness: Sequence[bytes],
                      configs: Sequence[SharingConfig]) -> np.ndarray:
    """Split secret i into ``configs[i].total`` shards at
    ``configs[i].threshold``, its polynomial's coefficients of degree 1 up
    to ``threshold - 1`` read in that order from ``randomness[i]``, one
    ``len(secret)``-byte row each. Returns a (secrets, max total, len)
    uint8 array whose row k of secret i is its shard at field point k + 1;
    a secret's rows past its own ``2n + 1`` are zero.

    Each byte of a secret is the constant term of a random polynomial.
    Horner's rule runs once over all the secrets, a (secrets, max total,
    len) accumulator with the points ``1..max total`` as a column, a
    polynomial of lower degree zero-padded at the top; so the split takes
    one table gather per degree, not one per secret and degree.

    Raises:
        ValueError: no secrets, an empty secret, secrets of different
            lengths, or a randomness row count that does not match its
            config; or the three sequences differ in length.
    """
    lengths = {len(secret) for secret in secrets}
    if len(lengths) != 1 or 0 in lengths:
        raise ValueError(f"cannot split secrets of lengths {sorted(lengths)}: one nonzero length")
    length = lengths.pop()
    coeffs = np.zeros((max(config.threshold for config in configs), len(secrets), length),
                      dtype=np.uint8)
    for i, (secret, rand, config) in enumerate(zip(secrets, randomness, configs, strict=True)):
        if len(rand) != (config.threshold - 1) * length:
            raise ValueError(f"secret {i} needs {(config.threshold - 1) * length} random bytes, "
                             f"got {len(rand)}")
        coeffs[0, i] = np.frombuffer(secret, dtype=np.uint8)
        coeffs[1:config.threshold, i] = np.frombuffer(rand, dtype=np.uint8).reshape(-1, length)
    totals = np.array([config.total for config in configs])
    points = np.arange(1, totals.max() + 1, dtype=np.uint8)[:, None]
    acc = np.zeros((len(secrets), len(points), length), dtype=np.uint8)
    for row in coeffs[::-1]:
        acc = _gf_mul(acc, points)
        acc ^= row[:, None]
    acc[np.arange(len(points)) >= totals[:, None]] = 0
    return acc


_POOLS_PER_GATHER = 16


def lagrange_weights(points: tuple[int, ...], config: SharingConfig, width: int) -> np.ndarray:
    """Lagrange basis values at zero for one pool's field points, a zero
    padded (width, 1) column, once the pool passes every check: by count
    first (:class:`InsufficientShards`), so an under-sized pool never
    "accidentally" reconstructs, then distinct indices and index range.
    Weight i is the product over j != i of x_j / (x_i ^ x_j), taken as a
    sum of logarithms."""
    if len(points) < config.threshold:
        raise InsufficientShards(
            f"{len(points)} shards supplied, {config.threshold} required"
        )
    if len(set(points)) != len(points):
        raise DuplicateIndex("shard indices must be distinct")
    for idx in points:
        if not 1 <= idx <= config.total:
            raise InvalidConfig(f"shard index {idx} outside 1..{config.total}")
    x = np.array(points)
    diffs = x[:, None] ^ x[None, :]
    np.fill_diagonal(diffs, 1)  # log 1 = 0 drops the j == i factor
    logs = _GF_LOG[x].sum() - _GF_LOG[x] - _GF_LOG[diffs].sum(axis=1)
    return np.pad(_GF_EXP[logs % 255], (0, width - len(points)))[:, None]


def shamir_reconstruct_each(payloads: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Recombine a (pools, k, len) uint8 stack of shard pools into their
    (pools, len) secrets under their (pools, k, 1) :func:`lagrange_weights`
    columns, zero past a pool's own rows, so pools of any size share a
    stack. One table gather per :data:`_POOLS_PER_GATHER` pools multiplies
    every payload by its weight, and an XOR over each pool's rows follows.
    A gather builds an 8-byte index per payload byte: 16 x 52 x 64 x 8 B,
    416 KiB, for 16 pools of 52 rows of 64 bytes, the pools of a query at
    N = 5000 under fanout 50.

    Raises:
        ValueError: ``weights`` is not one column per pool of the stack.
    """
    if weights.shape != (*payloads.shape[:2], 1):
        raise ValueError(f"weights of shape {weights.shape} for a stack of {payloads.shape}")
    secrets = np.empty((len(payloads), payloads.shape[2]), dtype=np.uint8)
    for start in range(0, len(payloads), _POOLS_PER_GATHER):
        part = slice(start, start + _POOLS_PER_GATHER)
        secrets[part] = np.bitwise_xor.reduce(_gf_mul(payloads[part], weights[part]), axis=1)
    return secrets


def shamir_reconstruct(shards: Sequence[Shard], config: SharingConfig) -> bytes:
    """Recombine shards into the original secret: the one-pool call of
    :func:`shamir_reconstruct_each`, with one more check before those of
    :func:`lagrange_weights`, that the payloads have equal lengths."""
    lengths = {len(s.payload) for s in shards}
    if len(lengths) > 1:
        raise InvalidConfig("shard payloads must have equal length")
    weights = lagrange_weights(tuple(s.index for s in shards), config, len(shards))
    payloads = np.frombuffer(b"".join(s.payload for s in shards), dtype=np.uint8)
    stack = payloads.reshape(1, len(shards), max(lengths, default=0))
    [secret] = shamir_reconstruct_each(stack, weights[None])
    return secret.tobytes()
