"""Cryptographic primitives: hashing, authenticated symmetric encryption,
public-key encryption, signatures, and threshold secret sharing.

Concrete choices (the rest of the package depends only on the contracts):

* hashing        SHA-256 (32-byte digests)
* symmetric      AES-256-GCM; decrypting with the wrong key or a modified
                 ciphertext fails the authentication tag
* asymmetric     ephemeral X25519 + HKDF-SHA256 + AES-256-GCM, bounded to
                 short payloads (it carries wrapped keys and control
                 messages, never bulk data)
* signatures     Ed25519
* secret sharing byte-wise polynomial sharing over GF(2^8) with
                 index-tagged shards; a caller checks a reconstruction
                 against a SHA-256 commitment to the secret
                 (:func:`digest_parts` under its own tag), one hash that
                 catches any differing byte

A :class:`KeyPair` bundles an encryption half and a signing half so a
single party identity can both receive wrapped keys and sign messages.

The operations keep no state between calls, with one exception: a
:class:`KeyPair` that decrypts or signs parses its private halves on
first use and keeps the parsed keys for its lifetime, because parsing a
private key computes its public point, a full scalar multiplication.
:func:`asym_decrypt`, :func:`open_envelope` and :func:`sign` take a key
pair or raw private bytes, which are parsed on each call.

Pass a seeded ``numpy.random.Generator`` to the generators when
reproducible key material is needed (enrollment does this so a
deployment can be rebuilt from its seed).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence, Union

import numpy as np
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives import hashes, serialization
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


class CryptoError(Exception):
    """Base class for all failures raised by this module."""


class AuthenticationFailure(CryptoError):
    """Symmetric decryption failed its authentication check."""


class DecryptionFailure(CryptoError):
    """Asymmetric decryption failed (wrong key or damaged ciphertext)."""


class PayloadTooLarge(CryptoError):
    """Asymmetric payload exceeds the declared bound."""


class InvalidConfig(CryptoError):
    """A configuration violates its own arithmetic constraints."""


class InsufficientShards(CryptoError):
    """Fewer shards supplied than the reconstruction threshold."""


class DuplicateIndex(CryptoError):
    """Two shards in one reconstruction carry the same index."""


def _random_bytes(rng: Optional[np.random.Generator], n: int) -> bytes:
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


# A private key: a :class:`KeyPair`, whose parsed halves are kept, or raw
# private bytes, parsed on every call. A party that decrypts or signs
# repeatedly passes its key pair.
PrivateKey = Union[bytes, KeyPair]


def generate_keypair(rng: Optional[np.random.Generator] = None) -> KeyPair:
    private = _random_bytes(rng, KEY_HALF_LEN) + _random_bytes(rng, KEY_HALF_LEN)
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
    enc_priv = X25519PrivateKey.from_private_bytes(private[:KEY_HALF_LEN])
    sig_priv = Ed25519PrivateKey.from_private_bytes(private[KEY_HALF_LEN:])
    raw = serialization.Encoding.Raw
    pub_fmt = serialization.PublicFormat.Raw
    return (
        enc_priv.public_key().public_bytes(raw, pub_fmt)
        + sig_priv.public_key().public_bytes(raw, pub_fmt)
    )


def _enc_public(public: bytes) -> X25519PublicKey:
    return X25519PublicKey.from_public_bytes(public[:KEY_HALF_LEN])


def _enc_private(private: PrivateKey) -> X25519PrivateKey:
    if isinstance(private, KeyPair):
        return private.decryption_key
    return X25519PrivateKey.from_private_bytes(private[:KEY_HALF_LEN])


def _sig_public(public: bytes) -> Ed25519PublicKey:
    return Ed25519PublicKey.from_public_bytes(public[KEY_HALF_LEN:])


def _sig_private(private: PrivateKey) -> Ed25519PrivateKey:
    if isinstance(private, KeyPair):
        return private.signing_key
    return Ed25519PrivateKey.from_private_bytes(private[KEY_HALF_LEN:])


# ---------------------------------------------------------------------------
# Symmetric cipher
# ---------------------------------------------------------------------------

def generate_sym_key(rng: Optional[np.random.Generator] = None) -> bytes:
    return _random_bytes(rng, SYM_KEY_LEN)


# A symmetric key with its AES-GCM key schedule already expanded,
# ``SymCipher(key)``. A link that carries many messages prepares its
# cipher once and passes it wherever a raw key is accepted; it lives
# exactly as long as the object that holds it.
SymCipher = AESGCM
SymKey = Union[bytes, SymCipher]


def _cipher(key: SymKey) -> SymCipher:
    return key if isinstance(key, AESGCM) else AESGCM(key)


def sym_encrypt(message: bytes, key: SymKey) -> bytes:
    """Encrypt with AES-256-GCM under a fresh random nonce; output is the
    nonce followed by the ciphertext. ``key`` is raw key bytes or a
    prepared :data:`SymCipher`."""
    nonce = os.urandom(SYM_NONCE_LEN)
    return nonce + _cipher(key).encrypt(nonce, message, None)


def sym_decrypt(ciphertext: bytes, key: SymKey) -> bytes:
    """Invert :func:`sym_encrypt`.

    Raises:
        AuthenticationFailure: wrong key, or the ciphertext was modified.
    """
    if len(ciphertext) < SYM_NONCE_LEN + 16:
        raise AuthenticationFailure("ciphertext too short")
    nonce, body = ciphertext[:SYM_NONCE_LEN], ciphertext[SYM_NONCE_LEN:]
    try:
        return _cipher(key).decrypt(nonce, body, None)
    except InvalidTag as exc:
        raise AuthenticationFailure("authentication tag mismatch") from exc


# ---------------------------------------------------------------------------
# Asymmetric cipher and signatures
# ---------------------------------------------------------------------------

def asym_encrypt(message: bytes, public: bytes) -> bytes:
    """Encrypt a short message to the holder of ``public``.

    An ephemeral X25519 key agrees a shared secret with the recipient's
    encryption key; HKDF turns it into an AES-GCM key. Output layout:
    ephemeral public key, nonce, ciphertext.

    Raises:
        PayloadTooLarge: message longer than ``ASYM_MAX_PAYLOAD``.
    """
    if len(message) > ASYM_MAX_PAYLOAD:
        raise PayloadTooLarge(
            f"{len(message)} bytes exceeds the {ASYM_MAX_PAYLOAD}-byte bound"
        )
    eph = X25519PrivateKey.generate()
    eph_pub = eph.public_key().public_bytes(
        serialization.Encoding.Raw, serialization.PublicFormat.Raw
    )
    shared = eph.exchange(_enc_public(public))
    key = HKDF(
        algorithm=hashes.SHA256(), length=SYM_KEY_LEN, salt=None, info=_ECIES_INFO
    ).derive(shared)
    nonce = os.urandom(SYM_NONCE_LEN)
    return eph_pub + nonce + AESGCM(key).encrypt(nonce, message, eph_pub)


def asym_decrypt(ciphertext: bytes, private: PrivateKey) -> bytes:
    """Invert :func:`asym_encrypt` with the matching private key, a
    :class:`KeyPair` or raw private bytes.

    Raises:
        DecryptionFailure: wrong private key or damaged ciphertext.
    """
    header = KEY_HALF_LEN + SYM_NONCE_LEN
    if len(ciphertext) < header + 16:
        raise DecryptionFailure("ciphertext too short")
    eph_pub = ciphertext[:KEY_HALF_LEN]
    nonce = ciphertext[KEY_HALF_LEN:header]
    body = ciphertext[header:]
    try:
        shared = _enc_private(private).exchange(
            X25519PublicKey.from_public_bytes(eph_pub)
        )
        key = HKDF(
            algorithm=hashes.SHA256(), length=SYM_KEY_LEN, salt=None, info=_ECIES_INFO
        ).derive(shared)
        return AESGCM(key).decrypt(nonce, body, eph_pub)
    except (InvalidTag, ValueError) as exc:
        raise DecryptionFailure("not the intended recipient") from exc


def sign(private: PrivateKey, message: bytes) -> bytes:
    """Ed25519 signature (deterministic) with a :class:`KeyPair` or raw
    private bytes."""
    return _sig_private(private).sign(message)


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


def seal(
    payload: bytes,
    recipient_public: bytes,
    sym_key: Optional[bytes] = None,
    rng: Optional[np.random.Generator] = None,
) -> Envelope:
    key = sym_key if sym_key is not None else generate_sym_key(rng)
    return Envelope(ed=sym_encrypt(payload, key), ek=asym_encrypt(key, recipient_public))


def open_envelope(envelope: Envelope, private: PrivateKey) -> bytes:
    key = asym_decrypt(envelope.ek, private)
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
    """GF(2^8) product, elementwise over broadcastable uint8 arrays; a
    flat ``take`` at ``256 a + b`` is twice as fast as a 2-D index."""
    index = np.left_shift(a, 8, dtype=np.intp)
    index |= b
    return _GF_MUL.take(index)


@dataclass(frozen=True)
class Shard:
    """One piece of a split secret. ``index`` is the field point (1-based),
    ``payload`` has the same length as the secret."""

    index: int
    payload: bytes


@dataclass(frozen=True)
class SharingConfig:
    """Sharing arithmetic for a group of ``n`` participants: the secret is
    split into ``2n + 1`` shards and any ``n + 2`` of them reconstruct it."""

    total: int
    threshold: int
    n: int

    @classmethod
    def for_group(cls, n: int) -> "SharingConfig":
        return cls(total=2 * n + 1, threshold=n + 2, n=n)

    def validate(self) -> None:
        if self.n < 1:
            raise InvalidConfig(f"group size must be >= 1, got {self.n}")
        if self.total != 2 * self.n + 1:
            raise InvalidConfig(
                f"total must be 2n+1 = {2 * self.n + 1}, got {self.total}"
            )
        if self.threshold != self.n + 2:
            raise InvalidConfig(
                f"threshold must be n+2 = {self.n + 2}, got {self.threshold}"
            )
        if self.total > 255:
            raise InvalidConfig("GF(2^8) sharing supports at most 255 shards")


def shamir_split(
    secret: bytes,
    config: SharingConfig,
    rng: Optional[np.random.Generator] = None,
) -> list[Shard]:
    """Split ``secret`` into ``config.total`` shards at ``config.threshold``.

    Each byte of the secret becomes the constant term of a random
    polynomial of degree ``threshold - 1``; shard ``i`` holds the
    polynomial values at field point ``i``. Horner's rule runs once over a
    (total, len) accumulator with the points ``1..total`` as a column, so
    the split takes ``threshold`` table gathers, not ``total * threshold``.
    """
    config.validate()
    if not secret:
        raise ValueError("cannot split an empty secret")
    length = len(secret)
    coeffs = np.empty((config.threshold, length), dtype=np.uint8)
    coeffs[0] = np.frombuffer(secret, dtype=np.uint8)
    rand = _random_bytes(rng, (config.threshold - 1) * length)
    coeffs[1:] = np.frombuffer(rand, dtype=np.uint8).reshape(
        config.threshold - 1, length
    )
    points = np.arange(1, config.total + 1, dtype=np.uint8)[:, None]
    acc = np.zeros((config.total, length), dtype=np.uint8)
    for row in coeffs[::-1]:
        acc = _gf_mul(acc, points)
        acc ^= row
    return [Shard(index=x, payload=values.tobytes()) for x, values in enumerate(acc, 1)]


@lru_cache(maxsize=4096)
def _lagrange_weights(indices: tuple[int, ...]) -> tuple[int, ...]:
    """Lagrange basis values at zero for distinct nonzero field points.

    Weight i is the product over j != i of x_j / (x_i ^ x_j), taken as a
    sum of logarithms."""
    x = np.array(indices)
    diffs = x[:, None] ^ x[None, :]
    np.fill_diagonal(diffs, 1)  # log 1 = 0 drops the j == i factor
    logs = _GF_LOG[x].sum() - _GF_LOG[x] - _GF_LOG[diffs].sum(axis=1)
    return tuple(_GF_EXP[logs % 255].tolist())


def shamir_reconstruct(shards: Sequence[Shard], config: SharingConfig) -> bytes:
    """Recombine shards into the original secret.

    One table gather multiplies the (k, len) payload matrix by the
    Lagrange weights at zero, row by row, and an XOR over rows follows.

    Rejection below threshold happens by count, before any interpolation,
    so an under-sized pool can never "accidentally" reconstruct.

    Raises:
        InsufficientShards: fewer shards than ``config.threshold``.
        DuplicateIndex: two shards share an index.
    """
    config.validate()
    if len(shards) < config.threshold:
        raise InsufficientShards(
            f"{len(shards)} shards supplied, {config.threshold} required"
        )
    indices = tuple(s.index for s in shards)
    if len(set(indices)) != len(indices):
        raise DuplicateIndex("shard indices must be distinct")
    for idx in indices:
        if not 1 <= idx <= config.total:
            raise InvalidConfig(f"shard index {idx} outside 1..{config.total}")
    lengths = {len(s.payload) for s in shards}
    if len(lengths) != 1:
        raise InvalidConfig("shard payloads must have equal length")
    payloads = np.frombuffer(b"".join(s.payload for s in shards), dtype=np.uint8)
    weights = np.array(_lagrange_weights(indices), dtype=np.uint8)[:, None]
    products = _gf_mul(payloads.reshape(len(shards), lengths.pop()), weights)
    return np.bitwise_xor.reduce(products, axis=0).tobytes()
