"""Crypto primitive contracts: round trips, failure modes, sharing arithmetic."""

import dataclasses
import hashlib
import itertools
import os

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given, settings
from hypothesis import strategies as st

from biochain import crypto
from biochain.crypto import (
    AuthenticationFailure,
    DecryptionFailure,
    DuplicateIndex,
    InsufficientShards,
    InvalidConfig,
    PayloadTooLarge,
    Shard,
    SharingConfig,
)

messages = st.binary(min_size=0, max_size=256)


class TestDigest:
    def test_deterministic(self):
        data = b"some fixed input"
        assert crypto.digest(data) == crypto.digest(data)

    def test_empty_input_valid(self):
        d = crypto.digest(b"")
        assert len(d) == crypto.DIGEST_LEN

    def test_fixed_length(self):
        for size in (0, 1, 100, 10_000):
            assert len(crypto.digest(b"x" * size)) == crypto.DIGEST_LEN

    def test_bit_flip_changes_digest(self):
        # 1000 random inputs, flip one random bit in each
        rng = np.random.default_rng(101)
        for _ in range(1000):
            data = bytearray(rng.bytes(32))
            original = crypto.digest(bytes(data))
            bit = int(rng.integers(0, len(data) * 8))
            data[bit // 8] ^= 1 << (bit % 8)
            assert crypto.digest(bytes(data)) != original

    def test_no_collisions_over_1e5_inputs(self):
        rng = np.random.default_rng(77)
        seen = set()
        inputs = set()
        while len(inputs) < 100_000:
            inputs.add(rng.bytes(16))
        for data in inputs:
            seen.add(crypto.digest(data))
        assert len(seen) == len(inputs)

    def test_digest_parts_is_unambiguous(self):
        assert crypto.digest_parts(b"ab", b"c") != crypto.digest_parts(b"a", b"bc")
        assert crypto.digest_parts(b"ab") != crypto.digest_parts(b"ab", b"")


class TestSymmetricCipher:
    def test_round_trip(self):
        key = crypto.generate_sym_key()
        assert crypto.sym_decrypt(crypto.sym_encrypt(b"payload", key), key) == b"payload"

    def test_wrong_key_fails_authentication(self):
        k1 = crypto.generate_sym_key()
        k2 = crypto.generate_sym_key()
        ct = crypto.sym_encrypt(b"payload", k1)
        with pytest.raises(AuthenticationFailure):
            crypto.sym_decrypt(ct, k2)

    def test_tampered_ciphertext_fails(self):
        key = crypto.generate_sym_key()
        ct = bytearray(crypto.sym_encrypt(b"payload", key))
        ct[-1] ^= 0x01
        with pytest.raises(AuthenticationFailure):
            crypto.sym_decrypt(bytes(ct), key)

    def test_100_random_round_trips(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = rng.bytes(int(rng.integers(0, 200)))
            k = crypto.generate_sym_key()
            assert crypto.sym_decrypt(crypto.sym_encrypt(m, k), k) == m

    @given(message=messages)
    @settings(max_examples=50)
    def test_round_trip_property(self, message):
        key = crypto.generate_sym_key()
        assert crypto.sym_decrypt(crypto.sym_encrypt(message, key), key) == message

    def test_each_message_draws_a_fresh_nonce(self):
        key = crypto.generate_sym_key()
        nonces = {crypto.sym_encrypt(b"same", key)[: crypto.SYM_NONCE_LEN] for _ in range(50)}
        assert len(nonces) == 50

    def test_ciphertext_of_the_one_message_formula_still_opens(self):
        # the wire format: nonce || AES-GCM body under the raw key
        key = crypto.generate_sym_key()
        nonce = bytes(range(crypto.SYM_NONCE_LEN))
        ct = nonce + AESGCM(key).encrypt(nonce, b"payload", None)
        assert crypto.sym_decrypt(ct, key) == b"payload"

    def test_short_ciphertext_fails_authentication(self):
        key = crypto.generate_sym_key()
        with pytest.raises(AuthenticationFailure):
            crypto.sym_decrypt(bytes(crypto.SYM_NONCE_LEN + 15), key)


def link_ciphers(n):
    return [crypto.SymCipher(crypto.generate_sym_key()) for _ in range(n)]


def seal_links(messages, ciphers):
    """Each link's nonce and sealed body, through the seal step alone."""
    nonces = [os.urandom(crypto.SYM_NONCE_LEN) for _ in ciphers]
    return nonces, list(crypto.sym_seal_each(messages, ciphers, nonces))


class TestLinkSetCrossing:
    def test_round_trip_per_link(self):
        ciphers = link_ciphers(7)
        assert crypto.sym_cross_each([b"probe"] * 7, ciphers) == [b"probe"] * 7
        sent = [b"m%d" % i for i in range(7)]  # message i crosses link i
        assert crypto.sym_cross_each(iter(sent), ciphers) == sent
        nonces, bodies = seal_links([b"probe"] * 7, ciphers)
        assert len(bodies) == 7
        assert crypto.sym_open_each(bodies, ciphers, nonces) == [b"probe"] * 7

    def test_nonces_of_one_call_are_pairwise_distinct(self, monkeypatch):
        seen = []
        real = crypto.sym_open_each

        def recording(bodies, ciphers, nonces):
            seen.extend(nonces)
            return real(bodies, ciphers, nonces)

        monkeypatch.setattr(crypto, "sym_open_each", recording)
        crypto.sym_cross_each([b"same"] * 200, link_ciphers(200))
        assert all(len(nonce) == crypto.SYM_NONCE_LEN for nonce in seen)
        assert len(set(seen)) == len(seen) == 200

    def test_nonces_are_drawn_in_one_call(self, monkeypatch):
        ciphers = link_ciphers(5)
        draws = []
        real = crypto.os.urandom

        def counted(n):
            draws.append(n)
            return real(n)

        monkeypatch.setattr(crypto.os, "urandom", counted)
        crypto.sym_cross_each([b"m"] * 5, ciphers)
        assert draws == [5 * crypto.SYM_NONCE_LEN]

    def test_each_copy_opens_only_under_its_own_cipher(self):
        ciphers = link_ciphers(4)
        nonces, bodies = seal_links([b"probe"] * 4, ciphers)
        for i, (nonce, body) in enumerate(zip(nonces, bodies)):
            for j, cipher in enumerate(ciphers):
                if i == j:
                    assert crypto.sym_open_each([body], [cipher], [nonce]) == [b"probe"]
                else:
                    with pytest.raises(AuthenticationFailure):
                        crypto.sym_open_each([body], [cipher], [nonce])

    def test_copies_interoperate_with_the_one_message_form(self):
        keys = [crypto.generate_sym_key() for _ in range(3)]
        ciphers = [crypto.SymCipher(key) for key in keys]
        nonces, bodies = seal_links([b"m"] * 3, ciphers)
        for nonce, body, key in zip(nonces, bodies, keys):
            assert crypto.sym_decrypt(nonce + body, key) == b"m"
        ct = crypto.sym_encrypt(b"m", keys[0])
        nonce, body = ct[:crypto.SYM_NONCE_LEN], ct[crypto.SYM_NONCE_LEN:]
        assert crypto.sym_open_each([body], ciphers[:1], [nonce]) == [b"m"]

    def test_one_flipped_body_byte_fails_authentication(self):
        ciphers = link_ciphers(5)
        nonces, bodies = seal_links([b"probe"] * 5, ciphers)
        body = bodies[3]
        bodies[3] = body[:2] + bytes([body[2] ^ 1]) + body[3:]
        with pytest.raises(AuthenticationFailure):
            crypto.sym_open_each(bodies, ciphers, nonces)

    def test_mismatched_lengths_raise(self):
        ciphers = link_ciphers(3)
        with pytest.raises(ValueError):
            crypto.sym_cross_each([b"probe"] * 3, ciphers[:2])
        with pytest.raises(ValueError):
            crypto.sym_cross_each([b"probe"] * 2, ciphers)
        # messages drawn one at a time, as a query's leaf links draw them,
        # have no length to read up front
        for count in (0, 2, 4):
            with pytest.raises(ValueError):
                crypto.sym_cross_each(itertools.repeat(b"probe", count), ciphers)

    def test_each_link_is_sealed_as_the_open_step_reaches_it(self, monkeypatch):
        # The open step draws link i's cipher once link i - 1 is open, and
        # only then is link i's body sealed: no link is sealed ahead.
        order = []
        real_seal, real_open = crypto.sym_seal_each, crypto.sym_open_each

        def logged(kind, items):
            for i, item in enumerate(items):
                order.append((kind, i))
                yield item

        monkeypatch.setattr(crypto, "sym_seal_each",
                            lambda m, c, n: logged("seal", real_seal(m, c, n)))
        monkeypatch.setattr(crypto, "sym_open_each",
                            lambda b, c, n: real_open(b, logged("open", c), n))
        crypto.sym_cross_each([b"m"] * 3, link_ciphers(3))
        assert order == [("open", 0), ("seal", 0), ("open", 1), ("seal", 1),
                         ("open", 2), ("seal", 2)]

    def test_empty_link_set(self):
        assert crypto.sym_cross_each([], []) == []
        assert list(crypto.sym_seal_each([], [], ())) == []
        assert crypto.sym_open_each([], [], ()) == []

    @given(message=messages, n=st.integers(min_value=1, max_value=8))
    @settings(max_examples=30)
    def test_round_trip_property(self, message, n):
        ciphers = link_ciphers(n)
        assert crypto.sym_cross_each([message] * n, ciphers) == [message] * n


class TestAsymmetricCipher:
    def test_round_trip(self):
        kp = crypto.generate_keypair()
        sym = crypto.generate_sym_key()
        assert crypto.asym_decrypt(crypto.asym_encrypt(sym, kp.public), kp) == sym

    def test_wrong_private_key_fails(self):
        a = crypto.generate_keypair()
        b = crypto.generate_keypair()
        ct = crypto.asym_encrypt(b"key material", a.public)
        with pytest.raises(DecryptionFailure):
            crypto.asym_decrypt(ct, b)

    def test_payload_too_large(self):
        kp = crypto.generate_keypair()
        with pytest.raises(PayloadTooLarge):
            crypto.asym_encrypt(b"x" * 10_000, kp.public)

    @given(message=st.binary(min_size=0, max_size=128))
    @settings(max_examples=50)
    def test_round_trip_property(self, message):
        kp = crypto.generate_keypair()
        assert crypto.asym_decrypt(crypto.asym_encrypt(message, kp.public), kp) == message

    def test_deterministic_keygen_from_rng(self):
        k1 = crypto.generate_keypair(np.random.default_rng(9))
        k2 = crypto.generate_keypair(np.random.default_rng(9))
        assert k1 == k2
        assert k1 != crypto.generate_keypair(np.random.default_rng(10))


class TestOneEncapsulation:
    def test_round_trip_and_each_opens_alone(self):
        kp = crypto.generate_keypair()
        sealed = crypto.asym_encrypt_each([b"key", b"marker", b""], kp.public)
        assert list(crypto.asym_decrypt_each(sealed, kp)) == [b"key", b"marker", b""]
        assert [crypto.asym_decrypt(ct, kp) for ct in sealed] == [b"key", b"marker", b""]

    def test_one_ephemeral_key_and_one_exchange(self, monkeypatch):
        kp = crypto.generate_keypair()
        generated, exchanges = [], []
        real_generate = crypto.X25519PrivateKey.generate
        real_hkdf = crypto._hkdf

        def generate():
            generated.append(1)
            return real_generate()

        def hkdf(shared, info):
            exchanges.append(info)
            return real_hkdf(shared, info)

        monkeypatch.setattr(crypto.X25519PrivateKey, "generate", staticmethod(generate))
        monkeypatch.setattr(crypto, "_hkdf", hkdf)
        sealed = crypto.asym_encrypt_each([b"a", b"b", b"c"], kp.public)
        assert list(crypto.asym_decrypt_each(sealed, kp)) == [b"a", b"b", b"c"]
        assert len(generated) == 1
        assert len(exchanges) == 2  # one to seal, one to open
        eph = crypto.KEY_HALF_LEN
        assert len({ct[:eph] for ct in sealed}) == 1
        nonces = [ct[eph:eph + crypto.SYM_NONCE_LEN] for ct in sealed]
        assert len(set(nonces)) == 3

    def test_nonces_are_drawn_in_one_call(self, monkeypatch):
        kp = crypto.generate_keypair()
        draws = []
        real = crypto.os.urandom

        def counted(n):
            draws.append(n)
            return real(n)

        monkeypatch.setattr(crypto.os, "urandom", counted)
        crypto.asym_encrypt_each([b"a", b"b"], kp.public)
        assert draws == [2 * crypto.SYM_NONCE_LEN]

    def test_separate_encapsulations_do_not_open_together(self):
        kp = crypto.generate_keypair()
        first = crypto.asym_encrypt(b"marker", kp.public)
        second = crypto.asym_encrypt(b"key", kp.public)
        opened = crypto.asym_decrypt_each([first, second], kp)
        assert next(opened) == b"marker"
        with pytest.raises(crypto.MixedEncapsulation):
            next(opened)

    def test_wrong_key_fails_at_the_first_draw(self):
        sealed = crypto.asym_encrypt_each([b"a", b"b"], crypto.generate_keypair().public)
        opened = crypto.asym_decrypt_each(sealed, crypto.generate_keypair())
        with pytest.raises(DecryptionFailure):
            next(opened)

    def test_damaged_later_message_fails_authentication(self):
        kp = crypto.generate_keypair()
        first, second = crypto.asym_encrypt_each([b"a", b"b"], kp.public)
        damaged = second[:-1] + bytes([second[-1] ^ 1])
        opened = crypto.asym_decrypt_each([first, damaged], kp)
        assert next(opened) == b"a"
        with pytest.raises(DecryptionFailure):
            next(opened)

    def test_any_oversized_message_is_refused(self):
        kp = crypto.generate_keypair()
        with pytest.raises(PayloadTooLarge):
            crypto.asym_encrypt_each([b"k", b"x" * (crypto.ASYM_MAX_PAYLOAD + 1)], kp.public)


class TestSignatures:
    def test_valid_signature_verifies(self):
        kp = crypto.generate_keypair()
        sig = crypto.sign(kp, b"message")
        assert crypto.verify(kp.public, sig, b"message") is True

    def test_wrong_key_rejected(self):
        a = crypto.generate_keypair()
        b = crypto.generate_keypair()
        sig = crypto.sign(a, b"message")
        assert crypto.verify(b.public, sig, b"message") is False

    def test_wrong_message_rejected(self):
        kp = crypto.generate_keypair()
        sig = crypto.sign(kp, b"message")
        assert crypto.verify(kp.public, sig, b"other message") is False

    def test_unforgeability_proxy(self):
        # wrong key, wrong message, truncated signature, across random trials
        rng = np.random.default_rng(31)
        for _ in range(50):
            kp = crypto.generate_keypair()
            other = crypto.generate_keypair()
            msg = rng.bytes(48)
            sig = crypto.sign(kp, msg)
            assert crypto.verify(kp.public, sig, msg)
            assert not crypto.verify(other.public, sig, msg)
            assert not crypto.verify(kp.public, sig, msg + b"!")
            assert not crypto.verify(kp.public, sig[:-1], msg)


class TestEnvelope:
    def test_seal_open_round_trip(self):
        kp = crypto.generate_keypair()
        env = crypto.seal(b"a large payload " * 100, kp.public)
        assert crypto.open_envelope(env, kp) == b"a large payload " * 100

    def test_wrong_recipient_cannot_open(self):
        a = crypto.generate_keypair()
        b = crypto.generate_keypair()
        env = crypto.seal(b"payload", a.public)
        with pytest.raises(DecryptionFailure):
            crypto.open_envelope(env, b)


class TestLinkKey:
    def test_both_ends_derive_the_same_key(self):
        a, b = crypto.agreement_keys(np.random.default_rng(14).bytes(64))
        key = crypto.link_key(a, b.public_key(), b"3/7")
        assert len(key) == crypto.SYM_KEY_LEN
        assert crypto.link_key(b, a.public_key(), b"3/7") == key

    def test_the_key_is_bound_to_the_position_and_the_pair(self):
        a, b, c = crypto.agreement_keys(np.random.default_rng(15).bytes(96))
        keys = {crypto.link_key(a, b.public_key(), b"1"), crypto.link_key(a, b.public_key(), b"1/0"),
                crypto.link_key(a, c.public_key(), b"1"), crypto.link_key(b, c.public_key(), b"1")}
        assert len(keys) == 4

    def test_agreement_keys_are_one_per_32_bytes_in_order(self):
        drawn = np.random.default_rng(16).bytes(3 * crypto.KEY_HALF_LEN)
        keys = crypto.agreement_keys(drawn)
        assert [k.private_bytes_raw() for k in keys] == [drawn[:32], drawn[32:64], drawn[64:]]
        assert crypto.agreement_keys(b"") == []

    def test_a_node_key_agrees_with_a_key_pair_encryption_half(self):
        # The root's end of a chief link is its key pair's X25519 half.
        kp = crypto.generate_keypair(np.random.default_rng(17))
        [node] = crypto.agreement_keys(np.random.default_rng(18).bytes(32))
        root_public = kp.decryption_key.public_key()
        assert root_public.public_bytes_raw() == kp.public[:crypto.KEY_HALF_LEN]
        assert crypto.link_key(kp.decryption_key, node.public_key(), b"0") == crypto.link_key(
            node, root_public, b"0")


class TestParsedKeyPair:
    """A KeyPair parses its private halves once."""

    def test_parsed_on_first_use_only(self):
        kp = crypto.generate_keypair()
        assert "decryption_key" not in vars(kp) and "signing_key" not in vars(kp)
        crypto.sign(kp, b"m")
        assert "signing_key" in vars(kp) and "decryption_key" not in vars(kp)
        parsed = kp.signing_key
        crypto.sign(kp, b"n")
        crypto.asym_decrypt(crypto.asym_encrypt(b"k", kp.public), kp)
        assert kp.signing_key is parsed and "decryption_key" in vars(kp)

    def test_replaced_private_half_never_uses_a_stale_parse(self):
        kp = crypto.generate_keypair()
        other = crypto.generate_keypair()
        ct = crypto.asym_encrypt(b"for kp", kp.public)
        assert crypto.asym_decrypt(ct, kp) == b"for kp"
        crypto.sign(kp, b"m")
        swapped = dataclasses.replace(kp, private=other.private)
        with pytest.raises(DecryptionFailure):
            crypto.asym_decrypt(ct, swapped)
        assert crypto.sign(swapped, b"m") == crypto.sign(other, b"m")
        assert not crypto.verify(kp.public, crypto.sign(swapped, b"m"), b"m")

    def test_equality_and_hash_cover_the_byte_fields_only(self):
        kp = crypto.generate_keypair(np.random.default_rng(13))
        twin = crypto.generate_keypair(np.random.default_rng(13))
        crypto.sign(kp, b"m")
        crypto.asym_decrypt(crypto.asym_encrypt(b"k", kp.public), kp)
        assert kp == twin and hash(kp) == hash(twin)
        assert len({kp, twin}) == 1
        assert kp != dataclasses.replace(kp, private=crypto.generate_keypair().private)
        with pytest.raises(dataclasses.FrozenInstanceError):
            kp.private = twin.private


class TestSharingConfig:
    def test_group_of_two(self):
        cfg = SharingConfig.for_group(2)
        assert (cfg.total, cfg.threshold) == (5, 4)

    def test_group_of_one_needs_all_shards(self):
        cfg = SharingConfig.for_group(1)
        assert (cfg.total, cfg.threshold) == (3, 3)

    @pytest.mark.parametrize("n", [-1, 0, 128, 150])
    def test_invalid_configs_rejected(self, n):
        # below one participant, or more than GF(2^8)'s 255 nonzero points
        with pytest.raises(InvalidConfig):
            SharingConfig.for_group(n)


class TestShamir:
    def test_split_counts(self):
        cfg = SharingConfig.for_group(2)
        shards = crypto.shamir_split(b"the secret", cfg)
        assert len(shards) == 5
        assert sorted(s.index for s in shards) == [1, 2, 3, 4, 5]
        assert len({len(s.payload) for s in shards}) == 1

    def test_threshold_subset_reconstructs(self):
        cfg = SharingConfig.for_group(2)
        secret = b"exactly this secret"
        shards = crypto.shamir_split(secret, cfg)
        assert crypto.shamir_reconstruct(shards[:4], cfg) == secret

    def test_below_threshold_rejected_by_count(self):
        cfg = SharingConfig.for_group(2)
        shards = crypto.shamir_split(b"secret", cfg)
        with pytest.raises(InsufficientShards):
            crypto.shamir_reconstruct(shards[:3], cfg)

    def test_all_subsets_n3(self):
        # exhaustive: every 5-subset of 7 shards reconstructs identically
        cfg = SharingConfig.for_group(3)
        secret = bytes(range(64))
        shards = crypto.shamir_split(secret, cfg)
        for subset in itertools.combinations(shards, 5):
            assert crypto.shamir_reconstruct(list(subset), cfg) == secret

    def test_all_4_subsets_of_5_reconstruct_identically(self):
        cfg = SharingConfig.for_group(2)
        secret = b"identical everywhere"
        shards = crypto.shamir_split(secret, cfg)
        results = {
            crypto.shamir_reconstruct(list(sub), cfg)
            for sub in itertools.combinations(shards, 4)
        }
        assert results == {secret}

    def test_duplicate_index_rejected(self):
        cfg = SharingConfig.for_group(2)
        shards = crypto.shamir_split(b"secret", cfg)
        bad = [shards[0], shards[0], shards[1], shards[2]]
        with pytest.raises(DuplicateIndex):
            crypto.shamir_reconstruct(bad, cfg)

    def test_empty_secret_rejected(self):
        with pytest.raises(ValueError):
            crypto.shamir_split(b"", SharingConfig.for_group(1))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_threshold_sharpness(self, n):
        # every (n+2)-subset reconstructs; every smaller attempt is refused
        cfg = SharingConfig.for_group(n)
        secret = bytes(np.random.default_rng(n).bytes(32))
        shards = crypto.shamir_split(secret, cfg)
        for subset in itertools.combinations(shards, cfg.threshold):
            assert crypto.shamir_reconstruct(list(subset), cfg) == secret
        for size in range(1, cfg.threshold):
            with pytest.raises(InsufficientShards):
                crypto.shamir_reconstruct(shards[:size], cfg)

    def test_deterministic_split_under_rng(self):
        cfg = SharingConfig.for_group(3)
        s1 = crypto.shamir_split(b"seeded", cfg, np.random.default_rng(4))
        s2 = crypto.shamir_split(b"seeded", cfg, np.random.default_rng(4))
        assert s1 == s2

    def test_corrupted_shard_changes_reconstruction(self):
        cfg = SharingConfig.for_group(2)
        secret = b"sixteen byte key"
        shards = crypto.shamir_split(secret, cfg)
        payload = bytearray(shards[0].payload)
        payload[0] ^= 0xFF
        corrupted = [Shard(shards[0].index, bytes(payload))] + shards[1:4]
        assert crypto.shamir_reconstruct(corrupted, cfg) != secret

    @given(data=st.binary(min_size=1, max_size=96), n=st.integers(min_value=1, max_value=6))
    @settings(max_examples=40)
    def test_round_trip_property(self, data, n):
        cfg = SharingConfig.for_group(n)
        shards = crypto.shamir_split(data, cfg)
        assert crypto.shamir_reconstruct(shards[: cfg.threshold], cfg) == data


# Scalar reference for the sharing arithmetic: one field point and one byte
# at a time, with carry-less multiplication instead of the module's tables.

def _ref_gf_mul(a, b):
    product = 0
    while b:
        if b & 1:
            product ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return product


def _ref_gf_inv(a):
    return next(b for b in range(1, 256) if _ref_gf_mul(a, b) == 1)


def _ref_split(secret, cfg, rng):
    rand = rng.bytes((cfg.threshold - 1) * len(secret))
    coeffs = [secret] + [
        rand[k * len(secret):(k + 1) * len(secret)] for k in range(cfg.threshold - 1)
    ]
    shards = []
    for x in range(1, cfg.total + 1):
        payload = bytearray(len(secret))
        for j in range(len(secret)):
            acc = 0
            for row in reversed(coeffs):
                acc = _ref_gf_mul(acc, x) ^ row[j]
            payload[j] = acc
        shards.append(Shard(index=x, payload=bytes(payload)))
    return shards


def _ref_reconstruct(shards):
    secret = bytearray(len(shards[0].payload))
    for shard in shards:
        num, den = 1, 1
        for other in shards:
            if other.index != shard.index:
                num = _ref_gf_mul(num, other.index)
                den = _ref_gf_mul(den, shard.index ^ other.index)
        weight = _ref_gf_mul(num, _ref_gf_inv(den))
        for j, byte in enumerate(shard.payload):
            secret[j] ^= _ref_gf_mul(byte, weight)
    return bytes(secret)


class TestShamirPins:
    """Seeded sharing output pinned byte for byte: a kernel rewrite must
    produce the same shards and consume the same rng stream."""

    @pytest.mark.parametrize(
        "n,shards_sha256,rng_after",
        [
            (1, "b7bf638ab04477f836342e10bee0619b8a408379a3983aceac83bef61b6a9ff5",
             "0b8216fa818e5022"),
            (50, "3cc66face7a2aef28dd2d07adfacf1d9d4760443cf599d9c475ebb3bf37e9c37",
             "23b4c62dbb872ad1"),
            (127, "b03b761a4d920a81390ca547a559ccd4b843808935a7d01d289b77d9439d05f7",
             "d97a47534ac42a54"),
        ],
    )
    def test_seeded_split_bytes_pinned(self, n, shards_sha256, rng_after):
        cfg = SharingConfig.for_group(n)
        rng = np.random.default_rng(n)
        secret = bytes(range(64))
        shards = crypto.shamir_split(secret, cfg, rng)
        assert [s.index for s in shards] == list(range(1, cfg.total + 1))
        blob = b"".join(bytes([s.index]) + s.payload for s in shards)
        assert hashlib.sha256(blob).hexdigest() == shards_sha256
        assert rng.bytes(8).hex() == rng_after
        order = np.random.default_rng(n + 1000).permutation(cfg.total)
        subset = [shards[i] for i in order[: cfg.threshold]]
        assert crypto.shamir_reconstruct(subset, cfg) == secret

    @given(
        secret=st.binary(min_size=1, max_size=64),
        n=st.integers(min_value=1, max_value=7),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_reference(self, secret, n, seed, data):
        cfg = SharingConfig.for_group(n)
        shards = crypto.shamir_split(secret, cfg, np.random.default_rng(seed))
        assert shards == _ref_split(secret, cfg, np.random.default_rng(seed))
        picks = data.draw(
            st.lists(
                st.sampled_from(range(cfg.total)),
                min_size=cfg.threshold,
                max_size=cfg.threshold,
                unique=True,
            )
        )
        subset = [shards[i] for i in picks]
        assert crypto.shamir_reconstruct(subset, cfg) == secret
        # a corrupted pool reconstructs the reference's (wrong) bytes exactly
        flip = data.draw(st.integers(min_value=1, max_value=255))
        payload = bytearray(subset[0].payload)
        payload[-1] ^= flip
        subset[0] = Shard(subset[0].index, bytes(payload))
        assert crypto.shamir_reconstruct(subset, cfg) == _ref_reconstruct(subset)


class TestShamirStack:
    """One call over a stack of pools gives each pool's one-pool bytes."""

    @given(
        length=st.integers(min_value=1, max_value=40),
        groups=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=20),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_one_pool_calls(self, length, groups, seed, data):
        rng = np.random.default_rng(seed)
        pools, configs = [], []
        for n in groups:
            cfg = SharingConfig.for_group(n)
            shards = crypto.shamir_split(rng.bytes(length), cfg, rng)
            picks = data.draw(st.lists(
                st.sampled_from(range(cfg.total)), min_size=cfg.threshold,
                max_size=cfg.total, unique=True,
            ))
            pool = [shards[i] for i in picks]
            if data.draw(st.booleans()):  # a corrupted pool, reconstructed all the same
                flip = bytes([pool[0].payload[0] ^ data.draw(st.integers(1, 255))])
                pool[0] = Shard(pool[0].index, flip + pool[0].payload[1:])
            pools.append(pool)
            configs.append(cfg)
        # random bytes in the rows past each pool's own: they must not count
        width = max(len(pool) for pool in pools)
        stack = np.frombuffer(rng.bytes(len(pools) * width * length), dtype=np.uint8)
        stack = stack.reshape(len(pools), width, length).copy()
        for rows, pool in zip(stack, pools):
            rows[:len(pool)] = [np.frombuffer(s.payload, dtype=np.uint8) for s in pool]
        weights = np.array([crypto.lagrange_weights(tuple(s.index for s in pool), cfg, width)
                            for pool, cfg in zip(pools, configs)])
        secrets = crypto.shamir_reconstruct_each(stack, weights)
        assert secrets.shape == (len(pools), length) and secrets.dtype == np.uint8
        assert [row.tobytes() for row in secrets] == [
            crypto.shamir_reconstruct(pool, cfg) for pool, cfg in zip(pools, configs)
        ]

    def test_a_short_pool_fails_the_whole_stack_before_interpolation(self):
        # A pool's checks run when its weights are built, so a stack with
        # one failing pool never reaches the kernel.
        cfg = SharingConfig.for_group(2)
        stack = np.zeros((2, 4, 6), dtype=np.uint8)
        with pytest.raises(InsufficientShards):
            crypto.lagrange_weights((1, 2, 3), cfg, 4)
        with pytest.raises(DuplicateIndex):
            crypto.lagrange_weights((1, 1, 2, 3), cfg, 4)
        with pytest.raises(InvalidConfig):
            crypto.lagrange_weights((1, 2, 3, 6), cfg, 4)
        with pytest.raises(ValueError):  # a pool wider than the stack
            crypto.lagrange_weights((1, 2, 3, 4, 5), cfg, 4)
        column = crypto.lagrange_weights((1, 2, 3, 4), cfg, 4)
        assert column.shape == (4, 1)
        with pytest.raises(ValueError):  # one pool's weights short
            crypto.shamir_reconstruct_each(stack, np.array([column]))
        with pytest.raises(ValueError):  # weights for a wider stack
            crypto.shamir_reconstruct_each(stack[:, :3], np.array([column, column]))
