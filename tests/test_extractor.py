"""Chain hashing, stage math, the query-cycle protocol, and recovery."""

import dataclasses
import threading
import time

import numpy as np
import pytest

from biochain import crypto, extractor
from biochain.encoding import decode_vector, encode_vector
from biochain.extractor import (
    ExtractorChain,
    IntegrityFailure,
    NoSnapshot,
    SignatureRejected,
    StageParams,
    apply_stage,
    block_handle_update,
    chain_hashes,
    compose_stages,
    compute_block_hash,
    compute_notary_hash,
    handoff_envelope,
    notary_begin_cycle,
    notary_handle_update,
    run_query_cycle,
    ShapeMismatch,
    _auth_token,
    _turn_token,
    GENESIS_DIGEST,
)
from biochain.ledger import ClosedCycle, Ledger
from helpers import restore_stage


def random_stages(rng, dim=8, count=3):
    stages = []
    d = dim
    for _ in range(count):
        kind = rng.choice(["dense", "convolution", "pooling", "activation"])
        if kind == "dense":
            out = int(rng.integers(2, d + 3))
            stages.append(StageParams(
                kind="dense",
                weights=rng.normal(size=(out, d)),
                bias=rng.normal(size=out),
                activation=str(rng.choice(["linear", "relu", "tanh"])),
            ))
            d = out
        elif kind == "convolution" and d >= 4:
            k = int(rng.integers(2, min(4, d)))
            stages.append(StageParams(
                kind="convolution",
                weights=rng.normal(size=k),
                bias=np.array([float(rng.normal())]),
                activation="linear",
            ))
            d = d - k + 1
        elif kind == "pooling" and d >= 4:
            stages.append(StageParams(kind="pooling", pool_size=2))
            d = d // 2
        else:
            stages.append(StageParams(kind="activation", activation="tanh"))
    return stages, d


def build_chain(stages):
    root = crypto.generate_keypair()
    chain = ExtractorChain.build(stages, root.public)
    chain.take_snapshot()
    return chain, root


def identity_stages(dim, count=3):
    return [
        StageParams(kind="dense", weights=np.eye(dim), bias=np.zeros(dim))
        for _ in range(count)
    ]


class TestBlockHash:
    def test_deterministic(self):
        params = StageParams(kind="dense", weights=np.ones((2, 2)), bias=np.zeros(2))
        h1 = compute_block_hash(GENESIS_DIGEST, params)
        h2 = compute_block_hash(GENESIS_DIGEST, params)
        assert h1 == h2

    def test_tiny_weight_perturbation_changes_hash(self):
        w = np.ones((2, 2))
        before = compute_block_hash(GENESIS_DIGEST, StageParams(kind="dense", weights=w.copy(), bias=np.zeros(2)))
        w[0, 0] += 2.0 ** -23
        after = compute_block_hash(GENESIS_DIGEST, StageParams(kind="dense", weights=w, bias=np.zeros(2)))
        assert before != after

    def test_prev_hash_sensitivity(self):
        params = StageParams(kind="pooling", pool_size=2)
        assert compute_block_hash(GENESIS_DIGEST, params) != compute_block_hash(
            crypto.digest(b"other"), params
        )


class TestNotaryHash:
    def test_definition(self):
        prev = crypto.digest(b"prev")
        assert compute_notary_hash(prev) == crypto.digest_parts(
            b"biochain/notary-hash/v1", prev
        )

    def test_domain_separated_from_block_hash(self):
        prev = crypto.digest(b"prev")
        for params in (
            StageParams(kind="pooling", pool_size=2),
            StageParams(kind="activation"),
            StageParams(kind="dense", weights=np.zeros((1, 1)), bias=np.zeros(1)),
        ):
            assert compute_notary_hash(prev) != compute_block_hash(prev, params)

    def test_upstream_change_propagates_to_notary(self):
        chain, _ = build_chain(identity_stages(4))
        before = list(chain_hashes(b.params for b in chain.blocks))[-1]
        chain.blocks[0].params.weights[0, 0] += 1e-9
        assert list(chain_hashes(b.params for b in chain.blocks))[-1] != before


class TestApplyStage:
    def test_identity_dense(self):
        x = np.array([1.0, -2.0, 3.0])
        params = StageParams(kind="dense", weights=np.eye(3), bias=np.zeros(3))
        assert np.array_equal(apply_stage(x, params), x)

    def test_max_pool(self):
        params = StageParams(kind="pooling", pool_size=2)
        out = apply_stage(np.array([1.0, 5.0, 3.0, 2.0]), params)
        assert np.array_equal(out, np.array([5.0, 3.0]))

    def test_dense_against_naive_reference(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(5, 7))
        b = rng.normal(size=5)
        x = rng.normal(size=7)
        params = StageParams(kind="dense", weights=w, bias=b, activation="tanh")
        expected = np.empty(5)
        for i in range(5):
            acc = 0.0
            for j in range(7):
                acc += w[i, j] * x[j]
            expected[i] = np.tanh(acc + b[i])
        assert np.max(np.abs(apply_stage(x, params) - expected)) < 1e-9

    def test_convolution_against_naive_reference(self):
        rng = np.random.default_rng(13)
        kernel = rng.normal(size=3)
        bias = 0.25
        x = rng.normal(size=9)
        params = StageParams(kind="convolution", weights=kernel, bias=np.array([bias]))
        expected = []
        for i in range(len(x) - 3 + 1):
            acc = 0.0
            for j in range(3):
                acc += x[i + j] * kernel[j]
            expected.append(acc + bias)
        assert np.max(np.abs(apply_stage(x, params) - np.array(expected))) < 1e-9

    def test_shape_mismatch(self):
        params = StageParams(kind="dense", weights=np.eye(3), bias=np.zeros(3))
        with pytest.raises(ShapeMismatch):
            apply_stage(np.ones(4), params)

    def test_params_canonical_round_trip(self):
        rng = np.random.default_rng(14)
        params = StageParams(
            kind="dense", weights=rng.normal(size=(3, 4)), bias=rng.normal(size=3),
            activation="sigmoid",
        )
        restored = StageParams.from_canonical(params.canonical_bytes())
        assert restored.canonical_bytes() == params.canonical_bytes()


class TestBeginCycle:
    def test_turn_marker_only_for_first_block(self):
        chain, _ = build_chain(identity_stages(4))
        ledger = Ledger()
        captured = crypto.asym_encrypt(encode_vector(np.ones(4)), chain.notary.keys.public)
        entry = notary_begin_cycle(chain.notary, ledger, captured)
        token = _turn_token(entry.cycle_id)
        assert crypto.asym_decrypt(entry.em, chain.blocks[0].keys) == token
        for block in chain.blocks[1:]:
            with pytest.raises(crypto.DecryptionFailure):
                crypto.asym_decrypt(entry.em, block.keys)

    def test_capture_for_wrong_key_rejected(self):
        chain, _ = build_chain(identity_stages(4))
        stranger = crypto.generate_keypair()
        captured = crypto.asym_encrypt(b"data", stranger.public)
        with pytest.raises(crypto.DecryptionFailure):
            notary_begin_cycle(chain.notary, Ledger(), captured)

    def test_only_intended_block_acts(self):
        chain, _ = build_chain(identity_stages(4, count=4))
        ledger = Ledger()
        captured = crypto.asym_encrypt(encode_vector(np.ones(4)), chain.notary.keys.public)
        entry = notary_begin_cycle(chain.notary, ledger, captured)
        acted = [
            block.index
            for block in chain.blocks
            if block_handle_update(block, ledger, entry.cycle_id) is not None
        ]
        assert acted == [0]


class TestBlockHandleUpdate:
    def _begin(self, chain):
        ledger = Ledger()
        captured = crypto.asym_encrypt(encode_vector(np.ones(4)), chain.notary.keys.public)
        entry = notary_begin_cycle(chain.notary, ledger, captured)
        return ledger, entry.cycle_id

    def test_intended_block_publishes_to_notary(self):
        chain, _ = build_chain(identity_stages(4))
        ledger, cid = self._begin(chain)
        entry = block_handle_update(chain.blocks[0], ledger, cid)
        assert entry is not None
        # the new update is addressed back to the notary
        sym = crypto.asym_decrypt(entry.ek, chain.notary.keys)
        payload = decode_vector(crypto.sym_decrypt(entry.ed, sym))
        assert np.array_equal(payload, np.ones(4))
        signed = extractor._hop_message(cid, entry.ed, entry.ek, entry.em)
        assert crypto.verify(chain.blocks[0].keys.public, entry.sig, signed)

    def test_forged_signature_rejected_without_append(self):
        chain, _ = build_chain(identity_stages(4))
        ledger, cid = self._begin(chain)
        block_handle_update(chain.blocks[0], ledger, cid)
        notary_handle_update(chain.notary, ledger, cid)
        # adversary forges an update for block 1, signed with its own key
        adversary = crypto.generate_keypair()
        adversary_sym = crypto.generate_sym_key()
        ledger.append(
            cid,
            ed=crypto.sym_encrypt(encode_vector(np.zeros(4)), adversary_sym),
            ek=crypto.asym_encrypt(adversary_sym, chain.blocks[1].keys.public),
            em=crypto.asym_encrypt(_turn_token(cid), chain.blocks[1].keys.public),
            sig=crypto.sign(adversary, _auth_token(cid)),
        )
        before = len(ledger)
        with pytest.raises(SignatureRejected):
            block_handle_update(chain.blocks[1], ledger, cid)
        assert len(ledger) == before

    def test_non_intended_block_no_side_effects(self):
        chain, _ = build_chain(identity_stages(4))
        ledger, cid = self._begin(chain)
        before = len(ledger)
        assert block_handle_update(chain.blocks[2], ledger, cid) is None
        assert len(ledger) == before


class TestOneEncapsulationPerHop:
    def test_published_fields_share_one_ephemeral_key(self):
        chain, _ = build_chain(identity_stages(4))
        ledger = Ledger()
        captured = crypto.asym_encrypt(encode_vector(np.ones(4)), chain.notary.keys.public)
        entry = notary_begin_cycle(chain.notary, ledger, captured)
        recipient = chain.blocks[0].keys
        assert crypto.asym_decrypt(entry.em, recipient) == _turn_token(entry.cycle_id)
        assert crypto.asym_decrypt(entry.ek, recipient) == chain.notary.sym_key
        eph = crypto.KEY_HALF_LEN
        nonce = slice(eph, eph + crypto.SYM_NONCE_LEN)
        assert entry.ek[:eph] == entry.em[:eph]
        assert entry.ek[nonce] != entry.em[nonce]

    @staticmethod
    def _splice(ledger, cid, recipient, signer):
        # key and marker from two separate encapsulations to the right
        # recipient, under the real signature of the hop's sender
        sym = crypto.generate_sym_key()
        ledger.append(
            cid,
            ed=crypto.sym_encrypt(encode_vector(np.zeros(4)), sym),
            ek=crypto.asym_encrypt(sym, recipient),
            em=crypto.asym_encrypt(_turn_token(cid), recipient),
            sig=crypto.sign(signer, _auth_token(cid)),
        )

    def test_block_refuses_spliced_hop_without_append(self):
        chain, _ = build_chain(identity_stages(4))
        ledger = Ledger()
        captured = crypto.asym_encrypt(encode_vector(np.ones(4)), chain.notary.keys.public)
        cid = notary_begin_cycle(chain.notary, ledger, captured).cycle_id
        self._splice(ledger, cid, chain.blocks[0].keys.public, chain.notary.keys)
        before = len(ledger)
        with pytest.raises(SignatureRejected):
            block_handle_update(chain.blocks[0], ledger, cid)
        assert len(ledger) == before

    def test_notary_refuses_spliced_hop_without_append(self):
        chain, _ = build_chain(identity_stages(4))
        ledger = Ledger()
        captured = crypto.asym_encrypt(encode_vector(np.ones(4)), chain.notary.keys.public)
        cid = notary_begin_cycle(chain.notary, ledger, captured).cycle_id
        block_handle_update(chain.blocks[0], ledger, cid)
        self._splice(ledger, cid, chain.notary.keys.public, chain.blocks[0].keys)
        before = len(ledger)
        with pytest.raises(SignatureRejected):
            notary_handle_update(chain.notary, ledger, cid)
        assert len(ledger) == before


class TestOneHopOpener:
    """Each handler's contract around the one opener, ``_open_hop``."""

    @staticmethod
    def _begin(chain):
        ledger = Ledger()
        captured = crypto.asym_encrypt(encode_vector(np.ones(4)), chain.notary.keys.public)
        return ledger, notary_begin_cycle(chain.notary, ledger, captured).cycle_id

    @staticmethod
    def _stale_hop(ledger, cid, recipient, signer):
        # a hop sealed to the right party under the sender's signature, but
        # carrying another cycle's turn token
        sym = crypto.generate_sym_key()
        ek, em = crypto.asym_encrypt_each([sym, _turn_token("another-cycle")], recipient)
        ledger.append(cid, ed=crypto.sym_encrypt(encode_vector(np.ones(4)), sym), ek=ek, em=em,
                      sig=crypto.sign(signer, _auth_token(cid)))

    @staticmethod
    def _damage_key(ledger, cid, signer):
        # the newest hop again, with one bit of its wrapped key flipped,
        # signed anew by its sender so that only the key is at fault
        entry = ledger.latest(cid)
        ek = entry.ek[:-1] + bytes([entry.ek[-1] ^ 1])
        ledger.append(cid, ed=entry.ed, ek=ek, em=entry.em,
                      sig=crypto.sign(signer, extractor._hop_message(cid, entry.ed, ek, entry.em)))

    def test_block_ignores_a_stale_marker(self):
        chain, _ = build_chain(identity_stages(4))
        ledger, cid = self._begin(chain)
        self._stale_hop(ledger, cid, chain.blocks[0].keys.public, chain.notary.keys)
        before = len(ledger)
        assert block_handle_update(chain.blocks[0], ledger, cid) is None
        assert len(ledger) == before

    def test_notary_refuses_a_stale_marker(self):
        chain, _ = build_chain(identity_stages(4))
        ledger, cid = self._begin(chain)
        block_handle_update(chain.blocks[0], ledger, cid)
        self._stale_hop(ledger, cid, chain.notary.keys.public, chain.blocks[0].keys)
        with pytest.raises(SignatureRejected, match="stale or foreign turn marker"):
            notary_handle_update(chain.notary, ledger, cid)

    def test_notary_cannot_open_a_hop_addressed_to_a_block(self):
        chain, _ = build_chain(identity_stages(4))
        ledger, cid = self._begin(chain)
        with pytest.raises(crypto.DecryptionFailure):
            notary_handle_update(chain.notary, ledger, cid)
        assert chain.notary.progress[cid] == 0

    def test_each_refusal_names_the_expected_signer(self):
        chain, _ = build_chain(identity_stages(4))
        ledger, cid = self._begin(chain)
        forger = crypto.generate_keypair()
        extractor._publish(ledger, cid, encode_vector(np.ones(4)), crypto.generate_sym_key(),
                           chain.blocks[0].keys.public, forger)
        with pytest.raises(SignatureRejected, match="update not signed by the notary"):
            block_handle_update(chain.blocks[0], ledger, cid)
        extractor._publish(ledger, cid, encode_vector(np.ones(4)), crypto.generate_sym_key(),
                           chain.notary.keys.public, forger)
        with pytest.raises(SignatureRejected, match="update not signed by block 0"):
            notary_handle_update(chain.notary, ledger, cid)

    def test_a_damaged_key_is_refused_without_append(self):
        # The marker opens and the signature verifies, but the key does not
        # open under the marker's encapsulation: refused as a splice is.
        chain, _ = build_chain(identity_stages(4))
        ledger, cid = self._begin(chain)
        self._damage_key(ledger, cid, chain.notary.keys)
        before = len(ledger)
        with pytest.raises(SignatureRejected, match="not sealed with its turn marker"):
            block_handle_update(chain.blocks[0], ledger, cid)
        assert len(ledger) == before
        ledger, cid = self._begin(chain)
        block_handle_update(chain.blocks[0], ledger, cid)
        self._damage_key(ledger, cid, chain.blocks[0].keys)
        before = len(ledger)
        with pytest.raises(SignatureRejected, match="not sealed with its turn marker"):
            notary_handle_update(chain.notary, ledger, cid)
        assert len(ledger) == before

    @staticmethod
    def _replay_signature(ledger, cid, recipient):
        # A party with no private key appends its own payload, sealed to
        # the recipient, under the signature of the newest hop, which the
        # expected sender made in this very cycle.
        sym = crypto.generate_sym_key()
        ek, em = crypto.asym_encrypt_each([sym, _turn_token(cid)], recipient)
        ledger.append(cid, ed=crypto.sym_encrypt(encode_vector(np.full(4, 9.0)), sym),
                      ek=ek, em=em, sig=ledger.latest(cid).sig)

    def test_a_copied_signature_does_not_carry_a_block_another_payload(self):
        chain, _ = build_chain(identity_stages(4))
        ledger, cid = self._begin(chain)
        self._replay_signature(ledger, cid, chain.blocks[0].keys.public)
        before = len(ledger)
        with pytest.raises(SignatureRejected, match="update not signed by the notary"):
            block_handle_update(chain.blocks[0], ledger, cid)
        assert len(ledger) == before

    def test_a_copied_signature_does_not_carry_the_notary_another_payload(self):
        chain, _ = build_chain(identity_stages(4))
        ledger, cid = self._begin(chain)
        block_handle_update(chain.blocks[0], ledger, cid)
        self._replay_signature(ledger, cid, chain.notary.keys.public)
        before = len(ledger)
        with pytest.raises(SignatureRejected, match="update not signed by block 0"):
            notary_handle_update(chain.notary, ledger, cid)
        assert len(ledger) == before
        assert chain.notary.progress[cid] == 0

    def test_padded_cycle_still_expects_the_block_whose_turn_it_is(self):
        # After hop 0 the notary waits for block 1. Block 2 pads the cycle
        # with two junk entries, then appends its own signed reply to the
        # notary: seven entries, so a position read from the entry count
        # would skip block 1. The notary's own record of the hop refuses it.
        chain, _ = build_chain(identity_stages(4, count=4))
        ledger, cid = self._begin(chain)
        block_handle_update(chain.blocks[0], ledger, cid)
        notary_handle_update(chain.notary, ledger, cid)
        ledger.append(cid, ed=b"junk")
        ledger.append(cid, ed=b"junk")
        intruder = chain.blocks[2]
        extractor._publish(ledger, cid, encode_vector(np.ones(4)), intruder.sym_key,
                           chain.notary.keys.public, intruder.keys)
        assert len(ledger.entries(cid)) == 7
        assert chain.notary.progress[cid] == 1
        with pytest.raises(SignatureRejected, match="update not signed by block 1"):
            notary_handle_update(chain.notary, ledger, cid)
        assert len(ledger.entries(cid)) == 7


class TestRunQueryCycle:
    def test_identity_chain_returns_input(self):
        chain, root = build_chain(identity_stages(6))
        x = np.linspace(-1, 1, 6)
        final = run_query_cycle(chain, Ledger(), x)
        feature = decode_vector(crypto.open_envelope(handoff_envelope(final), root))
        assert np.array_equal(feature, x)

    def test_matches_plain_composition_byte_exactly(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            stages, _ = random_stages(rng)
            chain, root = build_chain(stages)
            x = rng.normal(size=8)
            final = run_query_cycle(chain, Ledger(), x)
            via_protocol = crypto.open_envelope(handoff_envelope(final), root)
            direct = encode_vector(compose_stages(stages, x))
            assert via_protocol == direct

    def test_forged_mid_chain_entry_aborts(self):
        chain, _ = build_chain(identity_stages(4, count=3))
        ledger = Ledger()
        captured = crypto.asym_encrypt(encode_vector(np.ones(4)), chain.notary.keys.public)
        entry = notary_begin_cycle(chain.notary, ledger, captured)
        cid = entry.cycle_id
        block_handle_update(chain.blocks[0], ledger, cid)
        notary_handle_update(chain.notary, ledger, cid)
        # inject a forged entry for block 1 mid-cycle
        adversary = crypto.generate_keypair()
        sym = crypto.generate_sym_key()
        ledger.append(
            cid,
            ed=crypto.sym_encrypt(encode_vector(np.zeros(4)), sym),
            ek=crypto.asym_encrypt(sym, chain.blocks[1].keys.public),
            em=crypto.asym_encrypt(_turn_token(cid), chain.blocks[1].keys.public),
            sig=crypto.sign(adversary, _auth_token(cid)),
        )
        with pytest.raises(SignatureRejected):
            for block in chain.blocks:
                block_handle_update(block, ledger, cid)

    def test_bad_probe_does_not_wedge_later_cycles(self):
        chain, root = build_chain(identity_stages(4))
        ledger = Ledger()
        with pytest.raises(ShapeMismatch):
            run_query_cycle(chain, ledger, np.ones(5))
        assert chain.notary.progress == {}
        x = np.array([0.5, -1.0, 2.0, 0.0])
        final = run_query_cycle(chain, ledger, x)
        feature = decode_vector(crypto.open_envelope(handoff_envelope(final), root))
        assert np.array_equal(feature, x)
        cycles = {e.cycle_id for e in ledger.entries()}
        assert len(cycles) == 2
        for cycle_id in cycles:
            with pytest.raises(ClosedCycle):
                ledger.append(cycle_id, ed=b"late")

    def test_hop_payload_that_fails_its_tag_stops_the_cycle(self, monkeypatch):
        chain, root = build_chain(identity_stages(4))
        ledger = Ledger()
        real_encrypt = crypto.sym_encrypt
        sealed = []

        def flip_second(message, key):
            # the second hop's ed: its last tag byte flipped
            ciphertext = real_encrypt(message, key)
            sealed.append(ciphertext)
            return ciphertext[:-1] + bytes([ciphertext[-1] ^ 1]) if len(sealed) == 2 else ciphertext

        monkeypatch.setattr(crypto, "sym_encrypt", flip_second)
        with pytest.raises(crypto.AuthenticationFailure):
            run_query_cycle(chain, ledger, np.ones(4))
        assert chain.notary.progress == {}
        monkeypatch.undo()
        final = run_query_cycle(chain, ledger, np.ones(4))
        assert np.array_equal(decode_vector(crypto.open_envelope(handoff_envelope(final), root)),
                              np.ones(4))

    def test_tampered_chain_refuses_to_run(self):
        chain, _ = build_chain(identity_stages(4))
        chain.blocks[1].params.weights[0, 0] += 1.0
        with pytest.raises(IntegrityFailure):
            run_query_cycle(chain, Ledger(), np.ones(4))

    def test_unsigned_initiation_never_yields_feature(self):
        # a full fake opening, signed by a non-notary key, moves no block
        chain, _ = build_chain(identity_stages(4))
        ledger = Ledger()
        adversary = crypto.generate_keypair()
        sym = crypto.generate_sym_key()
        cid = "forged-cycle"
        ledger.append(cid, ed=crypto.asym_encrypt(encode_vector(np.ones(4)), chain.notary.keys.public))
        ledger.append(
            cid,
            ed=crypto.sym_encrypt(encode_vector(np.ones(4)), sym),
            ek=crypto.asym_encrypt(sym, chain.blocks[0].keys.public),
            em=crypto.asym_encrypt(_turn_token(cid), chain.blocks[0].keys.public),
            sig=crypto.sign(adversary, _auth_token(cid)),
        )
        produced = []
        for block in chain.blocks:
            try:
                result = block_handle_update(block, ledger, cid)
                if result is not None:
                    produced.append(result)
            except SignatureRejected:
                pass
        assert produced == []


def record_trials(monkeypatch):
    """Record every block poll of ``run_query_cycle`` as (block, acted)."""
    trials = []
    real = extractor.block_handle_update

    def polled(block, ledger, cycle_id):
        result = real(block, ledger, cycle_id)
        trials.append((block.index, result is not None))
        return result

    monkeypatch.setattr(extractor, "block_handle_update", polled)
    return trials


class TestPollOrder:
    def test_honest_cycle_makes_one_marker_trial_per_hop(self, monkeypatch):
        chain, root = build_chain(identity_stages(4, count=5))
        trials = record_trials(monkeypatch)
        hop_opens, failures = [], []
        real_open = crypto.asym_decrypt_each

        def counted(ciphertexts, keys):
            # The first draw is the marker of a hop, opened as [em, ek].
            opened = real_open(ciphertexts, keys)
            if len(ciphertexts) == 2:
                hop_opens.append(keys)
            try:
                yield next(opened)
            except crypto.DecryptionFailure:
                failures.append(keys)
                raise
            yield from opened

        monkeypatch.setattr(crypto, "asym_decrypt_each", counted)
        x = np.array([0.5, -1.0, 2.0, 0.25])
        final = run_query_cycle(chain, Ledger(), x)
        assert trials == [(i, True) for i in range(5)]
        # five block hops and five notary hops, no marker tried in vain
        assert len(hop_opens) == 10
        assert failures == []
        feature = decode_vector(crypto.open_envelope(handoff_envelope(final), root))
        assert np.array_equal(feature, x)

    def test_marker_outside_the_chain_rejected_and_cycle_closed(self, monkeypatch):
        chain, _ = build_chain(identity_stages(4, count=3))
        chain.notary.route[1] = crypto.generate_keypair().public
        trials = record_trials(monkeypatch)
        ledger = Ledger()
        with pytest.raises(SignatureRejected):
            run_query_cycle(chain, ledger, np.ones(4))
        # hop 0 acts at once; at hop 1 every block tries the marker and refuses
        assert trials == [(0, True), (1, False), (2, False), (0, False)]
        (cycle_id,) = {e.cycle_id for e in ledger.entries()}
        assert chain.notary.progress == {}
        with pytest.raises(ClosedCycle):
            ledger.append(cycle_id, ed=b"late")
        ledger.append("later", ed=b"opens")  # the failed cycle left none open

    def test_permuted_route_reaches_the_same_blocks(self, monkeypatch):
        rng = np.random.default_rng(57)
        stages = [
            StageParams(kind="dense", weights=rng.normal(size=(4, 4)), bias=rng.normal(size=4),
                        activation="tanh")
            for _ in range(4)
        ]
        chain, root = build_chain(stages)
        order = [2, 0, 3, 1]
        chain.notary.route = [chain.blocks[i].keys.public for i in order]
        trials = record_trials(monkeypatch)
        x = rng.normal(size=4)
        final = run_query_cycle(chain, Ledger(), x)
        assert [index for index, acted in trials if acted] == order
        via_protocol = crypto.open_envelope(handoff_envelope(final), root)
        assert via_protocol == encode_vector(compose_stages([stages[i] for i in order], x))


class TestVerifyAndRestore:
    def test_intact_chain(self):
        chain, _ = build_chain(identity_stages(4, count=5))
        assert chain.verify() is None

    def test_no_snapshot(self):
        chain = ExtractorChain.build(identity_stages(4), crypto.generate_keypair().public)
        with pytest.raises(NoSnapshot):
            chain.verify()

    def test_single_tamper_localized_with_downstream_propagation(self):
        rng = np.random.default_rng(33)
        stages = [
            StageParams(kind="dense", weights=rng.normal(size=(4, 4)), bias=rng.normal(size=4))
            for _ in range(5)
        ]
        chain, _ = build_chain(stages)
        snapshot_hashes = [h for _, h, _ in chain.snapshot.blocks]
        chain.blocks[2].params.weights[0, 0] += 1e-6
        assert chain.verify() == 2
        *current, notary_hash = chain_hashes(b.params for b in chain.blocks)
        # blocks before the tamper keep their hashes, everything from the
        # tampered block onward changes, including the notary
        assert current[:2] == snapshot_hashes[:2]
        assert all(current[i] != snapshot_hashes[i] for i in range(2, 5))
        assert notary_hash != chain.snapshot.notary_hash

    def test_two_tampers_found_iteratively(self):
        chain, _ = build_chain(identity_stages(4, count=5))
        chain.blocks[1].params.weights[0, 0] += 1e-6
        chain.blocks[3].params.weights[1, 1] += 1e-6
        assert chain.verify() == 1
        restore_stage(chain, 1)
        assert chain.verify() == 3
        restore_stage(chain, 3)
        assert chain.verify() is None

    @pytest.mark.parametrize("live_count, first_differing", [(4, 3), (2, 2)])
    def test_stage_count_change_is_found(self, live_count, first_differing):
        # A stage appended to, or dropped from, the chain its snapshot
        # recorded: the prefix still hashes as before, so the first block
        # present on one side only is where the two disagree.
        rng = np.random.default_rng(36)
        stages = [
            StageParams(kind="dense", weights=rng.normal(size=(4, 4)), bias=rng.normal(size=4))
            for _ in range(4)
        ]
        chain, root = build_chain(stages[:3])
        changed = ExtractorChain.build(stages[:live_count], root.public)
        changed.snapshot = chain.snapshot
        assert changed.verify() == first_differing
        with pytest.raises(IntegrityFailure):
            run_query_cycle(changed, Ledger(), np.ones(4))

    def test_restore_recovers_exact_output(self):
        rng = np.random.default_rng(34)
        stages, _ = random_stages(rng)
        chain, root = build_chain(stages)
        x = rng.normal(size=8)
        baseline = crypto.open_envelope(
            handoff_envelope(run_query_cycle(chain, Ledger(), x)), root
        )
        chain.blocks[0].params.weights[0, 0] += 0.5
        restore_stage(chain, 0)
        assert chain.verify() is None
        recovered = crypto.open_envelope(
            handoff_envelope(run_query_cycle(chain, Ledger(), x)), root
        )
        assert recovered == baseline

    def test_restore_intact_block_is_noop(self):
        chain, _ = build_chain(identity_stages(4))
        before = chain.blocks[1].params.canonical_bytes()
        restore_stage(chain, 1)
        assert chain.blocks[1].params.canonical_bytes() == before

    def test_repeated_tamper_restore_is_stable(self):
        chain, _ = build_chain(identity_stages(4))
        for _ in range(10):
            chain.blocks[2].params.weights[0, 0] += 1.0
            assert chain.verify() == 2
            restore_stage(chain, 2)
            assert chain.verify() is None

    def test_transitive_propagation_random_positions(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            stages = [
                StageParams(kind="dense", weights=rng.normal(size=(4, 4)), bias=rng.normal(size=4))
                for _ in range(6)
            ]
            chain, _ = build_chain(stages)
            snapshot_hashes = [h for _, h, _ in chain.snapshot.blocks]
            k = int(rng.integers(0, 6))
            chain.blocks[k].params.bias[0] += 1e-9
            *current, _ = chain_hashes(b.params for b in chain.blocks)
            changed = [i for i in range(6) if current[i] != snapshot_hashes[i]]
            assert changed == list(range(k, 6))
            assert chain.verify() == k

    def test_snapshot_self_check_and_file_round_trip(self, tmp_path):
        chain, _ = build_chain(identity_stages(4))
        assert chain.snapshot.self_check()
        path = tmp_path / "snapshot.bin"
        chain.snapshot.save(path)
        from biochain.extractor import StableSnapshot

        loaded = StableSnapshot.load(path)
        assert loaded.blocks == chain.snapshot.blocks
        assert loaded.notary_hash == chain.snapshot.notary_hash
        assert loaded.self_check()

    def test_malformed_snapshot_record_is_a_value_error(self):
        chain, _ = build_chain(identity_stages(4))
        data = chain.snapshot.to_bytes()
        from biochain.encoding import encode_f64_array
        from biochain.extractor import StableSnapshot

        without_timestamp = data[: -len(encode_f64_array(np.array([0.0])))]
        for damaged in (data[:20], data + b"\x00", without_timestamp + encode_f64_array(np.array([]))):
            with pytest.raises(ValueError):
                StableSnapshot.from_bytes(damaged)


class TestOneHashRecurrence:
    @staticmethod
    def _count(monkeypatch, name):
        calls = []
        real = getattr(extractor, name)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(extractor, name, counted)
        return calls

    def test_block_hashes_then_the_notary_hash(self):
        stages = identity_stages(4, count=3)
        hashes = list(chain_hashes(stages))
        assert len(hashes) == 4
        prev = GENESIS_DIGEST
        for params, h in zip(stages, hashes):
            assert h == compute_block_hash(prev, params)
            prev = h
        assert hashes[-1] == compute_notary_hash(prev)
        assert list(chain_hashes([])) == [compute_notary_hash(GENESIS_DIGEST)]

    def test_snapshot_hashes_the_chain_once(self, monkeypatch):
        chain = ExtractorChain.build(identity_stages(4, count=5), crypto.generate_keypair().public)
        blocks = self._count(monkeypatch, "compute_block_hash")
        notary = self._count(monkeypatch, "compute_notary_hash")
        chain.take_snapshot()
        assert (len(blocks), len(notary)) == (5, 1)

    def test_verify_hashes_blocks_only(self, monkeypatch):
        chain, _ = build_chain(identity_stages(4, count=5))
        blocks = self._count(monkeypatch, "compute_block_hash")
        notary = self._count(monkeypatch, "compute_notary_hash")
        assert chain.verify() is None
        assert (len(blocks), len(notary)) == (5, 0)

    def test_self_check_refuses_each_kind_of_damage(self):
        chain, _ = build_chain(identity_stages(4, count=3))
        snapshot = chain.snapshot
        index, h, params = snapshot.blocks[1]
        other = StageParams(kind="activation", activation="relu").canonical_bytes()
        damaged = [
            dataclasses.replace(snapshot, notary_hash=bytes(32)),
            dataclasses.replace(snapshot, blocks=[*snapshot.blocks[:1], (index, bytes(32), params),
                                                  *snapshot.blocks[2:]]),
            dataclasses.replace(snapshot, blocks=[*snapshot.blocks[:1], (index, h, other),
                                                  *snapshot.blocks[2:]]),
            dataclasses.replace(snapshot, blocks=[*snapshot.blocks[:1], (index, h, params[:5]),
                                                  *snapshot.blocks[2:]]),
        ]
        assert snapshot.self_check()
        assert [d.self_check() for d in damaged] == [False] * 4


class TestThreadedPolling:
    def test_blocks_on_threads_reach_same_feature(self):
        rng = np.random.default_rng(55)
        stages, _ = random_stages(rng, count=4)
        chain, root = build_chain(stages)
        x = rng.normal(size=8)
        expected = encode_vector(compose_stages(stages, x))

        ledger = Ledger()
        captured = crypto.asym_encrypt(encode_vector(x), chain.notary.keys.public)
        entry = notary_begin_cycle(chain.notary, ledger, captured)
        cid = entry.cycle_id

        stop = threading.Event()

        def poll(block):
            while not stop.is_set():
                try:
                    block_handle_update(block, ledger, cid)
                except Exception:
                    pass
                time.sleep(0.0005)

        threads = [threading.Thread(target=poll, args=(b,)) for b in chain.blocks]
        for t in threads:
            t.start()
        final = None
        deadline = time.time() + 20
        try:
            for _ in range(len(chain.blocks)):
                while time.time() < deadline:
                    try:
                        final = notary_handle_update(chain.notary, ledger, cid)
                        break
                    except crypto.CryptoError:
                        time.sleep(0.0005)
        finally:
            # Stop the pollers however the notary's loop ends, so a failure
            # here ends the test instead of leaving four threads running.
            stop.set()
            for t in threads:
                t.join()
        assert final is not None
        assert crypto.open_envelope(handoff_envelope(final), root) == expected
