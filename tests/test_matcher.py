"""Tree construction, shard allocation, consensus, scrutiny, localization."""

import contextlib
import dataclasses
import gc
import hashlib
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biochain import crypto, matcher, metrics
from biochain.crypto import InsufficientShards, Shard, SharingConfig
from biochain.matcher import (
    DecisionDocument,
    EmptyGallery,
    KeysNotSetUp,
    Template,
    build_hash_tree,
    build_tree,
    chief_drafts,
    collect_consent,
    decision_key_commitment,
    leaf_hash,
    node_hash,
    restore_leaves,
    root_finalize,
    root_scrutinize,
    setup_tree_keys,
    verify_tree,
)
from biochain.metrics import DimensionMismatch, Ranking, flat_rank
from helpers import (
    compromised_chief,
    corrupted_shard,
    dissenting_leaves,
    flat_oracle_identify,
    identify_probe,
    perturb_template,
)


def make_gallery(n, d=8, seed=0, scale=3.0):
    rng = np.random.default_rng(seed)
    return [Template(f"id{i:03d}", rng.normal(size=d) * scale) for i in range(n)]


def chief_scores(tree, rows, probe, metric="euclidean"):
    score = metrics.get_metric(metric)
    return np.array([score(row, probe) for row in tree.vectors[rows]])


def chief_sizes(tree):
    return [rows.stop - rows.start for rows in tree.chief_rows]


def held_shards(tree, chief, rows):
    """Chief ``chief``'s shards in tensor rows ``rows``, row k at field
    point k + 1."""
    return [Shard(k + 1, tree.shards[chief, k].tobytes()) for k in rows]


def chief_hashes(tree):
    return [node_hash(tree.current_leaf_hashes(rows)) for rows in tree.chief_rows]


class TestBuildTree:
    def test_120_templates_fanout_50(self):
        tree = build_tree(make_gallery(120), fanout=50)
        assert chief_sizes(tree) == [50, 50, 20]
        assert (len(tree.chief_channels), len(tree.leaf_channels)) == (3, 120)

    def test_exact_division_single_chief(self):
        tree = build_tree(make_gallery(50), fanout=50)
        assert chief_sizes(tree) == [50]

    def test_single_template(self):
        tree = build_tree(make_gallery(1), fanout=50)
        assert chief_sizes(tree) == [1]
        assert (len(tree.chief_channels), len(tree.leaf_channels)) == (1, 1)

    def test_empty_gallery_rejected(self):
        with pytest.raises(EmptyGallery):
            build_tree([])

    def test_deterministic_under_rng(self):
        gallery = make_gallery(10)
        t1 = build_tree(gallery, fanout=4, rng=np.random.default_rng(1))
        t2 = build_tree(gallery, fanout=4, rng=np.random.default_rng(1))
        assert t1.hash == t2.hash
        assert t1.keys == t2.keys
        assert np.array_equal(t1.shards, t2.shards)
        assert t1.decision_commitments == t2.decision_commitments

    def test_hash_structure_is_the_full_build_without_keys(self):
        gallery = make_gallery(12)
        full = build_tree(gallery, fanout=5, rng=np.random.default_rng(1))
        bare = build_hash_tree(gallery, crypto.generate_keypair(np.random.default_rng(1)), 5)
        assert bare.keys == full.keys  # the root's key pair is the stream's first draw
        assert bare.chief_rows == full.chief_rows == [slice(0, 5), slice(5, 10), slice(10, 12)]
        assert (bare.hash, bare.chief_hash_copies, bare.leaf_hashes) == (
            full.hash, full.chief_hash_copies, full.leaf_hashes)
        assert bare.chief_channels == [] and bare.decision_commitments == []
        perturb_template(bare, 7, 0.5)
        assert [loc.global_index for loc in verify_tree(bare)] == [7]

    def test_identify_without_key_set_up_is_a_named_error(self):
        gallery = make_gallery(12)
        tree = build_hash_tree(gallery, crypto.generate_keypair(), fanout=5)
        with pytest.raises(KeysNotSetUp):
            identify_probe(tree, gallery[3].vector, "euclidean")


class TestShardAllocation:
    def test_n50_link_holds_101_shards(self):
        tree = build_tree(make_gallery(50), fanout=50)
        assert tree.shards.shape == (1, 2 * 50 + 1, 64)
        assert tree.shards.dtype == np.uint8 and tree.shards.flags.c_contiguous
        assert tree.shards.any(axis=2).all()  # every row is dealt

    def test_short_last_chief_rows_past_its_shards_are_zero(self):
        tree = build_tree(make_gallery(7), fanout=3)  # chiefs of 3, 3 and 1
        assert tree.shards.shape == (3, 7, 64)
        assert tree.shards[:2].any(axis=2).all()
        assert tree.shards[2, :3].any(axis=1).all() and not tree.shards[2, 3:].any()

    def test_n1_link_root_keeps_only_its_contribution(self):
        # The leaf's row, the chief's and the root's contribution: no
        # reserve, and no row for the fanout the gallery does not fill.
        tree = build_tree(make_gallery(1))
        assert tree.shards.shape == (1, 3, 64)

    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    def test_indices_partition_the_full_range(self, n):
        # Any n + 2 rows, taken at those points, reconstruct the committed
        # secret: the leaves' and the chief's, the reserve with one leaf's.
        tree = build_tree(make_gallery(n), fanout=max(n, 1))
        config = SharingConfig.for_group(n)
        rng = np.random.default_rng(n)
        for rows in (range(n + 2), range(n - 1, 2 * n + 1),
                     rng.choice(2 * n + 1, size=n + 2, replace=False).tolist()):
            secret = crypto.shamir_reconstruct(held_shards(tree, 0, rows), config)
            assert decision_key_commitment(secret) == tree.decision_commitments[0]

    @staticmethod
    def pinned_tree():
        """A seeded N=130 tree under fanout 50: chiefs of 50, 50 and 30."""
        rng = np.random.default_rng(130)
        gallery = [Template(f"id{i:03d}", row) for i, row in enumerate(rng.normal(size=(130, 8)))]
        return build_tree(gallery, fanout=50, rng=np.random.default_rng(2026))

    def test_key_stream_is_pinned(self):
        # Every shard row in field-point order, every commitment, and every
        # channel key (one block under a fixed nonce) of the pinned tree: a
        # change to what the key set-up draws, or in what order, changes a
        # digest.
        tree = self.pinned_tree()
        assert chief_sizes(tree) == [50, 50, 30]
        dealt = hashlib.sha256()
        for n, held in zip(chief_sizes(tree), tree.shards):
            dealt.update(held[:2 * n + 1].tobytes())
        for commitment in tree.decision_commitments:
            dealt.update(commitment)
        assert dealt.hexdigest() == (
            "b8e096042afce74f8c78ffd8a89f1cfb84eb9e22825985dc6f4095876670e7e6")
        channels = tree.chief_channels + tree.leaf_channels
        blocks = b"".join(channel.encrypt(bytes(12), b"pin", None) for channel in channels)
        assert hashlib.sha256(blocks).hexdigest() == (
            "92207a41b69c80df502368f77f264cba08ae164a7a25ed47a52c9c2e07bd0bcf")

    def test_every_channel_of_the_pinned_tree_has_its_own_key(self):
        # 3 chief links and 130 leaf links: one block under one fixed nonce
        # gives 133 different ciphertexts only if no two links share a key.
        tree = self.pinned_tree()
        channels = tree.chief_channels + tree.leaf_channels
        blocks = {channel.encrypt(bytes(12), b"pin", None) for channel in channels}
        assert len(channels) == len(blocks) == 133

    def test_link_keys_are_the_documented_static_static_agreement(self):
        # Rebuilt from the raw key stream with the primitives themselves:
        # the root's X25519 half, then chief 0's draw, its 5 leaves' keys
        # and then its own, 32 bytes each.
        from cryptography.hazmat.primitives import hashes
        from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
        from cryptography.hazmat.primitives.kdf.hkdf import HKDF

        tree = build_tree(make_gallery(12), fanout=5, rng=np.random.default_rng(31))
        stream = np.random.default_rng(31)
        root = X25519PrivateKey.from_private_bytes(stream.bytes(64)[:32])
        drawn = stream.bytes(32 * 6)
        leaf, chief = (X25519PrivateKey.from_private_bytes(drawn[k:k + 32]) for k in (64, 160))

        def cipher(own, peer, position):
            shared = own.exchange(peer.public_key())
            key = HKDF(algorithm=hashes.SHA256(), length=32, salt=None,
                       info=b"biochain/link-key/v1" + position).derive(shared)
            return crypto.SymCipher(key)

        for built, expected in ((tree.chief_channels[0], cipher(root, chief, b"0")),
                                (tree.leaf_channels[2], cipher(leaf, chief, b"0/2"))):
            assert built.encrypt(bytes(12), b"pin", None) == expected.encrypt(bytes(12), b"pin", None)

    def test_ends_that_disagree_prepare_no_channel(self, monkeypatch):
        tree = build_hash_tree(make_gallery(12), crypto.generate_keypair(), fanout=5)
        real_link_key = crypto.link_key
        calls = itertools.count()

        def one_end_off(own, peer, position):
            # Call 7 is the leaf's end of chief 0's link to its third leaf.
            key = real_link_key(own, peer, position)
            return key if next(calls) != 7 else bytes([key[0] ^ 1]) + key[1:]

        monkeypatch.setattr(crypto, "link_key", one_end_off)
        with pytest.raises(crypto.CryptoError, match="derived different keys"):
            setup_tree_keys(tree)


class TestNodeHash:
    def test_single_child(self):
        child = crypto.digest(b"leaf")
        assert node_hash([child]) == crypto.digest_parts(b"biochain/node-hash/v1", child)

    def test_leaf_perturbation_propagates_to_root_only_via_its_chief(self):
        tree = build_tree(make_gallery(120), fanout=50)
        before_chiefs = chief_hashes(tree)
        assert before_chiefs == tree.chief_hash_copies
        assert node_hash(before_chiefs) == tree.hash
        index = 57  # chief 1, leaf 7
        before_leaf = leaf_hash(tree.identities[index], tree.vectors[index])
        assert before_leaf == tree.leaf_hashes[index]
        perturb_template(tree, index, np.eye(8)[0] * 1e-9)
        assert leaf_hash(tree.identities[index], tree.vectors[index]) != before_leaf
        after_chiefs = chief_hashes(tree)
        assert after_chiefs[1] != before_chiefs[1]
        assert after_chiefs[0] == before_chiefs[0]
        assert after_chiefs[2] == before_chiefs[2]
        assert node_hash(after_chiefs) != tree.hash

    def test_order_sensitivity(self):
        a, b = crypto.digest(b"a"), crypto.digest(b"b")
        assert node_hash([a, b]) != node_hash([b, a])


class TestLeafScore:
    def test_own_template_euclidean_zero(self):
        gallery = make_gallery(5)
        tree = build_tree(gallery, fanout=5)
        result = identify_probe(tree, gallery[2].vector.copy(), "euclidean")
        assert (result.identity, result.score) == ("id002", 0.0)

    def test_scaled_probe_cosine_zero(self):
        gallery = make_gallery(5)
        tree = build_tree(gallery, fanout=5)
        result = identify_probe(tree, 2.0 * gallery[0].vector, "cosine")
        assert result.identity == "id000"
        assert result.score == pytest.approx(0.0, abs=1e-12)

    def test_matches_standalone_metric(self):
        # Candidates equal the flat scan's bit for bit, in the same order,
        # with tied scores (duplicated templates) kept in enrollment order.
        gallery = make_gallery(12, seed=3)
        gallery += [Template(f"dup{t.identity}", t.vector.copy()) for t in gallery[::3]]
        tree = build_tree(gallery, fanout=5)
        rng = np.random.default_rng(3)
        for metric in ("euclidean", "cosine"):
            for _ in range(10):
                probe = rng.normal(size=8)
                got = identify_probe(tree, probe, metric).candidates
                assert got == flat_rank(gallery, probe, metric)
                assert all(type(c.score) is float for c in got)


class TestDraftDocument:
    def _scored_chief(self, scores):
        tree = build_tree(make_gallery(len(scores), d=2, seed=9), fanout=len(scores))
        return tree, np.array(scores)

    def test_argmin(self):
        tree, scores = self._scored_chief([0.9, 0.1, 0.5])
        [doc] = chief_drafts(tree, scores)
        assert doc.identity == tree.identities[1]
        assert doc.score == 0.1

    def test_tie_breaks_to_lowest_leaf_index(self):
        tree, scores = self._scored_chief([0.3, 0.3])
        [doc] = chief_drafts(tree, scores)
        assert doc.identity == tree.identities[0]

    def test_compromised_chief_can_draft_anything(self):
        tree, scores = self._scored_chief([0.9, 0.1, 0.5])
        with compromised_chief(0, lambda doc: DecisionDocument("intruder", 0.7)):
            [doc] = matcher.chief_drafts(tree, scores)
        assert (doc.identity, doc.score) == ("intruder", 0.7)
        # constructible, but consensus will fail
        dissent = collect_consent(tree, [doc], scores)
        assert root_finalize(tree, dissent).tolist() == [False]


class TestConsent:
    def _tree(self, n=5):
        tree = build_tree(make_gallery(n, seed=4), fanout=n)
        return tree, chief_scores(tree, tree.chief_rows[0], tree.vectors[0] + 0.25)

    def test_honest_document_collects_all_shards(self):
        tree, scores = self._tree()
        dissent = collect_consent(tree, chief_drafts(tree, scores), scores)
        assert dissent.tolist() == [False] * 5  # every leaf's shard, plus the chief's

    def test_forged_document_loses_dissenting_shards(self):
        tree, scores = self._tree()
        [honest] = chief_drafts(tree, scores)
        forged = DecisionDocument("intruder", honest.score + 0.5)
        dissent = collect_consent(tree, [forged], scores)
        assert dissent.any()  # at least the true best leaf refuses
        assert dissent[tree.identities.index(honest.identity)]
        assert int((~dissent).sum()) + 1 <= 5  # at most n, chief included

    def test_tied_leaves_both_consent(self):
        tree = build_tree(make_gallery(3, d=2, seed=6), fanout=3)
        scores = np.array([0.2, 0.2, 0.9])
        [doc] = chief_drafts(tree, scores)
        assert doc.score == 0.2
        assert not collect_consent(tree, [doc], scores).any()

    def test_each_leaf_answers_its_own_chief(self):
        tree = build_tree(make_gallery(7, d=2, seed=5), fanout=3)  # chiefs of 3, 3 and 1
        scores = np.array([0.5, 0.2, 0.9, 0.4, 0.6, 0.1, 0.3])
        documents = chief_drafts(tree, scores)
        assert documents == [DecisionDocument(tree.identities[row], score)
                             for row, score in ((1, 0.2), (5, 0.1), (6, 0.3))]
        forged = DecisionDocument("intruder", 0.45)
        dissent = collect_consent(tree, [documents[0], forged, documents[2]], scores)
        assert dissent.tolist() == [False, False, False, True, False, True, False]


class TestFinalize:
    def _scored(self, n=5):
        tree = build_tree(make_gallery(n, seed=11), fanout=n)
        return tree, chief_scores(tree, tree.chief_rows[0], tree.vectors[2] + 0.1)

    def _honest_dissent(self, tree, scores):
        return collect_consent(tree, chief_drafts(tree, scores), scores)

    def test_honest_pool_accepted(self):
        tree, scores = self._scored()
        assert root_finalize(tree, self._honest_dissent(tree, scores)).tolist() == [True]

    def test_forged_pool_triggers_scrutiny(self):
        tree, scores = self._scored()
        [honest] = chief_drafts(tree, scores)
        forged = DecisionDocument("intruder", honest.score + 1.0)
        dissent = collect_consent(tree, [forged], scores)
        assert root_finalize(tree, dissent).tolist() == [False]

    def test_corrupted_shard_fails_key_check(self):
        tree, scores = self._scored()
        dissent = self._honest_dissent(tree, scores)
        with corrupted_shard(tree, 0):
            assert root_finalize(tree, dissent).tolist() == [False]
        assert root_finalize(tree, dissent).tolist() == [True]

    def test_reconstruction_off_in_a_clamped_bit_fails_the_key_check(self):
        # X25519 clears bit 0 of its scalar's first byte, so a key derived
        # from a secret that differs from the dealt one only there would
        # have the same public half; the commitment tells them apart.
        tree, scores = self._scored()
        dissent = self._honest_dissent(tree, scores)
        config = SharingConfig.for_group(5)
        pool = held_shards(tree, 0, range(5 + 2))
        dealt = crypto.shamir_reconstruct(pool, config)
        off_by_one_bit = bytes([dealt[0] ^ 1]) + dealt[1:]
        target = pool[0]
        for delta in range(1, 256):
            shard = Shard(target.index, bytes([target.payload[0] ^ delta]) + target.payload[1:])
            if crypto.shamir_reconstruct([shard] + pool[1:], config) == off_by_one_bit:
                break
        else:
            pytest.fail("no change to byte 0 of the shard flips bit 0 of the secret")
        tree.shards[0, 0, 0] ^= delta
        assert root_finalize(tree, dissent).tolist() == [False]

    def test_shards_are_reusable_across_cycles(self):
        tree, _ = self._scored()
        held = tree.shards.copy()
        for _ in range(3):
            scores = chief_scores(tree, tree.chief_rows[0], tree.vectors[1] + 0.05)
            assert root_finalize(tree, self._honest_dissent(tree, scores)).tolist() == [True]
            assert np.array_equal(tree.shards, held)


class TestScrutiny:
    @staticmethod
    def _scrutinize(tree, document, scores, dissent):
        return root_scrutinize(tree, [document], scores, dissent, root_finalize(tree, dissent))[0]

    def test_forged_document_corrected_to_flagged_minimum(self):
        tree = build_tree(make_gallery(4, seed=13), fanout=4)
        scores = np.array([0.1, 0.4, 0.6, 0.9])
        forged = DecisionDocument("intruder", 0.8)
        dissent = collect_consent(tree, [forged], scores)
        assert dissent.tolist() == [True, True, True, False]  # every score under 0.8
        corrected = self._scrutinize(tree, forged, scores, dissent)
        assert corrected.identity == tree.identities[0]
        assert corrected.score == 0.1

    def test_valid_document_survives_compromised_leaf(self):
        tree = build_tree(make_gallery(4, seed=14), fanout=4)
        scores = chief_scores(tree, tree.chief_rows[0], tree.vectors[1] + 0.01)
        [doc] = chief_drafts(tree, scores)
        with dissenting_leaves({(0, 3)}):
            dissent = matcher.collect_consent(tree, [doc], scores)
        assert dissent.tolist() == [False, False, False, True]
        assert root_finalize(tree, dissent).tolist() == [False]
        assert self._scrutinize(tree, doc, scores, dissent) == doc

    def test_multiple_flagged_min_wins_tie_by_index(self):
        tree = build_tree(make_gallery(4, seed=15), fanout=4)
        scores = np.array([0.3, 0.3, 0.5, 0.9])
        forged = DecisionDocument("intruder", 0.7)
        dissent = collect_consent(tree, [forged], scores)
        corrected = self._scrutinize(tree, forged, scores, dissent)
        assert corrected == DecisionDocument(tree.identities[0], 0.3)

    def test_no_flags_means_document_stands(self):
        tree = build_tree(make_gallery(3, seed=16), fanout=3)
        scores = chief_scores(tree, tree.chief_rows[0], tree.vectors[0])
        [doc] = chief_drafts(tree, scores)
        dissent = collect_consent(tree, [doc], scores)
        assert not dissent.any()
        with corrupted_shard(tree, 1):  # a failed consensus without dissent
            assert self._scrutinize(tree, doc, scores, dissent) == doc


class TestIdentify:
    def test_exact_gallery_probe(self):
        gallery = make_gallery(20, seed=17)
        tree = build_tree(gallery, fanout=8)
        result = identify_probe(tree, gallery[7].vector, "euclidean")
        assert result.identity == "id007"
        assert result.score == 0.0

    def test_wrong_recipient_rejected(self):
        from biochain.encoding import encode_vector
        from biochain.matcher import identify

        gallery = make_gallery(4, seed=18)
        tree = build_tree(gallery, fanout=4)
        stranger = crypto.generate_keypair()
        env = crypto.seal(encode_vector(gallery[0].vector), stranger.public)
        with pytest.raises(crypto.DecryptionFailure):
            identify(tree, env, "euclidean")

    def test_probe_dimension_checked(self):
        tree = build_tree(make_gallery(4, seed=19), fanout=4)
        with pytest.raises(DimensionMismatch):
            identify_probe(tree, np.ones(5), "euclidean")

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_agrees_with_flat_oracle(self, metric):
        gallery = make_gallery(60, seed=20)
        tree = build_tree(gallery, fanout=25)  # 3 chiefs, remainder 10
        rng = np.random.default_rng(21)
        for _ in range(150):
            probe = rng.normal(size=8) * 3
            via_tree = identify_probe(tree, probe, metric)
            via_scan = flat_oracle_identify(gallery, probe, metric)
            assert via_tree.identity == via_scan.identity
            assert via_tree.score == via_scan.score

    def test_candidates_cover_gallery_sorted(self):
        gallery = make_gallery(30, seed=22)
        tree = build_tree(gallery, fanout=12)
        result = identify_probe(tree, np.zeros(8), "euclidean")
        assert len(result.candidates) == 30
        scores = [c.score for c in result.candidates]
        assert scores == sorted(scores)
        assert result.candidates[0].identity == result.identity

    def test_compromised_chief_equivalent_via_scrutiny(self):
        gallery = make_gallery(40, seed=23)
        tree = build_tree(gallery, fanout=15)
        rng = np.random.default_rng(24)
        with compromised_chief(1, lambda doc: DecisionDocument("intruder", doc.score + 0.9)):
            for _ in range(40):
                probe = rng.normal(size=8) * 3
                via_tree = identify_probe(tree, probe, "euclidean")
                via_scan = flat_oracle_identify(gallery, probe, "euclidean")
                assert via_tree.identity == via_scan.identity
                assert 1 in via_tree.scrutinized_chiefs

    def test_compromised_leaf_equivalent_and_flags_clear(self):
        gallery = make_gallery(40, seed=25)
        tree = build_tree(gallery, fanout=15)
        rng = np.random.default_rng(26)
        with dissenting_leaves({(chief, 0) for chief in range(len(tree.chief_rows))}):
            for _ in range(40):
                probe = rng.normal(size=8) * 3
                via_tree = identify_probe(tree, probe, "euclidean")
                via_scan = flat_oracle_identify(gallery, probe, "euclidean")
                assert via_tree.identity == via_scan.identity
                assert via_tree.scrutinized_chiefs == (0, 1, 2)
        assert identify_probe(tree, gallery[0].vector, "euclidean").scrutinized_chiefs == ()

    def test_one_reconstruction_per_chief(self, monkeypatch):
        tree = build_tree(make_gallery(12, seed=78), fanout=5)
        assert chief_sizes(tree) == [5, 5, 2]
        calls = []
        real_reconstruct, real_weights = crypto.shamir_reconstruct_each, crypto.lagrange_weights

        def counting(payloads, weights):
            secrets = real_reconstruct(payloads, weights)
            calls.append((weights.tolist(), secrets.shape))
            return secrets

        monkeypatch.setattr(crypto, "shamir_reconstruct_each", counting)
        monkeypatch.setattr(crypto, "shamir_reconstruct", None)  # never the one-pool form
        # the sharing arithmetic is the tree's: no query builds weights
        monkeypatch.setattr(crypto, "lagrange_weights", None)
        # one batched call per query, over every chief's full pool (the
        # last chief's smaller), and over none of a dissenting chief's
        pools = [tuple(range(1, 8)), tuple(range(1, 8)), (1, 2, 3, 4)]
        configs = [SharingConfig.for_group(n) for n in (5, 5, 2)]
        weights = [real_weights(pool, config, 7).tolist() for pool, config in zip(pools, configs)]
        identify_probe(tree, np.ones(8), "euclidean")
        with dissenting_leaves({(1, 0)}):
            result = identify_probe(tree, np.ones(8), "euclidean")
        assert result.scrutinized_chiefs == (1,)
        assert calls == [(weights, (3, 64)), (weights[::2], (2, 64))]


def reference_round(tree, probe, metric, rewrite=None, dissenters=()):
    """The consensus round one chief at a time, as it ran before the round
    was batched: scalar scores, a draft, consent, a one-pool reconstruct
    checked against the commitment, and scrutiny. ``rewrite`` is a
    compromised chief's (index, draft rewrite); ``dissenters`` are (chief,
    leaf) pairs that dissent whatever the document says. Returns the
    root's identity and score and the scrutinized chiefs."""
    score = metrics.get_metric(metric)
    decisions, scrutinized = [], []
    for chief, rows in enumerate(tree.chief_rows):
        n = rows.stop - rows.start
        scores = np.array([score(row, probe) for row in tree.vectors[rows]])

        def document(leaf):
            return DecisionDocument(tree.identities[rows.start + leaf], float(scores[leaf]))

        draft = document(int(np.argmin(scores)))
        if rewrite is not None and rewrite[0] == chief:
            draft = rewrite[1](draft)
        dissent = ~(draft.score <= scores)
        for chief_index, leaf in dissenters:
            if chief_index == chief:
                dissent[leaf] = True
        # consenting leaves' rows, the chief's row n and the root's row n + 1
        pool = held_shards(tree, chief, [*np.flatnonzero(~dissent).tolist(), n, n + 1])
        try:
            secret = crypto.shamir_reconstruct(pool, SharingConfig.for_group(n))
            accepted = decision_key_commitment(secret) == tree.decision_commitments[chief]
        except crypto.CryptoError:
            accepted = False
        if not accepted:
            scrutinized.append(chief)
            flagged = np.flatnonzero(dissent)
            if flagged.size:
                best = int(flagged[np.argmin(scores[flagged])])
                if scores[best] < draft.score:
                    draft = document(best)
        decisions.append(draft)
    best = min(decisions, key=lambda d: d.score)
    return best.identity, best.score, tuple(scrutinized)


class TestBatchedRound:
    @given(
        shape=st.integers(2, 7).flatmap(
            lambda fanout: st.tuples(st.just(fanout), st.integers(0, 3), st.integers(1, fanout - 1))
        ),
        metric=st.sampled_from(["euclidean", "cosine"]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_the_per_chief_round_under_faults(self, shape, metric, seed, data):
        # full chiefs plus a partial last one
        fanout, full_chiefs, remainder = shape
        n = full_chiefs * fanout + remainder
        rng = np.random.default_rng(seed)
        gallery = [Template(f"id{i:03d}", row) for i, row in enumerate(rng.normal(size=(n, 6)))]
        tree = build_tree(gallery, fanout=fanout, rng=rng)
        rows = data.draw(st.sets(st.integers(0, n - 1), max_size=3))
        dissenters = {(row // fanout, row % fanout) for row in rows}
        corrupted = data.draw(st.none() | st.integers(0, n - 1))
        compromised = data.draw(st.none() | st.integers(0, len(tree.chief_rows) - 1))
        shift = data.draw(st.sampled_from([-0.5, 0.0, 1e-9, 0.75]))
        rewrite = None
        if compromised is not None:
            rewrite = (compromised, lambda doc: DecisionDocument("forged", doc.score + shift))
        with contextlib.ExitStack() as faults:
            faults.enter_context(dissenting_leaves(dissenters))
            if corrupted is not None:
                faults.enter_context(corrupted_shard(tree, corrupted))
            if rewrite is not None:
                faults.enter_context(compromised_chief(*rewrite))
            for probe in (rng.normal(size=6), gallery[int(rng.integers(n))].vector * 2.0):
                result = identify_probe(tree, probe, metric)
                expected = reference_round(tree, probe, metric, rewrite, dissenters)
                assert (result.identity, result.score, result.scrutinized_chiefs) == expected
                assert result.candidates == flat_rank(gallery, probe, metric)


def integer_gallery():
    """130 templates of small nonzero integers, so every score is exact
    whatever the BLAS, and many (36 distinct rows) tie."""
    i, j = np.arange(130)[:, None], np.arange(8)
    v = (i * (2 * j + 3) + (i // 7) * (j + 1)) % 6 - 3
    return [Template(f"id{k:03d}", row) for k, row in enumerate((v + (v >= 0)).astype(np.float64))]


def candidate_digest(rankings):
    digest = hashlib.sha256()
    for ranking in rankings:
        for c in ranking:
            digest.update(repr((c.identity, c.score.hex(), c.metric)).encode())
    return digest.hexdigest()


class TestCandidateRanking:
    # Digests of the MatchScore lists that identify and flat_rank built
    # before candidate lists became Rankings.
    @pytest.mark.parametrize("metric,expected", [
        ("euclidean", "9c044aaee6131a0ecd7f6650fbe1ac8cae512646193d11fbfdb5301d212bc739"),
        ("cosine", "3a118b9400a529f06e77407f8bee858130605bf09aca96897c285aff0cbfb9ab"),
    ], ids=["euclidean", "cosine"])
    def test_candidates_keep_their_bits(self, metric, expected):
        gallery = integer_gallery()
        tree = build_tree(gallery, fanout=50, rng=np.random.default_rng(0))
        assert chief_sizes(tree) == [50, 50, 30]
        vectors = tree.vectors.copy()
        # an exact match with duplicates, a scaled template, and two others;
        # every probe meets tied scores
        probes = [vectors[5], vectors[77] * 2.0, np.arange(8.0) - 3.5, np.ones(8)]
        tree_lists = [identify_probe(tree, p, metric).candidates for p in probes]
        flat_lists = [flat_rank(gallery, p, metric) for p in probes]
        for ranking in flat_lists:
            scores = [c.score for c in ranking]
            assert len(set(scores)) < len(scores)
        assert all(isinstance(r, Ranking) for r in tree_lists + flat_lists)
        assert tree_lists == flat_lists
        assert candidate_digest(tree_lists) == candidate_digest(flat_lists) == expected

    def test_ranking_keeps_the_identities_of_its_query(self):
        gallery = make_gallery(12, seed=79)
        tree = build_tree(gallery, fanout=5)
        probe = gallery[3].vector.copy()
        before = identify_probe(tree, probe, "euclidean").candidates
        snapshot = list(before)
        tree.write_template(3, Template("renamed", probe.copy()))
        assert before == snapshot and before[0] == ("id003", 0.0, "euclidean")
        assert identify_probe(tree, probe, "euclidean").candidates[0].identity == "renamed"


class TestRoundOutcomes:
    # Digests of the outcomes identify gave while a decision document still
    # carried its chief, cycle, metric and leaf position.
    @pytest.mark.parametrize("metric,expected", [
        ("euclidean", "fce1d6b70ffabf47cd1305d55e9a59cdb8d8eb47ca75818f1ab02d32d90fa8e2"),
        ("cosine", "d45da85a2930e10f78875c60a0519c1e5d508def6c91919f6371b79cbc7c54e7"),
    ], ids=["euclidean", "cosine"])
    def test_outcomes_keep_their_bits(self, metric, expected):
        gallery = integer_gallery()
        tree = build_tree(gallery, fanout=50, rng=np.random.default_rng(0))
        assert chief_sizes(tree) == [50, 50, 30]
        vectors = tree.vectors.copy()
        probes = [vectors[5], vectors[77] * 2.0, vectors[129], np.arange(8.0) - 3.5, np.ones(8)]
        conditions = [contextlib.nullcontext()]
        conditions += [
            compromised_chief(chief, lambda doc: dataclasses.replace(
                doc, identity="forged", score=doc.score + 0.75))
            for chief in range(3)
        ]
        conditions.append(dissenting_leaves({(chief, 1) for chief in range(3)}))
        conditions.append(corrupted_shard(tree, tree.chief_rows[-1].start + 1))
        digest = hashlib.sha256()
        for condition in conditions:
            with condition:
                for probe in probes:
                    result = identify_probe(tree, probe, metric)
                    outcome = (result.identity, result.score.hex(), result.scrutinized_chiefs)
                    digest.update(repr(outcome).encode())
        assert digest.hexdigest() == expected


class TestIdentifyRegressions:
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_candidates_equal_flat_rank_with_partial_last_chief(self, metric):
        gallery = make_gallery(23, seed=70)
        gallery[9] = Template("twin", gallery[2].vector.copy())  # a tie across chiefs
        tree = build_tree(gallery, fanout=5)
        assert chief_sizes(tree) == [5, 5, 5, 5, 3]
        rng = np.random.default_rng(71)
        probes = [rng.normal(size=8) * 3 for _ in range(20)] + [gallery[2].vector * 2.0]
        for probe in probes:
            result = identify_probe(tree, probe, metric)
            assert result.candidates == flat_rank(gallery, probe, metric)

    def test_template_edits_after_a_query_are_seen(self):
        gallery = make_gallery(12, seed=72)
        tree = build_tree(gallery, fanout=5)
        probe = gallery[4].vector.copy()
        assert identify_probe(tree, probe, "euclidean").identity == "id004"
        perturb_template(tree, 4, 10.0)  # changed
        tree.write_template(11, Template("rebound", probe.copy()))  # replaced
        result = identify_probe(tree, probe, "euclidean")
        assert (result.identity, result.score) == ("rebound", 0.0)
        live = [t.copy() for t in gallery]
        live[4].vector = live[4].vector + 10.0
        live[11] = Template("rebound", probe.copy())
        assert result.candidates == flat_rank(live, probe, "euclidean")
        assert [(l.global_index, l.identity) for l in verify_tree(tree)] == [
            (4, "id004"), (11, "rebound")
        ]

    def test_gallery_is_one_matrix(self):
        gallery = make_gallery(12, seed=78)
        tree = build_tree(gallery, fanout=5)
        assert tree.vectors.shape == (12, 8) and tree.vectors.dtype == np.float64
        assert tree.vectors.flags.c_contiguous
        assert np.array_equal(tree.vectors, np.stack([t.vector for t in gallery]))
        assert tree.identities == [t.identity for t in gallery]
        assert tree.chief_rows == [slice(0, 5), slice(5, 10), slice(10, 12)]

    def test_editing_listed_templates_leaves_the_tree_unchanged(self):
        gallery = make_gallery(12, seed=79)
        tree = build_tree(gallery, fanout=5)
        listed = tree.templates()
        assert [(t.identity, t.vector.tolist()) for t in listed] == [
            (t.identity, t.vector.tolist()) for t in gallery
        ]
        listed[0].vector[0] += 1.0
        listed[1].identity = "renamed"
        listed[2] = Template("other", np.zeros(8))
        assert verify_tree(tree) == []
        assert np.array_equal(tree.vectors, np.stack([t.vector for t in gallery]))
        assert tree.identities == [t.identity for t in gallery]
        assert identify_probe(tree, gallery[0].vector, "euclidean").score == 0.0

    def test_wrong_dimension_write_rejected(self):
        gallery = make_gallery(6, seed=80)
        tree = build_tree(gallery, fanout=5)
        with pytest.raises(DimensionMismatch):
            tree.write_template(2, Template("short", np.ones(7)))
        assert verify_tree(tree) == []

    def test_zero_probe_under_cosine(self):
        tree = build_tree(make_gallery(12, seed=73), fanout=5)
        with pytest.raises(metrics.ZeroVector):
            identify_probe(tree, np.zeros(8), "cosine")
        assert identify_probe(tree, np.ones(8), "cosine").candidates

    @pytest.mark.parametrize("metric,probe", [
        ("euclidean", np.full(8, 1e300)),
        ("euclidean", np.r_[np.ones(7), np.inf]),
        ("euclidean", np.r_[np.nan, np.ones(7)]),
        ("cosine", np.r_[np.ones(7), np.inf]),
        ("cosine", np.r_[np.nan, np.ones(7)]),
    ], ids=["overflowing", "infinite-euclidean", "nan-euclidean", "infinite-cosine",
            "nan-cosine"])
    def test_non_finite_scores_are_refused(self, metric, probe):
        tree = build_tree(make_gallery(12, seed=73), fanout=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(metrics.NonFiniteFeature):
                identify_probe(tree, probe, metric)
        # cosine scales each vector first, so a huge probe still scores
        assert np.isfinite(identify_probe(tree, np.full(8, 1e300), "cosine").score)


class TestDelegation:
    @pytest.mark.parametrize("damage", ["short", "trailing"])
    def test_payload_header_must_match_its_size(self, damage):
        from biochain.encoding import encode_vector
        from biochain.matcher import identify

        gallery = make_gallery(12, seed=74)
        tree = build_tree(gallery, fanout=5)
        payload = encode_vector(gallery[3].vector)
        payload = payload[:-8] if damage == "short" else payload + bytes(8)
        with pytest.raises(ValueError):
            identify(tree, crypto.seal(payload, tree.public_key), "euclidean")
        # the failed query leaves nothing behind
        assert identify_probe(tree, gallery[3].vector, "euclidean").identity == "id003"

    @staticmethod
    def _recording_seam(monkeypatch):
        """Record every cipher the seal step and the open step draw, in
        the order drawn."""
        used = {"seal": [], "open": []}
        real = {"seal": crypto.sym_seal_each, "open": crypto.sym_open_each}

        def drawn(kind, ciphers):
            for cipher in ciphers:
                used[kind].append(id(cipher))
                yield cipher

        def recording(kind):
            return lambda data, ciphers, nonces: real[kind](data, drawn(kind, ciphers), nonces)

        monkeypatch.setattr(crypto, "sym_seal_each", recording("seal"))
        monkeypatch.setattr(crypto, "sym_open_each", recording("open"))
        return used

    def test_one_authenticated_hop_per_link(self, monkeypatch):
        # chiefs of 50, 50 and 30: each query seals and opens every chief
        # link once and then every leaf link once, in enrollment order
        tree = build_tree(make_gallery(130, seed=75), fanout=50)
        channels = tree.chief_channels + tree.leaf_channels
        assert len(channels) == 3 + 130
        assert all(isinstance(c, crypto.SymCipher) for c in channels)
        assert len({id(c) for c in channels}) == len(channels)
        used = self._recording_seam(monkeypatch)
        links = [id(c) for c in channels]
        for query in range(2):
            identify_probe(tree, np.full(8, float(query)), "euclidean")
            # first the probe envelope's own raw key, at either end
            assert used["seal"][1:] == links
            assert used["open"][1:] == links
            used["seal"].clear()
            used["open"].clear()

    @staticmethod
    def _flipping_seam(monkeypatch, target):
        """The seal step flips the last byte of the body sealed under
        ``target``, between the two ends of its link."""
        real_seal = crypto.sym_seal_each

        def flip(body, cipher):
            return body[:-1] + bytes([body[-1] ^ 1]) if cipher is target else body

        def flip_one(messages, ciphers, nonces):
            return map(flip, real_seal(messages, ciphers, nonces), ciphers)

        monkeypatch.setattr(crypto, "sym_seal_each", flip_one)

    def test_leaf_copy_that_fails_authentication_stops_the_query(self, monkeypatch):
        tree = build_tree(make_gallery(12, seed=76), fanout=5)
        self._flipping_seam(monkeypatch, tree.leaf_channels[tree.chief_rows[1].start + 2])
        with pytest.raises(crypto.AuthenticationFailure):
            identify_probe(tree, np.ones(8), "euclidean")
        monkeypatch.undo()
        assert identify_probe(tree, np.ones(8), "euclidean").candidates

    @pytest.mark.parametrize("link", ["last leaf", "last chief"])
    def test_corrupted_copy_at_the_end_of_a_short_last_chief_stops_the_query(
            self, monkeypatch, link):
        # 130 templates at fanout 50: the last chief holds 30 leaves, and
        # its last leaf's link is the last one a query crosses
        tree = build_tree(make_gallery(130, seed=80), fanout=50)
        assert chief_sizes(tree) == [50, 50, 30]
        target = tree.leaf_channels[-1] if link == "last leaf" else tree.chief_channels[-1]
        self._flipping_seam(monkeypatch, target)
        with pytest.raises(crypto.AuthenticationFailure):
            identify_probe(tree, np.ones(8), "euclidean")
        monkeypatch.undo()
        assert identify_probe(tree, tree.vectors[129], "euclidean").identity == "id129"

    @given(
        shape=st.integers(2, 7).flatmap(
            lambda fanout: st.tuples(st.just(fanout), st.integers(0, 3), st.integers(1, fanout - 1))
        ),
        metric=st.sampled_from(["euclidean", "cosine"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_matrix_call_scores_every_chief_slice_bit_for_bit(self, shape, metric, seed):
        # full chiefs plus a partial last one
        fanout, full_chiefs, remainder = shape
        n = full_chiefs * fanout + remainder
        rng = np.random.default_rng(seed)
        scales = 10.0 ** rng.integers(-6, 7, size=(n, 1))
        gallery = [Template(f"id{i:03d}", row) for i, row in enumerate(rng.normal(size=(n, 6)) * scales)]
        tree = build_hash_tree(gallery, crypto.generate_keypair(rng), fanout)
        assert tree.chief_rows[-1].stop - tree.chief_rows[-1].start == remainder
        probes = rng.normal(size=(n, 6)) * 10.0 ** rng.integers(-6, 7, size=(n, 1))
        score_rows = metrics.get_row_metric(metric)
        whole = score_rows(tree.vectors, probes)
        for rows in tree.chief_rows:
            sliced = score_rows(tree.vectors[rows], probes[rows])
            assert whole[rows].tobytes() == sliced.tobytes()

    def test_only_the_root_key_pair_is_parsed(self):
        # No node key pair outlives the key set-up, so none is kept parsed.
        def live_key_pairs():
            gc.collect()
            return sum(isinstance(o, crypto.KeyPair) for o in gc.get_objects())

        tree = build_hash_tree(make_gallery(12, seed=77), crypto.generate_keypair(), 5)
        before = live_key_pairs()
        setup_tree_keys(tree)
        identify_probe(tree, np.ones(8), "euclidean")
        assert live_key_pairs() == before
        assert "decryption_key" in vars(tree.keys)


class TestForgeryNeverReconstructs:
    def test_randomized_forgeries_all_fail(self):
        tree = build_tree(make_gallery(10, seed=27), fanout=10)
        rng = np.random.default_rng(28)
        for trial in range(200):
            probe = rng.normal(size=8) * 3
            scores = chief_scores(tree, tree.chief_rows[0], probe)
            [honest] = chief_drafts(tree, scores)
            forged = DecisionDocument("intruder", honest.score + float(rng.uniform(1e-9, 2.0)))
            dissent = collect_consent(tree, [forged], scores)
            # consenting leaves, the chief and the root: short of threshold
            assert int((~dissent).sum()) + 2 <= SharingConfig.for_group(10).threshold - 1
            assert root_finalize(tree, dissent).tolist() == [False]


class TestAdminRecovery:
    @pytest.mark.parametrize("n", [1, 2, 10])
    def test_reserve_shards_recover_the_decision_key(self, n):
        # The chief's row n, the root's contribution n + 1 and its reserve
        # n + 2..2n fall one short of the threshold; one cooperating leaf's
        # row completes it.
        tree = build_tree(make_gallery(n, seed=60), fanout=n)
        config = SharingConfig.for_group(n)
        shards = held_shards(tree, 0, range(n, 2 * n + 1))
        with pytest.raises(InsufficientShards):
            crypto.shamir_reconstruct(shards, config)
        recovered = crypto.shamir_reconstruct(shards + held_shards(tree, 0, [0]), config)
        assert decision_key_commitment(recovered) == tree.decision_commitments[0]


class TestVerifyTree:
    def test_intact(self):
        tree = build_tree(make_gallery(30, seed=29), fanout=10)
        assert verify_tree(tree) == []

    def test_single_leaf_located_exactly(self):
        tree = build_tree(make_gallery(120, seed=30), fanout=50)
        perturb_template(tree, 63, np.eye(8)[2] * 1e-6)  # chief 1, leaf 13
        locators = verify_tree(tree)
        assert len(locators) == 1
        loc = locators[0]
        assert (loc.chief_index, loc.leaf_index, loc.global_index) == (1, 13, 63)

    def test_random_subsets_localized_over_100_trials(self):
        gallery = make_gallery(60, seed=31)
        archive = [t.copy() for t in gallery]
        tree = build_tree(gallery, fanout=25)
        rng = np.random.default_rng(32)
        for _ in range(100):
            count = int(rng.integers(1, 6))
            chosen = sorted(rng.choice(60, size=count, replace=False).tolist())
            for gi in chosen:
                perturb_template(tree, gi, rng.normal(scale=0.5, size=8))
            locators = verify_tree(tree)
            assert sorted(l.global_index for l in locators) == chosen
            restore_leaves(tree, locators, archive)
            assert verify_tree(tree) == []


class TestRestoreLeaves:
    def test_tamper_all_then_restore_preserves_rank1(self):
        gallery = make_gallery(40, seed=33)
        archive = [t.copy() for t in gallery]
        tree = build_tree(gallery, fanout=20)
        rng = np.random.default_rng(34)
        probes = [t.vector + rng.normal(scale=0.01, size=8) for t in gallery]
        baseline = [identify_probe(tree, p, "euclidean").identity for p in probes]

        for gi in range(40):
            perturb_template(tree, gi, rng.normal(scale=5.0, size=8))
        locators = verify_tree(tree)
        assert len(locators) == 40
        restore_leaves(tree, locators, archive)
        recovered = [identify_probe(tree, p, "euclidean").identity for p in probes]
        assert recovered == baseline

    def test_restore_on_intact_tree_is_noop(self):
        gallery = make_gallery(6, seed=35)
        archive = [t.copy() for t in gallery]
        tree = build_tree(gallery, fanout=6)
        before = chief_hashes(tree)
        restore_leaves(tree, verify_tree(tree), archive)
        assert chief_hashes(tree) == before

    def test_repeated_tamper_restore_is_stable(self):
        gallery = make_gallery(8, seed=36)
        archive = [t.copy() for t in gallery]
        tree = build_tree(gallery, fanout=8)
        stable = chief_hashes(tree)
        rng = np.random.default_rng(37)
        for _ in range(10):
            perturb_template(tree, 3, rng.normal(size=8))
            restore_leaves(tree, verify_tree(tree), archive)
            assert chief_hashes(tree) == stable

    def test_missing_archive(self):
        # a locator past the archive's last record
        gallery = make_gallery(4, seed=38)
        tree = build_tree(gallery, fanout=4)
        perturb_template(tree, 3, 1.0)
        with pytest.raises(IndexError):
            restore_leaves(tree, verify_tree(tree), gallery[:3])
