"""Tree construction, shard allocation, consensus, scrutiny, localization."""

import numpy as np
import pytest

from biochain import crypto, matcher, metrics
from biochain.crypto import InsufficientShards, Shard
from biochain.matcher import (
    ArchiveMissing,
    ConsensusResult,
    DecisionDocument,
    EmptyGallery,
    KeysNotSetUp,
    Template,
    TemplateArchive,
    build_hash_tree,
    build_tree,
    chief_draft_document,
    collect_consent,
    decision_key_commitment,
    leaf_hash,
    node_hash,
    restore_leaves,
    root_finalize,
    root_scrutinize,
    verify_tree,
)
from biochain.metrics import DimensionMismatch, flat_oracle_identify, flat_rank
from helpers import compromised_chief, dissenting_leaves, identify_probe, perturb_template


def make_gallery(n, d=8, seed=0, scale=3.0):
    rng = np.random.default_rng(seed)
    return [Template(f"id{i:03d}", rng.normal(size=d) * scale) for i in range(n)]


def chief_scores(tree, chief, probe, metric="euclidean"):
    score = metrics.get_metric(metric)
    return np.array([score(row, probe) for row in tree.vectors[chief.rows]])


def all_leaves(tree):
    return [leaf for chief in tree.chiefs for leaf in chief.leaves]


def chief_hashes(tree):
    return [node_hash(tree.current_leaf_hashes(rows)) for rows in tree.chief_rows]


class TestBuildTree:
    def test_120_templates_fanout_50(self):
        tree = build_tree(make_gallery(120), fanout=50)
        assert [len(c.leaves) for c in tree.chiefs] == [50, 50, 20]

    def test_exact_division_single_chief(self):
        tree = build_tree(make_gallery(50), fanout=50)
        assert [len(c.leaves) for c in tree.chiefs] == [50]

    def test_single_template(self):
        tree = build_tree(make_gallery(1), fanout=50)
        chief = tree.chiefs[0]
        assert len(chief.leaves) == 1
        assert (chief.sharing.total, chief.sharing.threshold) == (3, 3)

    def test_empty_gallery_rejected(self):
        with pytest.raises(EmptyGallery):
            build_tree([])

    def test_deterministic_under_rng(self):
        gallery = make_gallery(10)
        t1 = build_tree(gallery, fanout=4, rng=np.random.default_rng(1))
        t2 = build_tree(gallery, fanout=4, rng=np.random.default_rng(1))
        assert t1.hash == t2.hash
        assert t1.keys == t2.keys
        assert t1.chiefs[0].leaves[0].shard == t2.chiefs[0].leaves[0].shard

    def test_hash_structure_is_the_full_build_without_keys(self):
        gallery = make_gallery(12)
        full = build_tree(gallery, fanout=5, rng=np.random.default_rng(1))
        bare = build_hash_tree(gallery, crypto.generate_keypair(np.random.default_rng(1)), 5)
        assert bare.keys == full.keys  # the root's key pair is the stream's first draw
        assert bare.chief_rows == [c.rows for c in full.chiefs] == [slice(0, 5), slice(5, 10),
                                                                    slice(10, 12)]
        assert (bare.hash, bare.chief_hash_copies, bare.leaf_hashes) == (
            full.hash, full.chief_hash_copies, full.leaf_hashes)
        assert bare.chiefs == [] and bare.decision_commitments == {}
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
        chief = tree.chiefs[0]
        assert all(leaf.shard is not None for leaf in chief.leaves)
        assert chief.retained_shard is not None
        assert chief.index in tree.contribution_shards
        assert len(tree.retained_shards[chief.index]) == 49
        assert len(chief.leaves) + 1 + 1 + 49 == 2 * 50 + 1

    def test_n1_link_root_keeps_only_its_contribution(self):
        tree = build_tree(make_gallery(1))
        chief = tree.chiefs[0]
        assert chief.leaves[0].shard is not None
        assert chief.retained_shard is not None
        assert chief.index in tree.contribution_shards
        assert tree.retained_shards[chief.index] == []

    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    def test_indices_partition_the_full_range(self, n):
        tree = build_tree(make_gallery(n), fanout=max(n, 1))
        chief = tree.chiefs[0]
        indices = [leaf.shard.index for leaf in chief.leaves]
        indices.append(chief.retained_shard.index)
        indices.append(tree.contribution_shards[chief.index].index)
        indices.extend(s.index for s in tree.retained_shards[chief.index])
        assert sorted(indices) == list(range(1, 2 * n + 2))


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
        return tree, tree.chiefs[0], np.array(scores)

    def test_argmin(self):
        tree, chief, scores = self._scored_chief([0.9, 0.1, 0.5])
        doc = chief_draft_document(tree, chief, scores, "c", "euclidean")
        assert doc.identity == tree.identities[1]
        assert doc.score == 0.1

    def test_tie_breaks_to_lowest_leaf_index(self):
        tree, chief, scores = self._scored_chief([0.3, 0.3])
        doc = chief_draft_document(tree, chief, scores, "c", "euclidean")
        assert doc.identity == tree.identities[0]
        assert doc.leaf_index == 0

    def test_compromised_chief_can_draft_anything(self):
        tree, chief, scores = self._scored_chief([0.9, 0.1, 0.5])
        with compromised_chief(0, lambda doc: DecisionDocument(
            doc.chief_id, doc.cycle_id, "intruder", 0.7, doc.metric, doc.leaf_index
        )):
            doc = matcher.chief_draft_document(tree, chief, scores, "c", "euclidean")
        assert (doc.identity, doc.score) == ("intruder", 0.7)
        # constructible, but consensus will fail
        pool = collect_consent(chief, doc, scores)
        assert root_finalize(tree, chief, pool) is ConsensusResult.SCRUTINY


class TestConsent:
    def _tree(self, n=5):
        tree = build_tree(make_gallery(n, seed=4), fanout=n)
        chief = tree.chiefs[0]
        return tree, chief, chief_scores(tree, chief, tree.vectors[0] + 0.25)

    def test_honest_document_collects_all_shards(self):
        tree, chief, scores = self._tree()
        doc = chief_draft_document(tree, chief, scores, "cycle-1", "euclidean")
        pool = collect_consent(chief, doc, scores)
        assert len(pool.shards) == 5 + 1  # every leaf plus the chief
        assert pool.dissent.tolist() == [False] * 5

    def test_forged_document_loses_dissenting_shards(self):
        tree, chief, scores = self._tree()
        honest = chief_draft_document(tree, chief, scores, "cycle-1", "euclidean")
        forged = DecisionDocument(
            honest.chief_id, honest.cycle_id, "intruder",
            honest.score + 0.5, honest.metric, honest.leaf_index,
        )
        pool = collect_consent(chief, forged, scores)
        assert pool.dissent.any()  # at least the true best leaf refuses
        assert pool.dissent[honest.leaf_index]
        assert len(pool.shards) <= len(chief.leaves)  # at most n, chief included
        assert len(pool.shards) == 1 + int((~pool.dissent).sum())

    def test_tied_leaves_both_consent(self):
        tree = build_tree(make_gallery(3, d=2, seed=6), fanout=3)
        chief = tree.chiefs[0]
        scores = np.array([0.2, 0.2, 0.9])
        doc = chief_draft_document(tree, chief, scores, "c", "euclidean")
        assert doc.score == 0.2
        pool = collect_consent(chief, doc, scores)
        assert len(pool.shards) == 3 + 1
        assert not pool.dissent.any()


class TestFinalize:
    def _scored(self, n=5):
        tree = build_tree(make_gallery(n, seed=11), fanout=n)
        chief = tree.chiefs[0]
        return tree, chief, chief_scores(tree, chief, tree.vectors[2] + 0.1)

    def test_honest_pool_accepted(self):
        tree, chief, scores = self._scored()
        doc = chief_draft_document(tree, chief, scores, "cycle-1", "euclidean")
        pool = collect_consent(chief, doc, scores)
        assert root_finalize(tree, chief, pool) is ConsensusResult.ACCEPTED

    def test_forged_pool_triggers_scrutiny(self):
        tree, chief, scores = self._scored()
        honest = chief_draft_document(tree, chief, scores, "cycle-1", "euclidean")
        forged = DecisionDocument(
            honest.chief_id, honest.cycle_id, "intruder",
            honest.score + 1.0, honest.metric, honest.leaf_index,
        )
        pool = collect_consent(chief, forged, scores)
        assert root_finalize(tree, chief, pool) is ConsensusResult.SCRUTINY

    def test_corrupted_shard_fails_key_check(self):
        tree, chief, scores = self._scored()
        doc = chief_draft_document(tree, chief, scores, "cycle-1", "euclidean")
        pool = collect_consent(chief, doc, scores)
        damaged = bytearray(pool.shards[0].payload)
        damaged[0] ^= 0xFF
        pool.shards[0] = Shard(pool.shards[0].index, bytes(damaged))
        assert root_finalize(tree, chief, pool) is ConsensusResult.SCRUTINY

    def test_reconstruction_off_in_a_clamped_bit_fails_the_key_check(self):
        # X25519 clears bit 0 of its scalar's first byte, so a key that
        # differs from the dealt one only there has the same public half.
        tree, chief, scores = self._scored()
        doc = chief_draft_document(tree, chief, scores, "cycle-1", "euclidean")
        pool = collect_consent(chief, doc, scores)
        contribution = tree.contribution_shards[chief.index]
        dealt = crypto.shamir_reconstruct(pool.shards + [contribution], chief.sharing)
        off_by_one_bit = bytes([dealt[0] ^ 1]) + dealt[1:]
        target = pool.shards[0]
        for delta in range(1, 256):
            shard = Shard(target.index, bytes([target.payload[0] ^ delta]) + target.payload[1:])
            shards = [shard] + pool.shards[1:] + [contribution]
            if crypto.shamir_reconstruct(shards, chief.sharing) == off_by_one_bit:
                break
        else:
            pytest.fail("no change to byte 0 of the shard flips bit 0 of the key")
        pool.shards[0] = shard
        assert root_finalize(tree, chief, pool) is ConsensusResult.SCRUTINY

    def test_shards_are_reusable_across_cycles(self):
        tree, chief, _ = self._scored()
        held = [leaf.shard for leaf in chief.leaves]
        for cycle in ("cycle-1", "cycle-2", "cycle-3"):
            scores = chief_scores(tree, chief, tree.vectors[1] + 0.05)
            doc = chief_draft_document(tree, chief, scores, cycle, "euclidean")
            pool = collect_consent(chief, doc, scores)
            assert root_finalize(tree, chief, pool) is ConsensusResult.ACCEPTED
            assert [leaf.shard for leaf in chief.leaves] == held
            assert chief.retained_shard is not None
            assert chief.index in tree.contribution_shards
            assert len(tree.retained_shards[chief.index]) == len(chief.leaves) - 1


class TestScrutiny:
    def test_forged_document_corrected_to_flagged_minimum(self):
        tree = build_tree(make_gallery(4, seed=13), fanout=4)
        chief = tree.chiefs[0]
        scores = np.array([0.1, 0.4, 0.6, 0.9])
        forged = DecisionDocument(0, "c", "intruder", 0.8, "euclidean", 3)
        pool = collect_consent(chief, forged, scores)
        assert pool.dissent.tolist() == [True, True, True, False]  # every score under 0.8
        corrected = root_scrutinize(tree, chief, forged, scores, pool)
        assert corrected.identity == tree.identities[0]
        assert corrected.score == 0.1

    def test_valid_document_survives_compromised_leaf(self):
        tree = build_tree(make_gallery(4, seed=14), fanout=4)
        chief = tree.chiefs[0]
        scores = chief_scores(tree, chief, tree.vectors[1] + 0.01)
        doc = chief_draft_document(tree, chief, scores, "cycle-1", "euclidean")
        with dissenting_leaves({(0, 3)}):
            pool = matcher.collect_consent(chief, doc, scores)
        assert pool.dissent.tolist() == [False, False, False, True]
        assert root_finalize(tree, chief, pool) is ConsensusResult.SCRUTINY
        corrected = root_scrutinize(tree, chief, doc, scores, pool)
        assert corrected == doc

    def test_multiple_flagged_min_wins_tie_by_index(self):
        tree = build_tree(make_gallery(4, seed=15), fanout=4)
        chief = tree.chiefs[0]
        scores = np.array([0.3, 0.3, 0.5, 0.9])
        forged = DecisionDocument(0, "c", "intruder", 0.7, "euclidean", 3)
        pool = collect_consent(chief, forged, scores)
        corrected = root_scrutinize(tree, chief, forged, scores, pool)
        assert corrected.identity == tree.identities[0]
        assert corrected.leaf_index == 0

    def test_no_flags_means_document_stands(self):
        tree = build_tree(make_gallery(3, seed=16), fanout=3)
        chief = tree.chiefs[0]
        scores = chief_scores(tree, chief, tree.vectors[0])
        doc = chief_draft_document(tree, chief, scores, "cycle-1", "euclidean")
        pool = collect_consent(chief, doc, scores)
        assert not pool.dissent.any()
        assert root_scrutinize(tree, chief, doc, scores, pool) == doc


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
        with compromised_chief(1, lambda doc: DecisionDocument(
            doc.chief_id, doc.cycle_id, "intruder", doc.score + 0.9,
            doc.metric, doc.leaf_index,
        )):
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
        with dissenting_leaves({(chief.index, 0) for chief in tree.chiefs}):
            for _ in range(40):
                probe = rng.normal(size=8) * 3
                via_tree = identify_probe(tree, probe, "euclidean")
                via_scan = flat_oracle_identify(gallery, probe, "euclidean")
                assert via_tree.identity == via_scan.identity
                assert via_tree.scrutinized_chiefs == (0, 1, 2)
        assert identify_probe(tree, gallery[0].vector, "euclidean").scrutinized_chiefs == ()

    def test_one_reconstruction_per_chief(self, monkeypatch):
        tree = build_tree(make_gallery(12, seed=78), fanout=5)
        assert len(tree.chiefs) == 3
        calls = []
        real_reconstruct = crypto.shamir_reconstruct

        def counting(shards, config):
            calls.append(config)
            return real_reconstruct(shards, config)

        monkeypatch.setattr(crypto, "shamir_reconstruct", counting)
        identify_probe(tree, np.ones(8), "euclidean")
        assert calls == [chief.sharing for chief in tree.chiefs]


class TestIdentifyRegressions:
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_candidates_equal_flat_rank_with_partial_last_chief(self, metric):
        gallery = make_gallery(23, seed=70)
        gallery[9] = Template("twin", gallery[2].vector.copy())  # a tie across chiefs
        tree = build_tree(gallery, fanout=5)
        assert [len(c.leaves) for c in tree.chiefs] == [5, 5, 5, 5, 3]
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
        assert [(c.rows.start, c.rows.stop) for c in tree.chiefs] == [(0, 5), (5, 10), (10, 12)]

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

    def test_one_authenticated_hop_per_link(self, monkeypatch):
        tree = build_tree(make_gallery(12, seed=75), fanout=5)
        channels = [chief.channel for chief in tree.chiefs] + [
            leaf.channel for leaf in all_leaves(tree)
        ]
        assert all(isinstance(c, crypto.SymCipher) for c in channels)
        assert len({id(c) for c in channels}) == len(channels)
        used = {"encrypt": [], "decrypt": []}

        def recording(kind, fn):
            def call(data, key):
                used[kind].append(id(key))
                return fn(data, key)
            return call

        monkeypatch.setattr(crypto, "sym_encrypt", recording("encrypt", crypto.sym_encrypt))
        monkeypatch.setattr(crypto, "sym_decrypt", recording("decrypt", crypto.sym_decrypt))
        identify_probe(tree, np.ones(8), "euclidean")
        # the probe's own envelope is opened with a raw key, not a channel
        channel_ids = sorted(id(c) for c in channels)
        assert sorted(k for k in used["encrypt"] if k in channel_ids) == channel_ids
        assert sorted(k for k in used["decrypt"] if k in channel_ids) == channel_ids
        assert len(used["encrypt"]) == len(channels) + 1
        assert len(used["decrypt"]) == len(channels) + 1

    def test_leaf_copy_that_fails_authentication_stops_the_query(self, monkeypatch):
        tree = build_tree(make_gallery(12, seed=76), fanout=5)
        target = tree.chiefs[1].leaves[2].channel
        real_encrypt = crypto.sym_encrypt

        def flip_one(message, key):
            out = real_encrypt(message, key)
            if key is target:
                out = out[:-1] + bytes([out[-1] ^ 1])
            return out

        monkeypatch.setattr(crypto, "sym_encrypt", flip_one)
        with pytest.raises(crypto.AuthenticationFailure):
            identify_probe(tree, np.ones(8), "euclidean")
        monkeypatch.setattr(crypto, "sym_encrypt", real_encrypt)
        assert identify_probe(tree, np.ones(8), "euclidean").candidates


    def test_only_the_root_key_pair_is_parsed(self):
        tree = build_tree(make_gallery(12, seed=77), fanout=5)
        identify_probe(tree, np.ones(8), "euclidean")
        parsed = ("decryption_key", "signing_key")
        nodes = tree.chiefs + all_leaves(tree)
        assert not any(name in vars(node.keys) for node in nodes for name in parsed)
        assert "decryption_key" in vars(tree.keys)


class TestForgeryNeverReconstructs:
    def test_randomized_forgeries_all_fail(self):
        tree = build_tree(make_gallery(10, seed=27), fanout=10)
        chief = tree.chiefs[0]
        rng = np.random.default_rng(28)
        for trial in range(200):
            probe = rng.normal(size=8) * 3
            cycle = f"trial-{trial}"
            scores = chief_scores(tree, chief, probe)
            honest = chief_draft_document(tree, chief, scores, cycle, "euclidean")
            forged = DecisionDocument(
                honest.chief_id, cycle, "intruder",
                honest.score + float(rng.uniform(1e-9, 2.0)),
                honest.metric, honest.leaf_index,
            )
            pool = collect_consent(chief, forged, scores)
            assert len(pool.shards) + 1 <= chief.sharing.threshold - 1 + 1
            assert root_finalize(tree, chief, pool) is ConsensusResult.SCRUTINY


class TestAdminRecovery:
    @pytest.mark.parametrize("n", [1, 2, 10])
    def test_reserve_shards_recover_the_decision_key(self, n):
        # The root's reserve, its contribution and the chief's shard fall
        # one short of the threshold; one cooperating leaf completes it.
        tree = build_tree(make_gallery(n, seed=60), fanout=n)
        chief = tree.chiefs[0]
        shards = list(tree.retained_shards[chief.index])
        shards += [tree.contribution_shards[chief.index], chief.retained_shard]
        with pytest.raises(InsufficientShards):
            crypto.shamir_reconstruct(shards, chief.sharing)
        recovered = crypto.shamir_reconstruct(shards + [chief.leaves[0].shard], chief.sharing)
        assert decision_key_commitment(recovered) == tree.decision_commitments[chief.index]


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
        archive = TemplateArchive(gallery)
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
        archive = TemplateArchive(gallery)
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
        archive = TemplateArchive(gallery)
        tree = build_tree(gallery, fanout=6)
        before = chief_hashes(tree)
        restore_leaves(tree, verify_tree(tree), archive)
        assert chief_hashes(tree) == before

    def test_repeated_tamper_restore_is_stable(self):
        gallery = make_gallery(8, seed=36)
        archive = TemplateArchive(gallery)
        tree = build_tree(gallery, fanout=8)
        stable = chief_hashes(tree)
        rng = np.random.default_rng(37)
        for _ in range(10):
            perturb_template(tree, 3, rng.normal(size=8))
            restore_leaves(tree, verify_tree(tree), archive)
            assert chief_hashes(tree) == stable

    def test_missing_archive(self):
        gallery = make_gallery(4, seed=38)
        tree = build_tree(gallery, fanout=4)
        perturb_template(tree, 0, 1.0)
        with pytest.raises(ArchiveMissing):
            restore_leaves(tree, verify_tree(tree), None)
