"""Gallery generation, enrollment, tamper injection, audits, experiments."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from biochain.crypto import InvalidConfig
from biochain.extractor import (
    IndexOutOfRange,
    StageParams,
    handoff_envelope,
    run_query_cycle,
)
from biochain.harness import (
    ExperimentConfig,
    audit,
    build_system,
    default_chain_spec,
    enroll,
    enrollment_stages,
    generate_synthetic_gallery,
    inject_template_noise,
    load_gallery,
    make_probes,
    run_experiment,
    save_gallery,
    setup_keys,
    tamper_extractor_block,
)
from biochain.matcher import Template, verify_tree
from biochain import crypto
from biochain.encoding import decode_vector
from helpers import chain_keys, flat_oracle_identify, perturb_template, restore_stage


# Reference to_text() and to_json() of run_experiment(small_config()): the
# report is a pure function of the config, so any byte that moves is a
# behaviour change.
GOLDEN = Path(__file__).parent / "golden"


def small_config(**overrides):
    defaults = dict(seed=11, gallery_size=30, template_dim=8, probes_per_identity=2, ranks=5)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestGalleryGeneration:
    def test_deterministic_files(self, tmp_path):
        config = small_config()
        g1 = generate_synthetic_gallery(config)
        g2 = generate_synthetic_gallery(config)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_gallery(p1, g1)
        save_gallery(p2, g2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_seed_changes_gallery(self):
        g1 = generate_synthetic_gallery(small_config(seed=1))
        g2 = generate_synthetic_gallery(small_config(seed=2))
        assert not np.array_equal(g1[0].vector, g2[0].vector)

    @staticmethod
    def _full_matrix_gallery(config):
        # the generator as first written: one N x N x d difference array per pass
        rng = np.random.default_rng([config.seed, 0])
        n, d = config.gallery_size, config.template_dim
        bound = config.separation_bound()
        scale = max(bound, 1.0)
        centers = rng.normal(scale=scale, size=(n, d))
        for _ in range(1000):
            dists = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
            np.fill_diagonal(dists, np.inf)
            bad = np.flatnonzero(dists.min(axis=1) < bound)
            if bad.size == 0:
                return centers
            centers[bad[0]] = rng.normal(scale=scale, size=d)
        raise InvalidConfig("could not separate")

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("size,dim,sigma", [(300, 8, 0.3), (120, 6, 0.3), (300, 16, 0.1)])
    def test_block_scan_matches_full_matrix(self, seed, size, dim, sigma):
        config = small_config(seed=seed, gallery_size=size, template_dim=dim,
                              probe_noise_sigma=sigma)
        expected = self._full_matrix_gallery(config)
        got = np.array([t.vector for t in generate_synthetic_gallery(config)])
        assert np.array_equal(got, expected)

    def test_unseparable_gallery_still_rejected(self):
        with pytest.raises(InvalidConfig):
            generate_synthetic_gallery(small_config(gallery_size=200, template_dim=2))

    def test_memory_bounded(self):
        config = small_config(seed=5, gallery_size=1500, template_dim=16)
        tracemalloc.start()
        try:
            generate_synthetic_gallery(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_pairwise_separation_bound(self):
        config = ExperimentConfig(seed=3, gallery_size=120, template_dim=16)
        gallery = generate_synthetic_gallery(config)
        assert len(gallery) == 120
        bound = config.separation_bound()
        vectors = np.stack([t.vector for t in gallery])
        dists = np.linalg.norm(vectors[:, None, :] - vectors[None, :, :], axis=2)
        np.fill_diagonal(dists, np.inf)
        assert dists.min() >= bound

    def test_zero_gallery_rejected(self):
        with pytest.raises(InvalidConfig):
            generate_synthetic_gallery(small_config(gallery_size=0))

    def test_gallery_file_round_trip(self, tmp_path):
        gallery = generate_synthetic_gallery(small_config())
        path = tmp_path / "gallery.txt"
        save_gallery(path, gallery)
        loaded = load_gallery(path)
        assert len(loaded) == len(gallery)
        for a, b in zip(gallery, loaded):
            assert a.identity == b.identity
            assert np.array_equal(a.vector, b.vector)  # %.17g round-trips exactly

    def test_duplicate_labels_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("biochain-gallery 1 2 2\nsame 0 0\nsame 1 1\n")
        with pytest.raises(ValueError):
            load_gallery(path)

    @pytest.mark.parametrize("text", [
        "biochain-gallery 1 2 2\na 0 0\n\nb 1 1\n",
        "biochain-gallery 1 2 2\na 0 0\nb 1 nan\n",
        "biochain-gallery 1 2 2\na 0 0\nb 1 one\n",
        "biochain-gallery 1 two 2\na 0 0\nb 1 1\n",
    ], ids=["blank-line", "nan-value", "word-value", "word-header"])
    def test_malformed_line_is_a_value_error_naming_the_file(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="bad.txt"):
            load_gallery(path)


class TestEnroll:
    def test_chain_keys_do_not_depend_on_the_gallery(self):
        gallery = generate_synthetic_gallery(small_config(gallery_size=60))
        small, large = enroll(gallery[:30], seed=4), enroll(gallery, seed=4)
        assert len(small.tree.chief_rows) != len(large.tree.chief_rows)
        assert chain_keys(small.chain) == chain_keys(large.chain)
        assert small.tree.public_key == large.tree.public_key

    def test_tree_shape_and_clean_audit(self):
        config = ExperimentConfig(seed=5, gallery_size=120, template_dim=16)
        gallery = generate_synthetic_gallery(config)
        system = enroll(gallery, fanout=50, seed=config.seed)
        assert [rows.stop - rows.start for rows in system.tree.chief_rows] == [50, 50, 20]
        assert system.chain.verify() is None
        assert verify_tree(system.tree) == []

    def test_reenroll_same_seed_same_root_hash(self):
        gallery = generate_synthetic_gallery(small_config())
        s1 = enroll(gallery, seed=9)
        s2 = enroll(gallery, seed=9)
        assert s1.tree.hash == s2.tree.hash
        assert s1.chain.snapshot.notary_hash == s2.chain.snapshot.notary_hash
        assert s1.tree.keys == s2.tree.keys

    def test_setup_keys_refuses_a_tree_built_under_another_seed(self):
        gallery = generate_synthetic_gallery(small_config())
        stages = enrollment_stages(gallery, default_chain_spec(), 8)
        tree, _ = build_system(gallery, stages, fanout=50, seed=8)
        with pytest.raises(ValueError, match="not drawn under seed 9"):
            setup_keys(tree, 9)
        assert tree.chief_channels == []
        setup_keys(tree, 8)
        enrolled = enroll(gallery, seed=8).tree
        assert tree.decision_commitments == enrolled.decision_commitments
        assert np.array_equal(tree.shards, enrolled.shards)

    def test_identity_chain_preserves_probes(self):
        gallery = generate_synthetic_gallery(small_config())
        system = enroll(gallery, seed=9)
        probe = gallery[4].vector + 0.125
        entry = run_query_cycle(system.chain, system.ledger, probe)
        feature = decode_vector(
            crypto.open_envelope(handoff_envelope(entry), system.tree.keys)
        )
        assert np.array_equal(feature, probe)


class TestTamperInjection:
    def test_full_fraction_flags_every_leaf(self):
        gallery = generate_synthetic_gallery(small_config())
        system = enroll(gallery, seed=13)
        chosen = inject_template_noise(system.flat_store, sigma=1.0, seed=13, fraction=1.0)
        assert chosen == list(range(len(gallery)))
        for gi in chosen:
            system.tree.write_template(gi, system.flat_store[gi])
        assert len(verify_tree(system.tree)) == len(gallery)

    def test_same_seed_same_noise_on_both_stores(self):
        gallery = generate_synthetic_gallery(small_config())
        system = enroll(gallery, seed=13)
        listed = system.tree.templates()
        a = inject_template_noise(listed, sigma=2.0, seed=40, fraction=0.5)
        b = inject_template_noise(system.flat_store, sigma=2.0, seed=40, fraction=0.5)
        assert a == b
        for gi in range(len(gallery)):
            assert np.array_equal(listed[gi].vector, system.flat_store[gi].vector)
            assert (gi in a) != np.array_equal(listed[gi].vector, gallery[gi].vector)
        # the tree's own templates are untouched until written
        assert verify_tree(system.tree) == []

    def test_large_sigma_collapses_traditional_rank1(self):
        config = ExperimentConfig(seed=21, gallery_size=120, template_dim=16)
        gallery = generate_synthetic_gallery(config)
        flat = [t.copy() for t in gallery]
        probes, truth = make_probes(gallery, config)
        inject_template_noise(flat, config.effective_noise_sigma(), seed=21)
        hits = [
            flat_oracle_identify(flat, p, "euclidean").identity == t
            for p, t in zip(probes, truth)
        ]
        assert np.mean(hits) < 0.5

    def test_tamper_block_detected_and_recoverable(self):
        gallery = generate_synthetic_gallery(small_config())
        system = enroll(gallery, seed=17)
        probe = gallery[0].vector
        baseline = run_query_cycle(system.chain, system.ledger, probe)
        base_feature = crypto.open_envelope(
            handoff_envelope(baseline), system.tree.keys
        )
        tamper_extractor_block(system.chain, 0, 1e-6)
        assert system.chain.verify() == 0
        restore_stage(system.chain, 0)
        recovered = run_query_cycle(system.chain, system.ledger, probe)
        assert crypto.open_envelope(
            handoff_envelope(recovered), system.tree.keys
        ) == base_feature

    def test_zero_epsilon_keeps_chain_intact(self):
        gallery = generate_synthetic_gallery(small_config())
        system = enroll(gallery, seed=17)
        tamper_extractor_block(system.chain, 0, 0.0)
        assert system.chain.verify() is None

    def test_out_of_range_block(self):
        gallery = generate_synthetic_gallery(small_config())
        system = enroll(gallery, seed=17)
        with pytest.raises(IndexOutOfRange):
            tamper_extractor_block(system.chain, 99, 1e-6)


class TestAudit:
    def test_clean_system(self):
        system = enroll(generate_synthetic_gallery(small_config()), seed=19)
        report = audit(system)
        assert report.clean
        assert report.lines == ["chain: intact", "tree: intact"]

    def test_single_tampered_leaf(self):
        system = enroll(generate_synthetic_gallery(small_config()), seed=19)
        perturb_template(system.tree, 7, np.eye(8)[0] * 1e-3)
        report = audit(system)
        assert not report.clean
        assert len(report.tree_locators) == 1
        assert report.tree_locators[0].global_index == 7

    def test_combined_chain_and_tree_tamper(self):
        system = enroll(generate_synthetic_gallery(small_config()), seed=19)
        tamper_extractor_block(system.chain, 2, 1e-6)
        perturb_template(system.tree, 3, np.eye(8)[1] * 1e-3)
        report = audit(system)
        assert report.chain_first_tampered == 2
        assert [l.global_index for l in report.tree_locators] == [3]
        assert not report.clean
        assert len(report.lines) == 2

    def test_store_record_count_mismatch(self):
        system = enroll(generate_synthetic_gallery(small_config()), seed=19)
        del system.flat_store[-5:]
        report = audit(system)
        assert report.store_mismatch and not report.clean
        assert report.lines[-1].startswith("store: 25 live records, archive holds 30;")

    def test_store_dimension_mismatch(self):
        system = enroll(generate_synthetic_gallery(small_config()), seed=19)
        system.flat_store[4] = Template("short", np.ones(7))
        report = audit(system)
        assert report.store_mismatch and not report.clean
        assert report.lines == [
            "chain: intact",
            "tree: intact",
            "store: 30 live records, archive holds 30; 1 live records are not of "
            "dimension 8; restore rewrites the store from the tree",
        ]

    def test_stage_count_mismatch_is_a_chain_finding(self):
        system = enroll(generate_synthetic_gallery(small_config()), seed=19)
        system.chain.blocks.pop()
        report = audit(system)
        assert not report.clean
        assert report.chain_first_tampered == len(system.chain.blocks)
        chain_lines = [line for line in report.lines if line.startswith("chain:")]
        assert chain_lines == [
            f"chain: {len(system.chain.blocks)} stages, snapshot holds "
            f"{len(system.chain.snapshot.blocks)}; restore rewrites the stage list from the snapshot"
        ]

    @pytest.mark.parametrize("unparseable", [False, True])
    def test_inconsistent_snapshot_is_a_finding(self, unparseable):
        system = enroll(generate_synthetic_gallery(small_config()), seed=19)
        index, stored_hash, params_bytes = system.chain.snapshot.blocks[0]
        if unparseable:
            params_bytes = params_bytes[:-3]
        else:
            params = StageParams.from_canonical(params_bytes)
            params.weights.flat[0] += 0.5
            params_bytes = params.canonical_bytes()
        system.chain.snapshot.blocks[0] = (index, stored_hash, params_bytes)
        report = audit(system)
        assert report.chain_first_tampered is None
        assert not report.snapshot_consistent and not report.clean
        assert report.lines[:2] == ["chain: intact", "tree: intact"]
        assert report.lines[2].startswith("snapshot: ")


@pytest.fixture(scope="module")
def report():
    return run_experiment(small_config())


class TestExperiment:
    def test_before_tamper_architectures_agree(self, report):
        assert report.before_traditional.rank1 == report.before_proposed.rank1
        assert report.before_traditional.cmc == report.before_proposed.cmc

    def test_proposed_retains_accuracy_exactly(self, report):
        assert report.after_proposed.rank1 == report.before_proposed.rank1
        assert report.after_proposed.cmc == report.before_proposed.cmc

    def test_traditional_strictly_degrades(self, report):
        assert report.after_traditional.rank1 < report.before_traditional.rank1

    def test_report_is_deterministic(self, report):
        again = run_experiment(small_config())
        assert again.to_text() == report.to_text()
        assert again.to_json() == report.to_json()

    def test_rank1_matches_cmc_at_rank_one(self, report):
        for arm in (
            report.before_traditional,
            report.before_proposed,
            report.after_traditional,
            report.after_proposed,
        ):
            assert arm.rank1 == arm.cmc.at(1)

    def test_cmc_monotone(self, report):
        for arm in (report.after_traditional, report.after_proposed):
            acc = arm.cmc.accuracy
            assert all(b >= a for a, b in zip(acc, acc[1:]))

    def test_audit_recorded_restore_clean(self, report):
        assert report.audit_lines[-1] == "after restore: clean"
        assert any("tampered leaf" in line for line in report.audit_lines)

    def test_report_matches_golden_files(self, report):
        assert report.to_text().encode() == (GOLDEN / "report.txt").read_bytes()
        assert report.to_json().encode() == (GOLDEN / "summary.json").read_bytes()

    def test_timings_populated(self, report):
        assert report.timings.probes == 30 * 2 * 2  # both proposed passes
        assert report.timings.total() > 0


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("gallery_size", 0),
            ("template_dim", 0),
            ("fanout", 0),
            ("probe_noise_sigma", -1.0),
            ("tamper_fraction", 0.0),
            ("tamper_fraction", 1.5),
            ("probes_per_identity", 0),
            ("ranks", 0),
        ],
    )
    def test_bad_values_rejected(self, field, value):
        config = small_config(**{field: value})
        with pytest.raises(InvalidConfig):
            config.validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("fanout", "5"),
            ("fanout", True),
            ("gallery_size", 2.0),
            ("seed", None),
            ("metric", 3),
            ("noise_sigma", "1"),
            ("tamper_fraction", False),
            ("probe_noise_sigma", float("nan")),
            ("chain_spec", {"kind": "dense"}),
            ("chain_spec", [1]),
        ],
    )
    def test_values_of_the_wrong_type_rejected(self, field, value):
        config = small_config(**{field: value})
        with pytest.raises(InvalidConfig):
            config.validate()

    @pytest.mark.parametrize("stage,key", [
        ({"kind": "activation", "activaton": "relu"}, "activaton"),
        ({"kind": "pooling", "pool_size": 2, "activation": "relu"}, "activation"),
        ({"kind": "dense", "kernel": 3}, "kernel"),
        ({"kind": "convolution", "out": 4}, "out"),
    ])
    def test_stage_keys_the_kind_does_not_read_rejected(self, stage, key):
        with pytest.raises(InvalidConfig, match=f"kind '{stage['kind']}' reads no key '{key}'"):
            small_config(chain_spec=[stage]).validate()

    @pytest.mark.parametrize("bias", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_stage_bias_rejected(self, bias):
        stage = {"kind": "convolution", "kernel": 1, "bias": bias}
        with pytest.raises(InvalidConfig, match=f"stage key 'bias' must be finite, got {bias!r}"):
            small_config(chain_spec=[stage]).validate()

    def test_every_key_a_stage_kind_reads_accepted(self):
        small_config(chain_spec=[
            {"kind": "dense", "out": 8, "init": "identity", "activation": "relu"},
            {"kind": "convolution", "kernel": 3, "bias": 0.5, "activation": "tanh"},
            {"kind": "pooling", "pool_size": 2},
            {"kind": "activation", "activation": "sigmoid"},
        ]).validate()

    def test_float_fields_take_ints_and_int_fields_take_numpy_ints(self):
        small_config(probe_noise_sigma=0, noise_sigma=2, tamper_fraction=1).validate()
        small_config(seed=np.int64(3), fanout=np.int32(5)).validate()

    def test_config_dict_round_trip(self):
        config = small_config(metric="cosine", noise_sigma=2.5)
        assert ExperimentConfig.from_dict(config.to_dict()) == config
