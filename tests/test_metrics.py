"""Metric math, the flat identification reference, rank-k, and CMC."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biochain.matcher import Template
from biochain.metrics import (
    CMCData,
    DimensionMismatch,
    EmptyResults,
    MatchScore,
    Ranking,
    ZeroVector,
    cmc_curve,
    cosine_distance,
    cosine_rows,
    euclidean,
    euclidean_rows,
    flat_rank,
    rank_k_accuracy,
)
from helpers import flat_oracle_identify

finite_floats = st.floats(min_value=-100, max_value=100, allow_nan=False)
vectors = st.lists(finite_floats, min_size=1, max_size=12).map(np.array)


def euclidean_reference(a, b):
    # independently coded summation, no vectorization
    total = 0.0
    for x, y in zip(a, b):
        total += (x - y) ** 2
    return math.sqrt(total)


class TestEuclidean:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert euclidean(v, v) == 0.0

    def test_three_four_five(self):
        assert euclidean(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0

    def test_matches_reference_on_random_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a = rng.normal(size=8)
            b = rng.normal(size=8)
            assert abs(euclidean(a, b) - euclidean_reference(a, b)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            euclidean(np.ones(3), np.ones(4))

    @given(a=vectors)
    @settings(max_examples=50)
    def test_identity_of_indiscernibles(self, a):
        assert euclidean(a, a) == 0.0

    @given(data=st.data())
    @settings(max_examples=50)
    def test_symmetry_and_nonnegativity(self, data):
        a = data.draw(vectors)
        b = data.draw(st.lists(finite_floats, min_size=len(a), max_size=len(a)).map(np.array))
        assert euclidean(a, b) >= 0.0
        assert euclidean(a, b) == euclidean(b, a)


class TestCosineDistance:
    def test_scaled_vector_is_zero(self):
        v = np.array([1.0, -2.0, 0.5])
        assert cosine_distance(v, 2 * v) == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_unit_vectors(self):
        assert cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_antiparallel(self):
        v = np.array([1.0, 2.0])
        assert cosine_distance(v, -v) == pytest.approx(2.0)

    @pytest.mark.parametrize("scale", [1.5e-161, 1e-300, 1e200])
    def test_extreme_magnitudes(self, scale):
        # Squares of these underflow or overflow; the distance must not.
        a = np.array([scale, 0.0])
        assert cosine_distance(a, np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-15)
        assert cosine_distance(a, np.array([0.0, 1.0])) == pytest.approx(1.0)
        rows = cosine_rows(np.array([a, a]), np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert rows == pytest.approx([0.0, 1.0], abs=1e-15)

    @pytest.mark.parametrize(
        "a, b, bits",
        [
            ([0.3, -1.4], [1.7, 4.8], "0x1.da0c737be34e7p+0"),
            ([-4.3, 3.0, 3.9, -4.1, -10.0], [9.5, -4.0, -3.7, 7.8, 1.7], "0x1.ade20e9f4db9dp+0"),
            ([3.2, 3.7, 6.4], [-1.4, 5.2, 7.6], "0x1.3d8112c41758cp-3"),
            ([7.4, -4.5], [1.2, -2.0], "0x1.d67ee34cc2ec8p-4"),
        ],
    )
    def test_ordinary_scores_keep_their_bits(self, a, b, bits):
        # The bits of 1 - a.b / (|a| |b|) computed on the unscaled vectors:
        # scaling for range must not round any entry.
        a, b = np.array(a), np.array(b)
        expected = float.fromhex(bits)
        assert expected == 1.0 - np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert cosine_distance(a, b) == expected
        assert cosine_rows(np.array([a, b]), np.array([b, a])).tolist() == [expected, expected]

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            cosine_distance(np.zeros(3), np.ones(3))

    @given(data=st.data())
    @settings(max_examples=50)
    def test_range(self, data):
        a = data.draw(vectors)
        b = data.draw(st.lists(finite_floats, min_size=len(a), max_size=len(a)).map(np.array))
        if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
            return
        d = cosine_distance(a, b)
        assert -1e-9 <= d <= 2.0 + 1e-9


def _layout(matrix, layout):
    """The same values as ``matrix`` in another memory layout."""
    if layout == "fortran":
        return np.asfortranarray(matrix)
    if layout == "strided":
        wide = np.zeros((matrix.shape[0], 2 * matrix.shape[1]))
        wide[:, ::2] = matrix
        return wide[:, ::2]
    if layout == "reversed":
        return matrix[::-1, ::-1].copy()[::-1, ::-1]
    return matrix


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestRowKernels:
    @given(
        dim=st.integers(1, 300),
        rows=st.integers(1, 24),
        duplicates=st.integers(0, 6),
        one_probe=st.booleans(),
        layouts=st.tuples(*[st.sampled_from(["c", "fortran", "strided", "reversed"])] * 2),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_rows_equal_scalar_metrics_bit_for_bit(
        self, dim, rows, duplicates, one_probe, layouts, seed
    ):
        rng = np.random.default_rng(seed)

        def draw(count):
            # row magnitudes log-uniform over 1e-3 .. 1e3
            return rng.normal(size=(count, dim)) * 10.0 ** rng.uniform(-3, 3, size=(count, 1))

        templates = draw(rows)
        copies = rng.integers(0, rows, size=(duplicates, 2))
        templates[copies[:, 0]] = templates[copies[:, 1]]  # tied rows
        probes = np.repeat(draw(1), rows, axis=0) if one_probe else draw(rows)
        templates, probes = _layout(templates, layouts[0]), _layout(probes, layouts[1])

        for rows_fn, scalar_fn in ((euclidean_rows, euclidean), (cosine_rows, cosine_distance)):
            got = rows_fn(templates, probes)
            expected = [scalar_fn(t, p) for t, p in zip(templates, probes)]
            assert got.shape == (rows,)
            np.testing.assert_array_equal(_bits(got), _bits(expected))

    def test_zero_row_under_cosine(self):
        rng = np.random.default_rng(40)
        templates = rng.normal(size=(5, 7))
        probes = rng.normal(size=(5, 7))
        zeroed = templates.copy()
        zeroed[3] = 0.0
        with pytest.raises(ZeroVector):
            cosine_rows(zeroed, probes)
        with pytest.raises(ZeroVector):
            cosine_rows(templates, np.zeros((5, 7)))
        assert euclidean_rows(zeroed, probes)[3] == euclidean(np.zeros(7), probes[3])

    def test_shapes_checked(self):
        with pytest.raises(DimensionMismatch):
            euclidean_rows(np.ones((3, 4)), np.ones((3, 5)))
        with pytest.raises(DimensionMismatch):
            cosine_rows(np.ones(4), np.ones(4))


def small_gallery():
    return [
        Template("alice", np.array([0.0, 0.0])),
        Template("bob", np.array([3.0, 4.0])),
        Template("carol", np.array([0.0, 10.0])),
    ]


class TestFlatOracle:
    def test_exact_match_scores_zero(self):
        gallery = small_gallery()
        result = flat_oracle_identify(gallery, gallery[1].vector, "euclidean")
        assert result == MatchScore("bob", 0.0, "euclidean")

    def test_match_score_fields_repr_and_immutability(self):
        score = MatchScore("bob", 0.5, "euclidean")
        assert MatchScore._fields == ("identity", "score", "metric")
        assert (score.identity, score.score, score.metric) == ("bob", 0.5, "euclidean")
        assert repr(score) == "MatchScore(identity='bob', score=0.5, metric='euclidean')"
        with pytest.raises(AttributeError):
            score.score = 0.0

    def test_tie_goes_to_lower_index(self):
        gallery = [
            Template("first", np.array([1.0, 0.0])),
            Template("second", np.array([-1.0, 0.0])),
        ]
        result = flat_oracle_identify(gallery, np.array([0.0, 0.0]), "euclidean")
        assert result.identity == "first"

    def test_flat_rank_sorted_and_consistent(self):
        gallery = small_gallery()
        probe = np.array([0.1, 0.1])
        ranking = flat_rank(gallery, probe, "euclidean")
        assert isinstance(ranking, Ranking)
        assert [r.identity for r in ranking] == ["alice", "bob", "carol"]
        scores = [r.score for r in ranking]
        assert scores == sorted(scores)
        assert ranking[0].identity == flat_oracle_identify(gallery, probe, "euclidean").identity


class TestRanking:
    def ranking(self):
        # ties at 0.5 (rows 1 and 3) and at 2.0 (rows 0 and 4)
        return Ranking(["a", "b", "c", "d", "e"], np.array([2.0, 0.5, 1.0, 0.5, 2.0]), "euclidean")

    def test_sorted_ascending_ties_to_lowest_index(self):
        assert self.ranking() == [
            MatchScore("b", 0.5, "euclidean"), MatchScore("d", 0.5, "euclidean"),
            MatchScore("c", 1.0, "euclidean"), MatchScore("a", 2.0, "euclidean"),
            MatchScore("e", 2.0, "euclidean"),
        ]

    def test_indexing_and_slicing_behave_like_a_list(self):
        ranking = self.ranking()
        entries = list(ranking)
        assert len(ranking) == 5
        for i in range(-5, 5):
            assert ranking[i] == entries[i] and type(ranking[i]) is MatchScore
        for index in (5, -6, 100):
            with pytest.raises(IndexError):
                ranking[index]
        for span in (slice(None, 2), slice(-2, None), slice(1, 4), slice(None, None, -2),
                     slice(3, 1), slice(0, 100)):
            assert ranking[span] == entries[span]
        assert all(type(c) is MatchScore for c in ranking[:3])
        assert [type(s) for s in (ranking[0].score, ranking[:1][0].score)] == [float, float]

    def test_equality_in_both_directions(self):
        ranking = self.ranking()
        entries = list(ranking)
        assert ranking == entries and entries == ranking
        assert ranking == tuple(entries) and ranking == self.ranking()
        assert ranking != entries[:-1] and entries[:-1] != ranking
        swapped = [entries[1], entries[0], *entries[2:]]
        assert ranking != swapped and swapped != ranking
        assert ranking != entries + [entries[0]]
        assert ranking != "abcde" and ranking != 5

    def test_immutable_and_unhashable(self):
        ranking = self.ranking()
        with pytest.raises(TypeError):
            ranking[0] = MatchScore("z", 0.0, "euclidean")
        with pytest.raises(TypeError):
            del ranking[0]
        for array in (ranking.scores, ranking.order):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        with pytest.raises(TypeError):
            hash(ranking)

    def test_caller_arrays_are_neither_frozen_nor_shared(self):
        identities, scores = ["a", "b"], np.array([1.0, 0.0])
        ranking = Ranking(identities, scores, "cosine")
        identities[1], scores[1] = "z", 5.0
        assert ranking == [MatchScore("b", 0.0, "cosine"), MatchScore("a", 1.0, "cosine")]

    def test_empty(self):
        ranking = Ranking([], np.zeros(0), "euclidean")
        assert len(ranking) == 0 and ranking == [] and ranking[:3] == []
        with pytest.raises(IndexError):
            ranking[0]


class TestRankK:
    def test_exact_probes_are_rank1(self):
        gallery = small_gallery()
        results = [flat_rank(gallery, t.vector, "euclidean") for t in gallery]
        truth = [t.identity for t in gallery]
        assert rank_k_accuracy(results, truth, 1) == 1.0

    def test_truth_never_present_is_zero(self):
        gallery = small_gallery()
        results = [flat_rank(gallery, t.vector, "euclidean") for t in gallery]
        assert rank_k_accuracy(results, ["nobody"] * 3, 1) == 0.0
        assert rank_k_accuracy(results, ["nobody"] * 3, 3) == 0.0

    def test_hand_built_fixture(self):
        # four probes, candidate lists built by hand; expected fractions
        # counted manually: truth at positions 1, 2, 3, and absent
        lists = [
            [MatchScore("a", 0.1, "euclidean"), MatchScore("b", 0.2, "euclidean"),
             MatchScore("c", 0.3, "euclidean")],
            [MatchScore("b", 0.1, "euclidean"), MatchScore("a", 0.2, "euclidean"),
             MatchScore("c", 0.3, "euclidean")],
            [MatchScore("b", 0.1, "euclidean"), MatchScore("c", 0.2, "euclidean"),
             MatchScore("a", 0.3, "euclidean")],
            [MatchScore("b", 0.1, "euclidean"), MatchScore("c", 0.2, "euclidean"),
             MatchScore("d", 0.3, "euclidean")],
        ]
        truth = ["a", "a", "a", "a"]
        assert rank_k_accuracy(lists, truth, 1) == 0.25
        assert rank_k_accuracy(lists, truth, 2) == 0.5
        assert rank_k_accuracy(lists, truth, 3) == 0.75

    def test_empty_results_rejected(self):
        with pytest.raises(EmptyResults):
            rank_k_accuracy([], [], 1)


class TestCMC:
    def test_exact_probes_flat_at_one(self):
        gallery = small_gallery()
        results = [flat_rank(gallery, t.vector, "euclidean") for t in gallery]
        truth = [t.identity for t in gallery]
        curve = cmc_curve(results, truth, 3)
        assert curve.accuracy == (1.0, 1.0, 1.0)

    def test_monotone_on_random_inputs(self):
        rng = np.random.default_rng(8)
        gallery = [Template(f"g{i}", rng.normal(size=4)) for i in range(20)]
        probes = [rng.normal(size=4) for _ in range(30)]
        truth = [f"g{int(rng.integers(0, 20))}" for _ in probes]
        results = [flat_rank(gallery, p, "euclidean") for p in probes]
        curve = cmc_curve(results, truth, 20)
        for lo, hi in zip(curve.accuracy, curve.accuracy[1:]):
            assert hi >= lo

    def test_pointwise_equals_rank_k(self):
        rng = np.random.default_rng(9)
        gallery = [Template(f"g{i}", rng.normal(size=4)) for i in range(10)]
        probes = [rng.normal(size=4) for _ in range(15)]
        truth = [f"g{int(rng.integers(0, 10))}" for _ in probes]
        results = [flat_rank(gallery, p, "euclidean") for p in probes]
        curve = cmc_curve(results, truth, 10)
        for rank in curve.ranks:
            assert curve.at(rank) == rank_k_accuracy(results, truth, rank)

    def test_values_in_unit_interval(self):
        curve = CMCData(ranks=(1, 2), accuracy=(0.5, 0.75))
        assert all(0.0 <= a <= 1.0 for a in curve.accuracy)
