"""Distance metrics, rank-k identification accuracy, and CMC curves.

Scores follow a single convention everywhere: lower is better. Cosine
similarity is therefore reported as cosine distance (one minus the
similarity). :func:`flat_rank` scores the gallery one template at a time
through the scalar metrics; the matching tree scores through the row
kernels, which give the scalar metrics' bits for every row. Both rank
their scores through one :class:`Ranking`: :func:`flat_rank` shares only
that final sort with the tree, and computes its scores independently.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np


class DimensionMismatch(Exception):
    pass


class ZeroVector(Exception):
    pass


class NonFiniteFeature(Exception):
    """A probe scores NaN or infinity: it holds such a value, or its
    distance to a template overflows."""


class EmptyResults(Exception):
    pass


def _check_dims(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # C-contiguous, so the BLAS dot runs at unit stride whatever the
    # caller's layout and a score depends on the values alone.
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch(f"{a.shape} vs {b.shape}")
    return a, b


def euclidean(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two equal-dimension vectors."""
    a, b = _check_dims(a, b)
    diff = a - b
    return float(math.sqrt(float(np.dot(diff, diff))))


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """One minus cosine similarity; 0 for parallel vectors, 2 for
    antiparallel. Undefined for zero-norm inputs."""
    a, b = _check_dims(a, b)
    sa = float(np.abs(a).max(initial=0.0))
    sb = float(np.abs(b).max(initial=0.0))
    if sa == 0.0 or sb == 0.0:
        raise ZeroVector("cosine distance is undefined for zero vectors")
    # Scaled by a power of two to a largest entry in [0.5, 1) first. That
    # is exact, so the score keeps its bits, and the squares can neither
    # underflow (tiny vectors) nor overflow.
    a = np.ldexp(a, -np.frexp(sa)[1])
    b = np.ldexp(b, -np.frexp(sb)[1])
    na = math.sqrt(float(np.dot(a, a)))
    nb = math.sqrt(float(np.dot(b, b)))
    return 1.0 - float(np.dot(a, b)) / (na * nb)


# Row kernels: entry i is the scalar metric of row i of each matrix, bit
# for bit. ``np.vecdot`` runs the same BLAS dot per row that ``np.dot``
# runs on one pair of vectors, and every other step is an IEEE operation
# applied elementwise.

def _check_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a, b = _check_dims(a, b)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected (rows, dim) matrices, got shape {a.shape}")
    return a, b


def euclidean_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`euclidean` of each row pair of two equal-shape matrices."""
    a, b = _check_rows(a, b)
    diff = a - b
    return np.sqrt(np.vecdot(diff, diff))


def cosine_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`cosine_distance` of each row pair of two equal-shape
    matrices. Raises :class:`ZeroVector` when any row has zero norm."""
    a, b = _check_rows(a, b)
    sa = np.abs(a).max(axis=1, initial=0.0)
    sb = np.abs(b).max(axis=1, initial=0.0)
    if (sa == 0.0).any() or (sb == 0.0).any():
        raise ZeroVector("cosine distance is undefined for zero vectors")
    a = np.ldexp(a, -np.frexp(sa)[1][:, None])
    b = np.ldexp(b, -np.frexp(sb)[1][:, None])
    na = np.sqrt(np.vecdot(a, a))
    nb = np.sqrt(np.vecdot(b, b))
    return 1.0 - np.vecdot(a, b) / (na * nb)


METRICS: dict[str, Callable[[np.ndarray, np.ndarray], float]] = {
    "euclidean": euclidean,
    "cosine": cosine_distance,
}

ROW_METRICS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "euclidean": euclidean_rows,
    "cosine": cosine_rows,
}


def get_metric(name: str) -> Callable[[np.ndarray, np.ndarray], float]:
    return _lookup(METRICS, name)


def get_row_metric(name: str) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    return _lookup(ROW_METRICS, name)


def _lookup(table: dict, name: str):
    try:
        return table[name]
    except KeyError:
        raise KeyError(f"unknown metric {name!r}, expected one of {sorted(table)}")


class MatchScore(NamedTuple):
    """One scored gallery entry: an immutable named tuple."""

    identity: str
    score: float
    metric: str


class Ranking(Sequence):
    """A candidate list: every gallery entry ascending by score, ties to
    the lowest gallery index. It holds a snapshot of the identities, in
    gallery order, the stable argsort ``order`` and the sorted ``scores``,
    both read-only, and builds a :class:`MatchScore` only for an entry
    that is read. It equals any sequence of equal entries in its order."""

    __slots__ = ("identities", "order", "scores", "metric")

    def __init__(self, identities: Sequence[str], scores, metric: str):
        scores = np.asarray(scores, dtype=np.float64)
        self.identities, self.metric = tuple(identities), metric
        self.order = np.argsort(scores, kind="stable")
        self.scores = scores[self.order]
        self.order.flags.writeable = self.scores.flags.writeable = False

    def __len__(self) -> int:
        return len(self.order)

    def __getitem__(self, index):
        if isinstance(index, slice):
            rows = zip(self.order[index].tolist(), self.scores[index].tolist())
            return [MatchScore(self.identities[i], s, self.metric) for i, s in rows]
        i = range(len(self))[index]  # a list's negative indices and IndexError
        return MatchScore(self.identities[self.order[i]], float(self.scores[i]), self.metric)

    def __iter__(self):
        return iter(self[:])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and self[:] == list(other)


def flat_rank(gallery, probe: np.ndarray, metric: str) -> Ranking:
    """All gallery entries scored one by one and ranked ascending, ties to
    the lowest index."""
    fn = get_metric(metric)
    scores = [fn(entry.vector, probe) for entry in gallery]
    return Ranking([entry.identity for entry in gallery], scores, metric)


def rank_k_accuracy(
    results: Sequence[Sequence[MatchScore]], truth: Sequence[str], k: int
) -> float:
    """Fraction of probes whose true identity appears in the top ``k``
    candidates. ``results`` holds one ascending-sorted candidate list per
    probe."""
    if k < 1:
        raise ValueError(f"rank must be >= 1, got {k}")
    if not results:
        raise EmptyResults("no probe results")
    if len(results) != len(truth):
        raise ValueError("results and truth lengths differ")
    hits = 0
    for candidates, label in zip(results, truth):
        top = candidates[:k]
        if any(c.identity == label for c in top):
            hits += 1
    return hits / len(results)


@dataclass(frozen=True)
class CMCData:
    """Cumulative match characteristics: accuracy at ranks 1..R."""

    ranks: tuple[int, ...]
    accuracy: tuple[float, ...]

    def at(self, rank: int) -> float:
        return self.accuracy[self.ranks.index(rank)]


def cmc_curve(
    results: Sequence[Sequence[MatchScore]], truth: Sequence[str], max_rank: int
) -> CMCData:
    """Accuracy at every rank from 1 to ``max_rank``; non-decreasing by
    construction."""
    ranks = tuple(range(1, max_rank + 1))
    accuracy = tuple(rank_k_accuracy(results, truth, r) for r in ranks)
    return CMCData(ranks=ranks, accuracy=accuracy)
