"""Seeded inputs for the benchmark workloads.

Every input is drawn here from the workload seed, in independent streams,
and biochain receives only the drawn galleries, probes and chain
descriptors. The gallery is drawn with memory bounded by row blocks:
``harness.generate_synthetic_gallery`` builds an N x N x d difference
array (about 3.2 GB at N=5000, d=16), which would dominate the peak memory
and the set-up time the benchmark reports.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from biochain.matcher import Template

PROBE_SIGMA = 0.1
_GALLERY_STREAM = 0
_PROBE_STREAM = 1
_CLI_STREAM = 2
_ROW_BLOCK = 256

# Ten stages, all four stage kinds, random parameters; 32 dimensions in
# and out, so the chain output is scored against the 32-d gallery.
DEEP_CHAIN = [
    {"kind": "dense"},
    {"kind": "convolution", "kernel": 5},
    {"kind": "pooling", "pool_size": 2},
    {"kind": "dense", "out": 32},
    {"kind": "activation", "activation": "sigmoid"},
    {"kind": "dense"},
    {"kind": "convolution", "kernel": 3},
    {"kind": "pooling", "pool_size": 2},
    {"kind": "dense", "out": 32},
    {"kind": "dense"},
]


def _first_close_row(centers: np.ndarray, bound: float) -> int | None:
    """Index of the first row closer than ``bound`` to another row, found
    one block of rows at a time."""
    n = centers.shape[0]
    sq = np.einsum("ij,ij->i", centers, centers)
    for lo in range(0, n, _ROW_BLOCK):
        block = centers[lo:lo + _ROW_BLOCK]
        d2 = sq[lo:lo + _ROW_BLOCK, None] + sq[None, :] - 2.0 * (block @ centers.T)
        rows = np.arange(block.shape[0])
        d2[rows, lo + rows] = np.inf
        close = np.flatnonzero(d2.min(axis=1) < bound * bound)
        if close.size:
            return lo + int(close[0])
    return None


def draw_gallery(seed: int, n: int, dim: int) -> list[Template]:
    """Gaussian identity templates at least ``10 * PROBE_SIGMA * sqrt(dim)``
    apart, the separation biochain's own generator enforces, so a probe
    with ``PROBE_SIGMA`` noise stays nearest its own template."""
    rng = np.random.default_rng([seed, _GALLERY_STREAM])
    bound = 10.0 * PROBE_SIGMA * math.sqrt(dim)
    scale = max(bound, 1.0)
    centers = rng.normal(scale=scale, size=(n, dim))
    for _ in range(1000):
        row = _first_close_row(centers, bound)
        if row is None:
            break
        centers[row] = rng.normal(scale=scale, size=dim)
    else:
        raise RuntimeError("could not separate the gallery templates")
    return [Template(f"id{i:04d}", centers[i]) for i in range(n)]


def probes(seed: int, gallery: list[Template]) -> Iterator[tuple[np.ndarray, str]]:
    """Endless probes: a gallery template, drawn from the seed, plus
    N(0, PROBE_SIGMA) noise; yields the probe and its true identity."""
    rng = np.random.default_rng([seed, _PROBE_STREAM])
    while True:
        template = gallery[int(rng.integers(len(gallery)))]
        noise = rng.normal(scale=PROBE_SIGMA, size=template.vector.shape[0])
        yield template.vector + noise, template.identity


def cli_identities(seed: int, n: int) -> Iterator[str]:
    """Identities probed by ``identify --identity`` on the CLI workload."""
    rng = np.random.default_rng([seed, _CLI_STREAM])
    while True:
        yield f"id{int(rng.integers(n)):04d}"
