"""Test-side helpers: the flat linear-scan oracle, plaintext probes for
``identify``, template and chain-stage edits, a chain's key bytes, and
faults injected into the matcher's consensus round, a corrupted decision
shard among them.

``matcher.identify`` calls the round functions through the module's
globals, so replacing ``matcher.chief_drafts`` or
``matcher.collect_consent`` for the length of a ``with`` block makes every
query inside it meet the faulty party.
"""

from contextlib import contextmanager

import numpy as np

from biochain import crypto, matcher
from biochain.encoding import encode_vector
from biochain.extractor import StageParams
from biochain.matcher import Template
from biochain.metrics import EmptyResults, MatchScore, get_metric


def flat_oracle_identify(gallery, probe, metric):
    """Linear-scan nearest template over the whole gallery.

    Ties break to the lowest gallery index. This is the ground-truth path
    used to validate the matching tree, so it stays a simple scan.
    """
    fn = get_metric(metric)
    best_score = None
    best_identity = None
    for entry in gallery:
        s = fn(entry.vector, probe)
        if best_score is None or s < best_score:
            best_score = s
            best_identity = entry.identity
    if best_score is None:
        raise EmptyResults("empty gallery")
    return MatchScore(identity=best_identity, score=best_score, metric=metric)


def identify_probe(tree, probe, metric, timings=None):
    """Seal a plaintext probe to the tree's root and identify it."""
    payload = encode_vector(np.asarray(probe, dtype=np.float64))
    return matcher.identify(tree, crypto.seal(payload, tree.public_key), metric, timings)


def perturb_template(tree, index, noise):
    """Add ``noise`` to the stored template at enrollment position ``index``."""
    tree.write_template(index, Template(tree.identities[index], tree.vectors[index] + noise))


def chain_keys(chain):
    """Every key of an extraction chain: the notary's, then each block's."""
    parties = [chain.notary] + chain.blocks
    return [(party.keys.public, party.keys.private, party.sym_key) for party in parties]


def restore_stage(chain, index):
    """Reset one chain stage's parameters to its snapshot's values."""
    chain.blocks[index].params = StageParams.from_canonical(chain.snapshot.blocks[index][2])


@contextmanager
def corrupted_shard(tree, row):
    """The leaf at enrollment position ``row`` holds a shard whose first
    byte is flipped, in the tree's shard tensor."""
    chief, leaf = divmod(row, tree.fanout)
    tree.shards[chief, leaf, 0] ^= 0xFF
    try:
        yield
    finally:
        tree.shards[chief, leaf, 0] ^= 0xFF


@contextmanager
def compromised_chief(chief_index, rewrite):
    """Chief ``chief_index`` passes every honest draft through ``rewrite``
    before it seeks consent."""
    honest = matcher.chief_drafts

    def drafts(tree, scores):
        documents = honest(tree, scores)
        documents[chief_index] = rewrite(documents[chief_index])
        return documents

    matcher.chief_drafts = drafts
    try:
        yield
    finally:
        matcher.chief_drafts = honest


@contextmanager
def dissenting_leaves(positions):
    """The leaves at ``positions``, (chief index, leaf index) pairs,
    withhold their shards and dissent whatever the document says."""
    honest = matcher.collect_consent

    def consent(tree, documents, scores):
        dissent = honest(tree, documents, scores)
        for chief_index, leaf_index in positions:
            dissent[tree.chief_rows[chief_index].start + leaf_index] = True
        return dissent

    matcher.collect_consent = consent
    try:
        yield
    finally:
        matcher.collect_consent = honest
