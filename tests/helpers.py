"""Test-side helpers: plaintext probes for ``identify``, template and
chain-stage edits, a chain's key bytes, and faults injected into the
matcher's consensus round.

``matcher.identify`` calls the round functions through the module's
globals, so replacing ``matcher.chief_draft_document`` or
``matcher.collect_consent`` for the length of a ``with`` block makes every
query inside it meet the faulty party.
"""

from contextlib import contextmanager

import numpy as np

from biochain import crypto, matcher
from biochain.encoding import encode_vector
from biochain.extractor import StageParams
from biochain.matcher import Template


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
def compromised_chief(chief_index, rewrite):
    """Chief ``chief_index`` passes every honest draft through ``rewrite``
    before it seeks consent."""
    honest = matcher.chief_draft_document

    def draft(tree, chief, scores, cycle_id, metric):
        document = honest(tree, chief, scores, cycle_id, metric)
        return rewrite(document) if chief.index == chief_index else document

    matcher.chief_draft_document = draft
    try:
        yield
    finally:
        matcher.chief_draft_document = honest


@contextmanager
def dissenting_leaves(positions):
    """The leaves at ``positions``, (chief index, leaf index) pairs,
    withhold their shards and dissent whatever the document says."""
    honest = matcher.collect_consent

    def consent(chief, document, scores):
        dissent = honest(chief, document, scores).dissent.copy()
        for chief_index, leaf_index in positions:
            if chief_index == chief.index:
                dissent[leaf_index] = True
        shards = [leaf.shard for leaf, refused in zip(chief.leaves, dissent) if not refused]
        return matcher.ShardPool(shards=shards + [chief.retained_shard], dissent=dissent)

    matcher.collect_consent = consent
    try:
        yield
    finally:
        matcher.collect_consent = honest
