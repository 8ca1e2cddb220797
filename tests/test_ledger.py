"""Ledger contracts: append-only behavior, cycle bookkeeping, wire format."""

import numpy as np
import pytest

from biochain import crypto
from biochain.extractor import ExtractorChain, StageParams, run_query_cycle
from biochain.ledger import (
    ClosedCycle,
    CycleConflict,
    Ledger,
    LedgerEntry,
    UnknownCycle,
)


def identity_chain(dim=4, stages=3):
    params = [
        StageParams(kind="dense", weights=np.eye(dim), bias=np.zeros(dim))
        for _ in range(stages)
    ]
    root = crypto.generate_keypair()
    chain = ExtractorChain.build(params, root.public)
    chain.take_snapshot()
    return chain, root


class TestAppend:
    def test_first_append_gets_seq_zero(self):
        ledger = Ledger()
        entry = ledger.append("c1", ed=b"payload")
        assert entry.seq == 0

    def test_two_appends_are_ordered_and_immutable(self):
        ledger = Ledger()
        first = ledger.append("c1", ed=b"one")
        second = ledger.append("c1", ed=b"two")
        assert (first.seq, second.seq) == (0, 1)
        assert ledger.entries()[0] == first
        assert ledger.entries()[0].ed == b"one"

    def test_append_after_close_raises(self):
        ledger = Ledger()
        ledger.append("c1", ed=b"x")
        ledger.close_cycle("c1")
        with pytest.raises(ClosedCycle):
            ledger.append("c1", ed=b"y")

    def test_append_after_protocol_finalizes_cycle(self):
        # the protocol driver closes the cycle at the final handoff
        chain, _ = identity_chain()
        ledger = Ledger()
        final = run_query_cycle(chain, ledger, np.ones(4))
        with pytest.raises(ClosedCycle):
            ledger.append(final.cycle_id, ed=b"late")

    def test_interleaved_cycles_rejected(self):
        ledger = Ledger()
        ledger.append("c1", ed=b"x")
        with pytest.raises(CycleConflict):
            ledger.append("c2", ed=b"y")

    def test_sequential_cycles_have_contiguous_seqs(self):
        ledger = Ledger()
        for cycle in ("c1", "c2", "c3"):
            for _ in range(3):
                ledger.append(cycle, ed=b"x")
            ledger.close_cycle(cycle)
        for cycle in ("c1", "c2", "c3"):
            seqs = [e.seq for e in ledger.entries(cycle)]
            assert seqs == list(range(seqs[0], seqs[0] + 3))


class TestLatest:
    def test_latest_returns_highest_seq(self):
        ledger = Ledger()
        for i in range(3):
            ledger.append("c1", ed=f"p{i}".encode())
        assert ledger.latest("c1").seq == 2

    def test_unknown_cycle(self):
        ledger = Ledger()
        with pytest.raises(UnknownCycle):
            ledger.latest("nope")

    def test_three_stage_protocol_entry_count(self):
        # initiation + (block update + notary update) per stage + final handoff
        chain, _ = identity_chain(stages=3)
        ledger = Ledger()
        final = run_query_cycle(chain, ledger, np.ones(4))
        assert len(ledger.entries(final.cycle_id)) == 2 * 3 + 2
        assert ledger.latest(final.cycle_id) == final


class TestWireFormat:
    def test_entry_round_trip(self):
        entry = LedgerEntry(seq=7, cycle_id="abc", ed=b"\x00\x01", ek=b"", em=b"m", sig=b"s")
        raw = entry.to_bytes()
        from biochain.encoding import ByteReader

        reader = ByteReader(raw)
        assert LedgerEntry.from_body(reader.read_lp()) == entry

    def test_file_replay_reproduces_transcript(self, tmp_path):
        path = tmp_path / "ledger.bin"
        chain, _ = identity_chain()
        ledger = Ledger(path)
        run_query_cycle(chain, ledger, np.ones(4))
        run_query_cycle(chain, ledger, np.zeros(4))
        ledger.close()

        replayed = Ledger.load(path)
        assert replayed.entries() == ledger.entries()

    def test_replay_stable_across_loads(self, tmp_path):
        path = tmp_path / "ledger.bin"
        ledger = Ledger(path)
        ledger.append("c1", ed=b"data", ek=b"k", em=b"m", sig=b"s")
        ledger.close()
        assert Ledger.load(path).entries() == Ledger.load(path).entries() == ledger.entries()

    def test_loaded_cycles_are_finalized(self, tmp_path):
        path = tmp_path / "ledger.bin"
        ledger = Ledger(path)
        ledger.append("c1", ed=b"data")
        ledger.close()
        replayed = Ledger.load(path, resume=True)
        with pytest.raises(ClosedCycle):
            replayed.append("c1", ed=b"more")
        # new cycles continue the sequence numbering
        entry = replayed.append("c2", ed=b"fresh")
        assert entry.seq == 1
        replayed.close()


class TestConfidentiality:
    def test_no_entry_decryptable_without_intended_key(self):
        # try every block's private key against every entry's wrap
        chain, root = identity_chain(stages=3)
        ledger = Ledger()
        final = run_query_cycle(chain, ledger, np.arange(4.0))
        all_keys = [b.keys for b in chain.blocks] + [chain.notary.keys, root]
        opened = 0
        for entry in ledger.entries(final.cycle_id):
            if not entry.ek:
                continue  # initiation entry carries the capture only
            for keys in all_keys:
                try:
                    sym = crypto.asym_decrypt(entry.ek, keys)
                    crypto.sym_decrypt(entry.ed, sym)
                    opened += 1
                except crypto.CryptoError:
                    continue
        # exactly one key opens each of the 2*3+1 enveloped entries
        assert opened == 7
