"""Ledger contracts: append-only behavior, cycle bookkeeping, wire format."""

import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biochain import crypto
from biochain.extractor import ExtractorChain, StageParams, run_query_cycle
from biochain.ledger import (
    ClosedCycle,
    CycleConflict,
    Ledger,
    LedgerEntry,
    LedgerError,
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
        replayed = Ledger.load(path)
        with pytest.raises(ClosedCycle):
            replayed.append("c1", ed=b"more")
        # new cycles continue the sequence numbering
        entry = replayed.append("c2", ed=b"fresh")
        assert entry.seq == 1
        replayed.close()

    def test_a_file_that_holds_records_is_refused_and_kept(self, tmp_path):
        # Appending seq 0 behind the records would leave a file that no
        # load accepts; the constructor points to Ledger.load instead.
        path = tmp_path / "ledger.bin"
        ledger = Ledger(path)
        ledger.append("c1", ed=b"data")
        ledger.close()
        before = path.read_bytes()
        with pytest.raises(LedgerError, match="Ledger.load"):
            Ledger(path)
        assert path.read_bytes() == before
        reopened = Ledger.load(path)
        assert reopened.append("c2", ed=b"more").seq == 1
        reopened.close()
        assert [e.seq for e in Ledger.load(path).entries()] == [0, 1]


def three_cycles(ledger):
    """Append cycles c0..c2 of 1, 2 and 3 entries, closing c0 and c1."""
    for k, cycle_id in enumerate(("c0", "c1", "c2")):
        for i in range(k + 1):
            ledger.append(cycle_id, ed=f"{cycle_id}/{i}".encode(), sig=b"s" * i)
        if cycle_id != "c2":
            ledger.close_cycle(cycle_id)


class TestReadsFromTheStore:
    @pytest.fixture(params=["memory", "file", "loaded"])
    def ledger(self, request, tmp_path):
        path = tmp_path / "ledger.bin"
        ledger = Ledger() if request.param == "memory" else Ledger(path)
        three_cycles(ledger)
        if request.param == "loaded":
            ledger.close()
            ledger = Ledger.load(path)
        yield ledger
        ledger.close()

    def test_latest_of_an_older_cycle(self, ledger):
        assert ledger.latest("c0") == LedgerEntry(0, "c0", b"c0/0", b"", b"", b"")
        assert ledger.latest("c1") == LedgerEntry(2, "c1", b"c1/1", b"", b"", b"s")
        assert ledger.latest("c2").ed == b"c2/2"

    def test_entries_of_each_cycle(self, ledger):
        assert [e.ed for e in ledger.entries("c1")] == [b"c1/0", b"c1/1"]
        assert [e.seq for e in ledger.entries("c2")] == [3, 4, 5]
        assert [e.cycle_id for e in ledger.entries()] == ["c0", "c1", "c1", "c2", "c2", "c2"]
        assert len(ledger) == 6

    def test_reads_after_a_further_cycle(self, ledger):
        ledger.close_cycle("c2")
        ledger.append("c3", ed=b"new")
        assert ledger.latest("c2").seq == 5
        assert ledger.latest("c3").seq == 6
        assert [e.seq for e in ledger.entries()] == list(range(7))
        with pytest.raises(UnknownCycle):
            ledger.entries("c4")

    def test_threaded_appends_and_reads(self, tmp_path):
        # One writer thread appends cycles while three readers read closed
        # cycles back from the store; every read sees whole records.
        ledger = Ledger(tmp_path / "ledger.bin")
        ledger.append("w0", ed=b"w0")
        ledger.close_cycle("w0")
        errors = []

        def write():
            for k in range(1, 120):
                ledger.append(f"w{k}", ed=f"w{k}".encode())
                ledger.append(f"w{k}", ed=f"w{k}".encode())
                ledger.close_cycle(f"w{k}")

        def read():
            try:
                for _ in range(60):
                    entries = ledger.entries()
                    assert [e.seq for e in entries] == list(range(len(entries)))
                    newest = entries[-1]
                    assert ledger.latest(newest.cycle_id).seq >= newest.seq
                    assert ledger.latest("w0").ed == b"w0"
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=write)] + [threading.Thread(target=read) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(ledger) == 1 + 2 * 119
        ledger.close()
        assert Ledger.load(tmp_path / "ledger.bin").entries() == ledger.entries()


class TestMemory:
    def test_memory_does_not_grow_with_the_entries(self, tmp_path):
        # The store is the entries' only copy: the ledger keeps a few
        # numbers per cycle, far less than a cycle's four records.
        chain, _ = identity_chain(stages=1)
        ledger = Ledger(tmp_path / "ledger.bin")
        probe = np.ones(4)
        for _ in range(20):
            run_query_cycle(chain, ledger, probe)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(300):
                run_query_cycle(chain, ledger, probe)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            ledger.close()
        assert grown < 300 * 1024, f"{grown / 300:.0f} bytes a cycle"


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


class ReferenceLedger:
    """The cycle bookkeeping the ledger kept before it read cycle state off
    its entries: a seq list per cycle, a set of closed cycles and the open
    cycle, with the one-open-cycle rule checked on append."""

    def __init__(self):
        self.entries = []
        self.cycles = {}
        self.closed = set()
        self.open_cycle = None

    def append(self, cycle_id, ed):
        if cycle_id in self.closed:
            raise ClosedCycle(cycle_id)
        if cycle_id not in self.cycles:
            if self.open_cycle is not None:
                raise CycleConflict(self.open_cycle)
            self.cycles[cycle_id] = []
            self.open_cycle = cycle_id
        entry = LedgerEntry(len(self.entries), cycle_id, ed, b"", b"", b"")
        self.entries.append(entry)
        self.cycles[cycle_id].append(entry.seq)
        return entry

    def close_cycle(self, cycle_id):
        if cycle_id not in self.cycles:
            raise UnknownCycle(cycle_id)
        self.closed.add(cycle_id)
        if self.open_cycle == cycle_id:
            self.open_cycle = None

    def latest(self, cycle_id):
        if not self.cycles.get(cycle_id):
            raise UnknownCycle(cycle_id)
        return self.entries[self.cycles[cycle_id][-1]]

    def loaded(self):
        """The reference state of this transcript replayed from a file:
        every recorded cycle closed, none open."""
        model = ReferenceLedger()
        model.entries = list(self.entries)
        model.cycles = {c: list(seqs) for c, seqs in self.cycles.items()}
        model.closed = set(self.cycles)
        return model


def outcome(call, *args):
    """What a call returns, or the type of the ledger error it raises."""
    try:
        return "ok", call(*args)
    except LedgerError as exc:
        return "raised", type(exc)


CYCLES = ["c0", "c1", "c2", "c3"]
OPERATIONS = st.lists(st.tuples(
    st.sampled_from(["append", "close_cycle", "latest"]),
    st.sampled_from(CYCLES),
    st.binary(max_size=3),
), max_size=30)


class TestAgainstReferenceBookkeeping:
    @settings(max_examples=200, deadline=None)
    @given(OPERATIONS)
    def test_operations_and_replay_match_the_reference(self, operations):
        # Small ids make appends to the open cycle, to a new one while a
        # cycle is open or not, and to a closed one all likely.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ledger.bin"
            path.write_bytes(b"")  # as enroll leaves it
            ledger, model = Ledger(path), ReferenceLedger()
            for name, cycle_id, ed in operations:
                args = (cycle_id, ed) if name == "append" else (cycle_id,)
                assert outcome(getattr(ledger, name), *args) == outcome(getattr(model, name), *args)
                assert ledger.entries() == model.entries
            for cycle_id in CYCLES:
                if cycle_id in model.cycles:
                    want = [model.entries[seq] for seq in model.cycles[cycle_id]]
                    assert ledger.entries(cycle_id) == want
            ledger.close()
            replayed, model = Ledger.load(path), model.loaded()
            assert replayed.entries() == model.entries
            for cycle_id in CYCLES + ["fresh"]:
                args = (cycle_id, b"x")
                assert outcome(replayed.append, *args) == outcome(model.append, *args)
            replayed.close()
            assert Ledger.load(path).entries() == model.entries
