"""Append-only ledger of encrypted protocol updates.

Every update a party publishes during a query cycle is one
:class:`LedgerEntry` holding four payload fields: ``ed`` (the symmetric
ciphertext of the data), ``ek`` (the symmetric key wrapped for the
intended recipient), ``em`` (an encrypted routing marker telling the
recipient the update is theirs), and ``sig`` (the writer's signature).
The opening entry of a cycle carries only the encrypted capture in
``ed``; every later entry fills all four fields.

Entries are immutable once appended and sequence numbers grow strictly.
Only one cycle may be open at a time, which keeps a cycle's records
contiguous. One rule admits every entry, appended or replayed from a
file: :meth:`Ledger.load` refuses a file whose sequence numbers skip or
whose cycles' records are not contiguous, and the ledger it returns
appends to the file it read.

File format (one record per entry, append-only):

    4-byte big-endian record length, then the record body:
    length-prefixed fields in the order seq, cycle_id, ed, ek, em, sig
    (seq is 8 bytes big-endian inside its prefix).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .encoding import ByteReader, encode_u64, lp


class LedgerError(Exception):
    pass


class ClosedCycle(LedgerError):
    """Append attempted on a finalized cycle."""


class UnknownCycle(LedgerError):
    """Lookup of a cycle id never seen by this ledger."""


class CycleConflict(LedgerError):
    """A new cycle was opened while another is still in progress."""


@dataclass(frozen=True)
class LedgerEntry:
    seq: int
    cycle_id: str
    ed: bytes
    ek: bytes
    em: bytes
    sig: bytes

    def to_bytes(self) -> bytes:
        body = (
            lp(encode_u64(self.seq))
            + lp(self.cycle_id.encode("utf-8"))
            + lp(self.ed)
            + lp(self.ek)
            + lp(self.em)
            + lp(self.sig)
        )
        return lp(body)

    @classmethod
    def from_body(cls, body: bytes) -> "LedgerEntry":
        """Parse one record body; a byte :meth:`to_bytes` would not write is refused."""
        reader = ByteReader(body)
        read = reader.read_lp
        seq, cycle_id, ed, ek, em, sig = read(), read(), read(), read(), read(), read()
        if len(seq) != 8 or not reader.exhausted:
            raise ValueError("malformed ledger record")
        return cls(seq=int.from_bytes(seq, "big"), cycle_id=cycle_id.decode("utf-8"),
                   ed=ed, ek=ek, em=em, sig=sig)


class Ledger:
    """In-memory ledger, optionally mirrored to an append-only file opened
    at the first append.

    Appends are serialized through a single writer lock; reads of already
    appended entries need no coordination because entries never change.
    """

    def __init__(self, path: Optional[Path] = None):
        self._entries: list[LedgerEntry] = []
        # Every cycle seen -> the seq of its newest entry; all but the open
        # one are finalized.
        self._newest: dict[str, int] = {}
        self._open_cycle: Optional[str] = None
        self._lock = threading.Lock()
        self._path = Path(path) if path is not None else None
        self._file = None

    def _admit(self, entry: LedgerEntry) -> None:
        """The one rule for every entry, appended or replayed: it takes the
        next seq, and its cycle is the open one or opens while none is."""
        if entry.seq != len(self._entries):
            raise LedgerError(f"sequence gap at {entry.seq}, expected {len(self._entries)}")
        if entry.cycle_id != self._open_cycle:
            if entry.cycle_id in self._newest:
                raise ClosedCycle(f"cycle {entry.cycle_id} is finalized")
            if self._open_cycle is not None:
                raise CycleConflict(f"cycle {self._open_cycle} is still open")
            self._open_cycle = entry.cycle_id
        self._entries.append(entry)
        self._newest[entry.cycle_id] = entry.seq

    def append(
        self,
        cycle_id: str,
        ed: bytes = b"",
        ek: bytes = b"",
        em: bytes = b"",
        sig: bytes = b"",
    ) -> LedgerEntry:
        """Append one entry; the ledger assigns the sequence number.

        Raises:
            ClosedCycle: the cycle was already finalized.
            CycleConflict: a different cycle is still open.
        """
        with self._lock:
            entry = LedgerEntry(
                seq=len(self._entries), cycle_id=cycle_id, ed=ed, ek=ek, em=em, sig=sig
            )
            self._admit(entry)
            if self._path is not None:
                if self._file is None:
                    self._file = open(self._path, "ab")
                self._file.write(entry.to_bytes())
                self._file.flush()
            return entry

    def close_cycle(self, cycle_id: str) -> None:
        with self._lock:
            if cycle_id not in self._newest:
                raise UnknownCycle(cycle_id)
            if self._open_cycle == cycle_id:
                self._open_cycle = None

    def latest(self, cycle_id: str) -> LedgerEntry:
        """Newest entry of a cycle.

        Raises:
            UnknownCycle: no entry has been appended under this id.
        """
        if cycle_id not in self._newest:
            raise UnknownCycle(cycle_id)
        return self._entries[self._newest[cycle_id]]

    def entries(self, cycle_id: Optional[str] = None) -> list[LedgerEntry]:
        if cycle_id is None:
            return list(self._entries)
        if cycle_id not in self._newest:
            raise UnknownCycle(cycle_id)
        return [entry for entry in self._entries if entry.cycle_id == cycle_id]

    def __len__(self) -> int:
        return len(self._entries)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    @classmethod
    def load(cls, path: Path) -> "Ledger":
        """Replay a ledger file into a ledger that appends to it. Each record
        passes the rule :meth:`append` applies, a recorded cycle ending where
        the next begins; every recorded cycle is finalized, so only new cycles
        accept appends, and sequence numbers continue where the file ends."""
        ledger = cls(path)
        reader = ByteReader(Path(path).read_bytes())
        while not reader.exhausted:
            entry = LedgerEntry.from_body(reader.read_lp())
            if entry.cycle_id != ledger._open_cycle:
                ledger._open_cycle = None
            ledger._admit(entry)
        ledger._open_cycle = None
        return ledger
