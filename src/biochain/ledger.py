"""Append-only ledger of encrypted protocol updates.

Every update a party publishes during a query cycle is one
:class:`LedgerEntry` holding four payload fields: ``ed`` (the symmetric
ciphertext of the data), ``ek`` (the symmetric key wrapped for the
intended recipient), ``em`` (an encrypted routing marker telling the
recipient the update is theirs), and ``sig`` (the writer's signature).
The opening entry of a cycle carries only the encrypted capture in
``ed``; every later entry fills all four fields.

Entries are immutable once appended and sequence numbers grow strictly.
Only one cycle may be open at a time, which keeps the sequence numbers
of a cycle contiguous.

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
        reader = ByteReader(body)
        seq_field = ByteReader(reader.read_lp())
        seq = seq_field.read_u64()
        cycle_id = reader.read_lp().decode("utf-8")
        ed = reader.read_lp()
        ek = reader.read_lp()
        em = reader.read_lp()
        sig = reader.read_lp()
        return cls(seq=seq, cycle_id=cycle_id, ed=ed, ek=ek, em=em, sig=sig)


class Ledger:
    """In-memory ledger, optionally mirrored to an append-only file.

    Appends are serialized through a single writer lock; reads of already
    appended entries need no coordination because entries never change.
    """

    def __init__(self, path: Optional[Path] = None):
        self._entries: list[LedgerEntry] = []
        self._cycles: dict[str, list[int]] = {}
        self._closed: set[str] = set()
        self._open_cycle: Optional[str] = None
        self._lock = threading.Lock()
        self._path = Path(path) if path is not None else None
        self._file = None
        if self._path is not None:
            self._file = open(self._path, "ab")

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
            if cycle_id in self._closed:
                raise ClosedCycle(f"cycle {cycle_id} is finalized")
            if cycle_id not in self._cycles:
                if self._open_cycle is not None:
                    raise CycleConflict(
                        f"cycle {self._open_cycle} is still open"
                    )
                self._cycles[cycle_id] = []
                self._open_cycle = cycle_id
            entry = LedgerEntry(
                seq=len(self._entries), cycle_id=cycle_id, ed=ed, ek=ek, em=em, sig=sig
            )
            self._entries.append(entry)
            self._cycles[cycle_id].append(entry.seq)
            if self._file is not None:
                self._file.write(entry.to_bytes())
                self._file.flush()
            return entry

    def close_cycle(self, cycle_id: str) -> None:
        with self._lock:
            if cycle_id not in self._cycles:
                raise UnknownCycle(cycle_id)
            self._closed.add(cycle_id)
            if self._open_cycle == cycle_id:
                self._open_cycle = None

    def latest(self, cycle_id: str) -> LedgerEntry:
        """Newest entry of a cycle.

        Raises:
            UnknownCycle: no entry has been appended under this id.
        """
        seqs = self._cycles.get(cycle_id)
        if not seqs:
            raise UnknownCycle(cycle_id)
        return self._entries[seqs[-1]]

    def entries(self, cycle_id: Optional[str] = None) -> list[LedgerEntry]:
        if cycle_id is None:
            return list(self._entries)
        if cycle_id not in self._cycles:
            raise UnknownCycle(cycle_id)
        return [self._entries[s] for s in self._cycles[cycle_id]]

    def __len__(self) -> int:
        return len(self._entries)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    @classmethod
    def load(cls, path: Path, resume: bool = False) -> "Ledger":
        """Replay a ledger file into memory.

        Every cycle found on disk is treated as finalized; a loaded ledger
        only accepts appends for new cycles. With ``resume`` the file is
        reopened for appending and sequence numbers continue where the
        recorded transcript ends.
        """
        ledger = cls()
        data = Path(path).read_bytes()
        reader = ByteReader(data)
        while not reader.exhausted:
            entry = LedgerEntry.from_body(reader.read_lp())
            if entry.seq != len(ledger._entries):
                raise LedgerError(
                    f"sequence gap at {entry.seq}, expected {len(ledger._entries)}"
                )
            ledger._entries.append(entry)
            ledger._cycles.setdefault(entry.cycle_id, []).append(entry.seq)
        ledger._closed = set(ledger._cycles)
        if resume:
            ledger._path = Path(path)
            ledger._file = open(ledger._path, "ab")
        return ledger
