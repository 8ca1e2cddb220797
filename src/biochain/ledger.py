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

The ledger's store, a file or an in-memory buffer, holds the only copy
of its entries; every read but that of the newest entry parses the store.

File format (one record per entry, append-only):

    4-byte big-endian record length, then the record body:
    length-prefixed fields in the order seq, cycle_id, ed, ek, em, sig
    (seq is 8 bytes big-endian inside its prefix).
"""

from __future__ import annotations

import io
import threading
from contextlib import closing, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator, Optional

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
    """Append-only ledger over its store: the file at ``path``, opened to
    append at the first append, or else an in-memory buffer. It keeps in
    memory only the newest entry, the open cycle and the offset of each
    cycle's newest record. Appends and reads are serialized through one lock.

    Raises:
        LedgerError: the file at ``path`` already holds records; replay it
            with :meth:`load` to append to it.
    """

    def __init__(self, path: Optional[Path] = None):
        self._path = Path(path) if path is not None else None
        if self._path is not None and self._path.is_file() and self._path.stat().st_size:
            raise LedgerError(f"{self._path} already holds records; open it with Ledger.load")
        self._store: Optional[BinaryIO] = io.BytesIO() if path is None else None
        self._latest: Optional[LedgerEntry] = None
        # Every cycle seen -> the offset of its newest record; all but the
        # open one are finalized.
        self._newest: dict[str, int] = {}
        self._open_cycle: Optional[str] = None
        self._lock = threading.Lock()

    def _admit(self, entry: LedgerEntry, offset: int) -> None:
        """The one rule for every entry, appended or replayed: it takes the
        next seq, and its cycle is the open one or opens while none is."""
        if entry.seq != len(self):
            raise LedgerError(f"sequence gap at {entry.seq}, expected {len(self)}")
        if entry.cycle_id != self._open_cycle:
            if entry.cycle_id in self._newest:
                raise ClosedCycle(f"cycle {entry.cycle_id} is finalized")
            if self._open_cycle is not None:
                raise CycleConflict(f"cycle {self._open_cycle} is still open")
            self._open_cycle = entry.cycle_id
        self._latest = entry
        self._newest[entry.cycle_id] = offset

    def _records(self, offset: int = 0) -> Iterator[tuple[int, LedgerEntry]]:
        """The stored records from byte ``offset`` on, each with the offset
        it starts at. A file not held open to append is opened for the read."""
        held = self._store is not None
        with nullcontext(self._store) if held else open(self._path, "rb") as store:
            end = store.seek(0, io.SEEK_END)
            store.seek(offset)
            while offset < end:
                size = int.from_bytes(store.read(4), "big")
                if offset + 4 + size > end:
                    raise ValueError("truncated record")
                yield offset, LedgerEntry.from_body(store.read(size))
                offset += 4 + size

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
                seq=len(self), cycle_id=cycle_id, ed=ed, ek=ek, em=em, sig=sig
            )
            if self._store is None:
                self._store = open(self._path, "a+b")
            self._admit(entry, self._store.seek(0, io.SEEK_END))
            self._store.write(entry.to_bytes())
            self._store.flush()
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
        with self._lock:
            if self._latest is not None and self._latest.cycle_id == cycle_id:
                return self._latest
            if cycle_id not in self._newest:
                raise UnknownCycle(cycle_id)
            with closing(self._records(self._newest[cycle_id])) as records:
                return next(records)[1]

    def entries(self, cycle_id: Optional[str] = None) -> list[LedgerEntry]:
        with self._lock:
            if cycle_id is not None and cycle_id not in self._newest:
                raise UnknownCycle(cycle_id)
            if self._latest is None:
                return []
            return [entry for _, entry in self._records() if cycle_id in (None, entry.cycle_id)]

    def __len__(self) -> int:
        return self._latest.seq + 1 if self._latest is not None else 0

    def close(self) -> None:
        with self._lock:
            if self._path is not None and self._store is not None:
                self._store.close()
                self._store = None

    @classmethod
    def load(cls, path: Path) -> "Ledger":
        """Replay a ledger file into a ledger that appends to it. Each record
        passes the rule :meth:`append` applies, a recorded cycle ending where
        the next begins; every recorded cycle is finalized, so only new cycles
        accept appends, and sequence numbers continue where the file ends."""
        ledger = cls()
        ledger._path, ledger._store = Path(path), None
        for offset, entry in ledger._records():
            if entry.cycle_id != ledger._open_cycle:
                ledger._open_cycle = None
            ledger._admit(entry, offset)
        ledger._open_cycle = None
        return ledger
