"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded only around calls into biochain's public functions.
``install`` replaces those functions with timing wrappers from outside the
package, at every module and class binding that holds them (``build_tree``
is bound in both ``biochain.matcher`` and ``biochain.cli``, for example), and
returns a function that puts the originals back. Nothing under ``src/``
changes. ``leaf_score`` and the distance functions are left alone: they run
thousands of times per query, and ``MatchTimings`` already times that phase.

Each span stores its name, start, end, parent span and the id of the
operation (query or command) it belongs to, in flat arrays, so a traced
query that makes ten thousand calls stays cheap to record. ``dump`` writes
them out once, when the run ends. This module imports only the standard
library, so a command process can load it without paying for numpy.
"""

from __future__ import annotations

import functools
import pickle
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# Wrapped functions, by biochain module. "Class.method" names a method.
TARGETS = {
    "crypto": (
        "generate_keypair", "derive_public", "sym_encrypt", "sym_decrypt",
        "asym_encrypt", "asym_decrypt", "sign", "verify", "seal",
        "open_envelope", "shamir_split", "shamir_reconstruct",
    ),
    "ledger": ("Ledger.append", "Ledger.load"),
    "extractor": (
        "run_query_cycle", "notary_begin_cycle", "block_handle_update",
        "notary_handle_update", "apply_stage", "ExtractorChain.verify",
    ),
    "matcher": ("build_tree", "identify", "verify_tree", "restore_leaves"),
    "harness": ("enroll", "audit", "load_gallery", "save_gallery", "inject_template_noise"),
}


class Recorder:
    """Spans and per-operation counters, kept in memory until ``dump``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.ops: list[str] = []
        self.counters: list[Counter] = []
        self._stack: list[int] = []
        self._op = -1

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.op.append(self._op)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, label: str, root: str) -> None:
        """Start operation ``label``; its root span ``root`` parents every
        span until ``end_op``."""
        self.ops.append(label)
        self.counters.append(Counter())
        self._op = len(self.ops) - 1
        self.open(self.name_id(root))

    def end_op(self) -> None:
        """Close the current operation's root span."""
        self.close(self._stack[0])
        self._op = -1

    def count(self, key: str, amount: float = 1) -> None:
        if self._op >= 0:
            self.counters[self._op][key] += amount

    def data(self) -> dict:
        """The spans and counters, in the form ``load`` returns."""
        return {
            "names": self.names,
            "ops": self.ops,
            "counters": [dict(c) for c in self.counters],
            "name": self.name, "op": self.op, "parent": self.parent,
            "start": self.start, "end": self.end,
        }

    def dump(self, path: Path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            pickle.dump(self.data(), fh, protocol=pickle.HIGHEST_PROTOCOL)


def load(path: Path) -> dict:
    """Read a trace written by :meth:`Recorder.dump` of this benchmark."""
    with open(path, "rb") as fh:
        return pickle.load(fh)


def _count_failures(rec: Recorder, exc: BaseException) -> None:
    if type(exc).__name__ == "DecryptionFailure":
        rec.count("crypto.asym_decrypt_failures")


# Counters taken from a wrapped call's result, or from the error it raised.
_RESULT_HOOKS = {
    "extractor.block_handle_update":
        lambda rec, result: rec.count("extractor.block_acted", result is not None),
    "matcher.identify":
        lambda rec, result: rec.count("matcher.scrutinized_chiefs", len(result.scrutinized_chiefs)),
    "matcher.verify_tree": lambda rec, result: rec.count("matcher.leaves_located", len(result)),
    "ledger.Ledger.load": lambda rec, result: rec.count("ledger.entries_replayed", len(result)),
}
_ERROR_HOOKS = {"crypto.asym_decrypt": _count_failures}


def _wrap(rec: Recorder, label: str, fn):
    name_id = rec.name_id(label)
    on_result = _RESULT_HOOKS.get(label)
    on_error = _ERROR_HOOKS.get(label)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = rec.open(name_id)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            rec.close(index)
            if on_error is not None:
                on_error(rec, exc)
            raise
        rec.close(index)
        if on_result is not None:
            on_result(rec, result)
        return result

    return traced


def install(rec: Recorder):
    """Wrap every target at every binding in the loaded biochain modules.

    Returns a function that restores the original bindings.
    """
    modules = [m for n, m in list(sys.modules.items())
               if (n == "biochain" or n.startswith("biochain.")) and m is not None]
    undo = []
    for module_name, attrs in TARGETS.items():
        home = sys.modules[f"biochain.{module_name}"]
        for attr in attrs:
            label = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(_wrap(rec, label, raw.__func__))
                else:
                    new = _wrap(rec, label, raw)
                setattr(cls, meth, new)
                undo.append((cls, meth, raw))
                continue
            original = getattr(home, attr)
            wrapped = _wrap(rec, label, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)
                        undo.append((module, name, original))

    def uninstall() -> None:
        for owner, name, value in reversed(undo):
            setattr(owner, name, value)

    return uninstall
