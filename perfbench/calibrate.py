"""Machine-speed reference for the benchmark's timings.

A virtual machine that shares its host with other tenants can run up to
1.7x slower for minutes at a time while they load the host, with no steal
time visible to the guest, and its vCPUs can run at different speeds at the
same moment (seen on a 2-vCPU KVM guest, Intel Xeon at 2.1 GHz). Raw
operation times then move with the machine, not with the program.

``Reference`` times a fixed piece of work that uses none of biochain (a
pure-Python loop, small numpy operations, X25519, Ed25519 and AES-GCM from
``cryptography``) in a child process of its own, so nothing the program
leaves in the benchmark's interpreter (threads, held memory, warm caches)
changes it. Before each timing the child moves to the CPU the benchmark
process last ran on, while the benchmark waits for the answer. The
benchmark times the reference just before and just after each operation
and multiplies the operation's raw time by ``REFERENCE_MS`` over their
mean: the time the operation would have taken on the reference machine in
its quiet state.

Run as a script, this file is that child: it reads ``<cpu> <repeats>``
lines and answers each with the fastest of ``repeats`` timings in ms.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

_KEY = bytes(range(32))
_NONCE = bytes(12)
_MESSAGE = bytes(256)
_X_PEER = X25519PrivateKey.from_private_bytes(bytes(range(1, 33))).public_key()
_VECTOR = np.linspace(0.0, 1.0, 64)

# Fastest reference timing in the child on the reference machine, an Intel
# Xeon at 2.1 GHz (KVM guest, 2 vCPUs), while its host is quiet: raw and
# scaled times agree in that state.
REFERENCE_MS = 0.44
# A run whose median factor lies outside this range was measured on another
# machine or in a slow state, and is flagged.
FLAG_FACTOR = 1.5


def _work() -> int:
    acc = 0
    for i in range(1500):
        acc += (i * i) % 7
    for _ in range(20):
        acc += int(np.argmin(np.abs(_VECTOR - 0.3)))
    for _ in range(2):
        X25519PrivateKey.from_private_bytes(_KEY).exchange(_X_PEER)
        Ed25519PrivateKey.from_private_bytes(_KEY).sign(_MESSAGE)
    for _ in range(20):
        AESGCM(_KEY).encrypt(_NONCE, _MESSAGE, None)
    return acc


def _best_ms(repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best


def _current_cpu() -> int:
    """The CPU this process last ran on, or -1 where that is unknown."""
    try:
        with open("/proc/self/stat") as f:
            stat = f.read()
        return int(stat[stat.rindex(")") + 2:].split()[36])
    except (OSError, ValueError, IndexError):
        return -1


class Reference:
    """The child process that times the reference work on request."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def ms(self, repeats: int = 3) -> float:
        """Fastest of ``repeats`` timings of the reference work, in ms, on the
        CPU this process last ran on."""
        self._proc.stdin.write(f"{_current_cpu()} {repeats}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference process ended")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def scale(before_ms: float, after_ms: float) -> float:
    """Factor from a raw time to the reference machine state."""
    return 2.0 * REFERENCE_MS / (before_ms + after_ms)


def _serve() -> None:
    for line in sys.stdin:
        cpu, repeats = map(int, line.split())
        if cpu >= 0:
            try:
                os.sched_setaffinity(0, {cpu})
            except OSError:
                pass
        print(repr(_best_ms(repeats)), flush=True)


if __name__ == "__main__":
    _serve()
