"""Run one ``biochain`` command with the benchmark's span wrappers installed.

Usage (from the benchmark, with ``src`` on PYTHONPATH):

    PERFBENCH_OP=<label> PERFBENCH_SPANS=<file> python launcher.py --out DIR CMD ...

The command's own arguments follow, exactly as for ``python -m
biochain.cli``. The cold import of ``biochain.cli`` is timed and kept as the
``cli.import_ms`` counter, the whole command is one operation under a
``cli.main`` root span, and the spans are written to ``PERFBENCH_SPANS``
when the command ends, whatever its exit code.
"""

import time

_t0 = time.perf_counter()
import biochain.cli  # noqa: E402  (the import is what is being timed)
_import_ms = 1e3 * (time.perf_counter() - _t0)

import os  # noqa: E402

import tracing  # noqa: E402


def main() -> None:
    rec = tracing.Recorder()
    uninstall = tracing.install(rec)
    rec.begin_op(os.environ["PERFBENCH_OP"], "cli.main")
    rec.count("cli.import_ms", _import_ms)
    try:
        biochain.cli.main(prog_name="biochain")
    finally:
        rec.end_op()
        uninstall()
        rec.dump(os.environ["PERFBENCH_SPANS"])


if __name__ == "__main__":
    main()
