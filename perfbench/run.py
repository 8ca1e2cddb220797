"""biochain benchmark.

    python3 perfbench/run.py --workload identify-5k --seed 1 --seconds 20 --trace 0

Workloads: ``identify-5k``, ``chain-deep`` and ``cli-audit`` (see
workloads.py for what each runs and why). With ``--trace 0`` the run reports
the end-to-end metrics; with ``--trace 1`` it reports the per-layer metrics
of a traced run and the tracing overhead. METRICS.md lists every metric.

The program is imported from ``src/`` of the checkout this file sits in; the
run fails, printing no result, when that source is missing. Human-readable
tables and provenance go to standard output, the full result goes to
``.perfbench-out/`` in the checkout, and the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# Pin BLAS and OpenMP to one thread before numpy loads, here and in every
# process this benchmark starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("identify-5k", "chain-deep", "cli-audit")


def provenance() -> dict:
    """Machine, library versions and source revision behind a result."""
    commit = "unknown"  # a checkout without .git, where git would search the parents
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    versions = {}
    for package in ("numpy", "cryptography", "click"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "missing"
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "commit": commit,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "biochain" / "__init__.py").is_file():
        print(f"no biochain source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import biochain
    if Path(biochain.__file__).resolve().parent != ROOT / "src" / "biochain":
        print(f"biochain imported from {biochain.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import calibrate
    import workloads

    out_dir = ROOT / ".perfbench-out"
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(exist_ok=True)
    work.mkdir(parents=True, exist_ok=True)
    try:
        with calibrate.Reference() as reference:
            ctx = workloads.Context(root=ROOT, work=work, out=out_dir, name=args.workload,
                                    deadline=time.perf_counter() + workloads.DEADLINE_S,
                                    reference=reference)
            result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                   ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    factor = result.report["machine_factor_p50"]
    result.report["off_reference"] = not 1 / calibrate.FLAG_FACTOR <= factor <= calibrate.FLAG_FACTOR
    if result.report["off_reference"]:
        print(f"warning: operations ran {factor:.2f}x as long as on the reference machine; "
              "the scaled times are estimates for it", file=sys.stderr)

    summary = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "provenance": provenance(), "report": result.report,
            "table": result.table, **summary}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=2) + "\n")
    print("\n".join(result.table))
    print("provenance:", json.dumps(full["provenance"]))
    print("report:", json.dumps(result.report))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
