"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from biochain import matcher  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "identify-5k": workloads.QueryWorkload(60, 8, "euclidean", None, setup_repeats=2,
                                           check_identity=True),
    "chain-deep": workloads.QueryWorkload(12, 32, "cosine", inputs.DEEP_CHAIN,
                                          setup_repeats=2),
    "cli-audit": workloads.CliWorkload(60, 8, setup_repeats=1),
}


def _run(name, trace, tmp_path):
    with calibrate.Reference() as reference:
        ctx = workloads.Context(root=ROOT, work=tmp_path / "work", out=tmp_path / "out",
                                name=name, deadline=time.perf_counter() + 120,
                                reference=reference)
        ctx.work.mkdir()
        ctx.out.mkdir()
        spec = TINY[name]
        if isinstance(spec, workloads.CliWorkload):
            return workloads.run_cli(name, spec, 3, 0.2, trace, ctx)
        return workloads.run_queries(name, spec, 3, 0.2, trace, ctx)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_declared_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result = _run(name, trace, tmp_path)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert result.failed == 0 and result.attempted >= 1
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: unit for k, (_, unit) in result.metrics.items()}
    assert all(isinstance(v, float) for v, _ in result.metrics.values())
    if not trace:
        assert all(v > 0 for v, _ in result.metrics.values())


def test_swapped_candidates_count_as_errors(tmp_path, monkeypatch):
    real = matcher.identify

    def swapped(*args, **kwargs):
        result = real(*args, **kwargs)
        c = list(result.candidates)
        c[0], c[1] = c[1], c[0]
        return dataclasses.replace(result, candidates=c)

    monkeypatch.setattr(matcher, "identify", swapped)
    result = _run("chain-deep", False, tmp_path)
    assert result.attempted >= 1
    assert result.failed == result.attempted


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "chain-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
