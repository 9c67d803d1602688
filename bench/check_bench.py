"""Tests of the benchmark itself (not collected by a plain ``pytest`` run).

Run from the repository root:

    python -m pytest bench/check_bench.py -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("corpus", "ladder", "solve", "cli")

_DIGEST = """
import hashlib, sys, tempfile
sys.path[:0] = [{bench!r}, {src!r}]
import workloads
for workload in workloads.WORKLOADS:
    with tempfile.TemporaryDirectory() as workdir:
        data = workloads.serialized_inputs(workload, {seed}, False, workdir, {root!r})
    print(workload, hashlib.sha256(data).hexdigest())
"""


def _digests(seed: int, hash_seed: str) -> dict[str, str]:
    code = _DIGEST.format(bench=BENCH, src=os.path.join(ROOT, "src"), root=ROOT, seed=seed)
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return dict(line.split() for line in out.stdout.splitlines())


def test_inputs_depend_on_the_seed_only():
    """Same seed, different interpreter hash seeds: identical bytes; another
    seed: different bytes, for every workload."""
    first = _digests(7, "1")
    assert first == _digests(7, "2")
    other = _digests(8, "1")
    assert set(first) == set(WORKLOADS)
    assert all(first[w] != other[w] for w in WORKLOADS)


def test_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)


def _run(*args: str, cwd: str = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_finishes_in_seconds(workload):
    t0 = time.perf_counter()
    proc, result = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke")
    assert time.perf_counter() - t0 < 60
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1", "--smoke")
    (_, first), (_, second) = _run(*args), _run(*args)
    assert list(first["metrics"]) == [name for name, _ in spans.PER_LAYER]
    for name, unit in spans.PER_LAYER:
        if unit in ("count", "bytes"):
            assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = _run("--workload", "corpus", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert result is None
