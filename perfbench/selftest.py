"""Self-tests of the benchmark harness (not part of the library's test suite).

    python3 -m pytest perfbench/selftest.py

They run the benchmark as a subprocess, the way it is driven, so they take a
few minutes: fault injection on verify, op-list determinism, exact repeat of
the traced counts, layer isolation, the span file, and failure outside a
source checkout.
"""

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402

RUN = os.path.join(HERE, "run.py")


def run_bench(*args, cwd=ROOT, script=RUN):
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


@functools.lru_cache(maxsize=None)
def traced(workload: str, seed: int, attempt: int):
    code, result = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "1")
    assert code == 0 and result["correct"], result
    return {k: v["value"] for k, v in result["metrics"].items()}


def count_metrics(metrics: dict) -> dict:
    names = ("kernels.steps", "berry_robbins.exchange_points", "section_algebra.poly_evals")
    return {k: v for k, v in metrics.items() if k.endswith(".calls") or k in names}


def test_fault_injection_fails_exactly_the_exchange_family():
    code, result = run_bench("--workload", "verify", "--seed", "0", "--seconds", "0",
                             "--fault-inject", "exchange.unitarity")
    assert code != 0
    assert result["correct"] is False
    assert (result["failed"], result["attempted"]) == (3, 52)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_list_is_a_pure_function_of_workload_and_seed(workload):
    first, again, other = (workloads.make_ops(workload, s) for s in (7, 7, 8))
    assert first == again
    assert workloads.ops_hash(first) == workloads.ops_hash(again)
    assert first != other
    assert workloads.ops_hash(first) != workloads.ops_hash(other)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    assert count_metrics(traced(workload, 3, 0)) == count_metrics(traced(workload, 3, 1))


def test_layer_isolation():
    for workload in ("section-roundtrips", "pointwise-queries"):
        assert traced(workload, 3, 0)["kernels.calls"] == 0
    assert traced("holonomy-probes", 3, 0)["section_algebra.calls"] == 0
    assert traced("holonomy-probes", 3, 0)["kernels.steps"] > 0
    assert traced("section-roundtrips", 3, 0)["section_algebra.poly_evals"] > 0


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(trace, kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    code, result = run_bench("--workload", "pointwise-queries", "--seed", "3", "--seconds", "0", "--trace", trace)
    assert code == 0 and result["correct"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_spans_are_written_with_parents_before_children(tmp_path):
    path = tmp_path / "spans.jsonl"
    code, result = run_bench("--workload", "holonomy-probes", "--seed", "3", "--seconds", "0", "--trace", "1",
                             "--spans", str(path))
    assert code == 0
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    calls = sum(v["value"] for k, v in result["metrics"].items() if k.endswith(".calls"))
    assert len(spans) == calls > 0
    assert all(-1 <= span["parent"] < i for i, span in enumerate(spans))
    assert all(span["start_ns"] <= span["end_ns"] for span in spans)


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    code, result = run_bench("--workload", "verify", "--seed", "0", "--seconds", "1", cwd=tmp_path,
                             script=str(tmp_path / "perfbench" / "run.py"))
    assert code != 0
    assert result is None
