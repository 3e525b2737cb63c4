"""The benchmark's workloads still run on the library and pass their gates.

perfbench/workloads.py reads library names that no other test imports
(re-exports, optional arguments); running one op of each kind here catches
a removed or renamed name in seconds, not in the benchmark's own self-tests.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


def test_verify_warm_up_runs():
    workload = workloads.Workload("verify", 0)
    workload.materialize()
    workload.warm_up()


@pytest.mark.parametrize("name", [w for w in workloads.WORKLOADS if w != "verify"])
def test_warm_up_ops_pass_their_gates(name):
    # warm_up executes one op of each (kind, field) at the smallest size;
    # each of those is gated here.
    workload = workloads.Workload(name, 0)
    workload.materialize()
    ran = []
    execute = workload.execute
    workload.execute = lambda item: ran.append((item, execute(item)))
    workload.warm_up()
    assert ran
    for item, payload in ran:
        (attempted, failed), _ = workload.gate(item, payload)
        assert attempted > 0 and failed == 0, item[0]
