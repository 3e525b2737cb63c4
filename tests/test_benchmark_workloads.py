"""The benchmark's workloads still run on the library and pass their gates.

perfbench/workloads.py reads library names that no other test imports
(re-exports, optional arguments); running one op of each kind here catches
a removed or renamed name in seconds, not in the benchmark's own self-tests.
"""

import importlib.util
import math
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
layertrace = _load("layertrace")


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


_S = math.sqrt(0.5)
_R = 1.0 / math.sqrt(3.0)


@pytest.mark.parametrize(
    "x",
    [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (_S, _S, 0.0), (_S, -_S, 0.0), (_R, _R, _R), (1e-13, 0.6, 0.8)],
    ids=["north-pole", "south-pole", "seam+", "seam-", "diagonal", "x1-below-eps"],
)
def test_pointwise_op_passes_its_gate_at_chart_seams(x):
    # The scalar chart and transition queries branch at these directions,
    # which the workload's random ones never hit.
    op = {"kind": "pointwise", "x": list(x), "lam": [0.7, -0.3], "vec": [0.4, -1.1, 0.25]}
    payload = workloads._run_pointwise(op, workloads.cs.SpherePoint.from_vec(op["x"]))
    (attempted, failed), ratios = workloads._gate_pointwise(op, payload)
    assert attempted == 1 and failed == 0, ratios


def test_kernel_meter_reads_the_kernel_calls():
    # The tracer's kernel meter reads the matrix size and the step count from
    # the kernel's first positional argument; the singlet's connection
    # vanishes, so its transport never reaches the kernel.
    tp, lb, br = workloads.tp, workloads.lb, workloads.br
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        tracer.recording = True
        arc = tp.antipodal_arc([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        for field in (lb.grassmann_field(), br.exchange_line_field(1), br.singlet_field()):
            tp.holonomy(field, arc, 64)
    finally:
        tracer.uninstall()
    assert dict(tracer.kernel_steps) == {3: 64, 10: 64}


def test_environment_reads_the_package_namespace():
    # environment() reads the kernels through the package attribute
    # spinbundles.kernels, which the package itself does not import: it is
    # bound once a layer module (transport) imports kernels.
    env = workloads.environment()
    assert env["backend"] == "numpy"
    assert isinstance(env["numba_available"], bool)
