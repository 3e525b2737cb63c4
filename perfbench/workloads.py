"""The benchmark's workloads: seeded op lists, their inputs, and correctness gates.

Each workload is a closed loop over a fixed op list: one caller, the next op
issued when the previous one returns.  ``make_ops(workload, seed)`` is a pure
function returning plain data (kinds and parameters), so the list can be
hashed and compared; ``Workload.materialize`` turns it into library inputs,
``Workload.execute`` runs one op's library calls (the timed part) and
``Workload.gate`` checks what they returned (untimed).

A gate returns ``((attempted, failed), ratios)``: the checks counted, those
that failed, and residual/tolerance for each check with a nonzero tolerance.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform

import numpy as np

import spinbundles as sb
from spinbundles import berry_robbins as br
from spinbundles import config_space as cs
from spinbundles import experiments as ex
from spinbundles import line_bundle as lb
from spinbundles import section_algebra as sa
from spinbundles import transport as tp

WORKLOADS = ("verify", "holonomy-probes", "section-roundtrips", "pointwise-queries")

# Gate tolerances.  Holonomy and transport drift follow the library's
# acceptance bounds; section identities are scaled by the size of the values
# compared (floored at 1), so polynomials with large coefficients are held to
# the same relative accuracy.
TOL_HOLONOMY = 1e-6
TOL_DRIFT = 1e-8
TOL_ALGEBRAIC = 1e-12
TOL_FUNCTIONAL = 1e-10
TOL_INVOLUTION = 1e-14
# Smallest sin(theta) the angle-based projector check is scaled by.
POLE_FLOOR = 1e-4

PROBE_FIELDS = ("odd-linear", "odd-harmonic", "constant-line", "moved-line", "singlet")
NONTRIVIAL_FIELDS = ("odd-linear", "odd-harmonic", "moved-line")
PROBE_LOOPS = ("antipodal-arc", "small-circle", "great-circle")
PROBE_STEPS = (256, 1024, 4096)
SMALL_CIRCLE_RADII = (0.3, 0.7, 1.1)


def probe_repeats(field: str, steps: int) -> int:
    """How often each (field, steps) cell appears in a pass.

    Once at 4096 steps and twice otherwise, except the 10x10 moved line at
    1024 steps, four times: the moved-line probes then fill the top decile of
    latencies with p90 inside one cluster, not on the edge between two.
    """
    if field == "moved-line" and steps == 1024:
        return 4
    return 1 if steps == 4096 else 2


# Open arcs for transport probes are this fraction of a great circle.
OPEN_ARC = 1.0 / 3.0

SECTION_SIZES = (2048, 16384)
GAUGES = ("odd-linear", "odd-harmonic", "even-constant")
# Ops per pass by (kind, points).  The counts place p50 inside the 2048-point
# parity splits and p90 inside the 2048-point spin checks, so neither
# percentile sits on the edge between two latency clusters.
SECTION_MIX = {
    ("odd-roundtrip", 2048): 10,
    ("coefficient-roundtrip", 2048): 11,
    ("parity-split", 2048): 33,
    ("five-step", 2048): 24,
    ("spin-check", 2048): 12,
    ("odd-roundtrip", 16384): 2,
    ("coefficient-roundtrip", 16384): 2,
    ("parity-split", 16384): 2,
    ("five-step", 16384): 2,
    ("spin-check", 16384): 2,
}
# Enough directions that the worst rounding residual of the moved-basis
# checks is reached on every seed, few enough for ten passes in a run.
POINTWISE_OPS = 2000

# The verify warm-up runs the suite at the smallest scale it accepts.
WARMUP_SUITE = {"samples": 64, "ode_steps": 16}


# ---------------------------------------------------------------------------
# Op lists
# ---------------------------------------------------------------------------


def _direction(rng) -> list[float]:
    v = rng.standard_normal(3)
    return (v / np.linalg.norm(v)).tolist()


def _holonomy_ops(rng) -> list[dict]:
    """Per field and step count, probe_repeats() holonomies on each loop and
    as many open-arc transports; directions, phases, radii and m are random."""
    ops = []
    for field in PROBE_FIELDS:
        for steps in PROBE_STEPS:
            for _ in range(probe_repeats(field, steps)):
                for loop in PROBE_LOOPS:
                    ops.append({"kind": "holonomy", "field": field, "loop": loop, "steps": steps})
                ops.append({"kind": "transport", "field": field, "loop": "open-arc", "steps": steps})
    for op in ops:
        op["u"] = _direction(rng)
        op["w"] = _direction(rng)
        op["m"] = int(rng.integers(-1, 2))
        op["line"] = (rng.standard_normal(3) + 1j * rng.standard_normal(3)).tolist()
        op["radius"] = float(rng.choice(SMALL_CIRCLE_RADII))
        op["phase"] = [float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.0, 2.0 * np.pi))]
    return ops


def _section_ops(rng) -> list[dict]:
    """SECTION_MIX ops of each kind and size; one point set per size, a fresh
    polynomial seed per op.  Five-step ops alternate coefficient parity and
    cycle through the gauges from a random start, so every (parity, gauge)
    pair appears equally often at 2048 points."""
    point_seeds = {n: int(rng.integers(2**63)) for n in SECTION_SIZES}
    ops = []
    for (kind, n), count in SECTION_MIX.items():
        offset = int(rng.integers(len(GAUGES)))
        for i in range(count):
            op = {"kind": kind, "n": n, "points_seed": point_seeds[n], "poly_seed": int(rng.integers(2**63))}
            if kind == "five-step":
                op["parity"] = ("odd", "even")[i % 2]
                op["gauge"] = GAUGES[(i // 2 + offset) % len(GAUGES)]
            ops.append(op)
    return ops


def _pointwise_ops(rng) -> list[dict]:
    return [
        {"kind": "pointwise", "x": _direction(rng), "lam": [float(rng.uniform(-2, 2)), float(rng.uniform(-1, 1))],
         "vec": rng.standard_normal(3).tolist()}
        for _ in range(POINTWISE_OPS)
    ]


def make_ops(workload: str, seed: int) -> list[dict]:
    """The op list of a workload: a pure function of the workload and the seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "verify":
        return [{"kind": "suite", "seed": int(seed)}]
    if workload == "holonomy-probes":
        ops = _holonomy_ops(rng)
    elif workload == "section-roundtrips":
        ops = _section_ops(rng)
    elif workload == "pointwise-queries":
        ops = _pointwise_ops(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [ops[i] for i in rng.permutation(len(ops))]


def ops_hash(ops: list[dict]) -> str:
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _probe_field(op: dict):
    kind = op["field"]
    if kind in ("odd-linear", "odd-harmonic"):
        return tp.grassmann_field(lb.ChiVariant(kind))
    if kind == "constant-line":
        v = np.asarray(op["line"], dtype=complex)
        v /= np.linalg.norm(v)
        return tp.constant_projector_field(np.outer(v, v.conj()), "constant-line")
    if kind == "moved-line":
        return br.exchange_line_field(op["m"])
    return br.singlet_field()


def _probe_curve(op: dict):
    u, w = op["u"], op["w"]
    if op["loop"] == "antipodal-arc":
        return tp.antipodal_arc(u, w)
    if op["loop"] == "small-circle":
        return tp.small_circle(u, op["radius"])
    if op["loop"] == "great-circle":
        return tp.great_circle(u, w)
    return tp.restrict(tp.great_circle(u, w), 0.0, OPEN_ARC)


def _section_inputs(op: dict, points: dict) -> dict:
    # Degree 3 (2 for even fields) rather than the suite's 5 and 4 keeps a
    # pass of 100 ops to a few seconds at today's closure-chain speed.
    rng = np.random.default_rng(op["poly_seed"])
    kind = op["kind"]
    inp = {"xs": points[op["points_seed"]]}
    if kind == "odd-roundtrip":
        inp["a"] = sa.random_polynomial(rng, 3, "odd")
    elif kind == "coefficient-roundtrip":
        inp["gs"] = [sa.random_polynomial(rng, 2, "even") for _ in range(3)]
    elif kind == "parity-split":
        inp["a"] = sa.random_polynomial(rng, 3, None)
    elif kind == "five-step":
        degree = 3 if op["parity"] == "odd" else 2
        inp["a"] = sa.random_polynomial(rng, degree, op["parity"])
        inp["gauge"] = lb.ChiVariant(op["gauge"])
    else:
        inp["raw"] = {lbl: sa.random_polynomial(rng, 3, None) for lbl in br.PRODUCT_LABELS}
    return inp


class Workload:
    """A workload's op list and the library inputs built from it."""

    def __init__(self, name: str, seed: int, fault_inject: str | None = None):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        if fault_inject is not None and name != "verify":
            raise ValueError("fault injection applies to the verify workload only")
        self.name = name
        self.seed = seed
        self.fault_inject = fault_inject
        self.ops = make_ops(name, seed)
        self.hash = ops_hash(self.ops)
        self.inputs: list = []

    def materialize(self) -> None:
        """Build the library objects each op works on (fields, curves, polynomials)."""
        ops = self.ops
        if self.name == "holonomy-probes":
            self.inputs = [(op, _probe_field(op), _probe_curve(op)) for op in ops]
        elif self.name == "section-roundtrips":
            points = {op["points_seed"]: cs.sample_sphere(op["n"], op["points_seed"]) for op in ops}
            self.inputs = [(op, _section_inputs(op, points)) for op in ops]
        elif self.name == "pointwise-queries":
            self.inputs = [(op, cs.SpherePoint.from_vec(op["x"])) for op in ops]
        else:
            self.inputs = [(op, ex.SuiteConfig(seed=op["seed"], fault_inject=self.fault_inject)) for op in ops]

    def warm_up(self) -> None:
        """One op of each kind, ungated, so lazy caches and first-call costs are paid."""
        if self.name == "verify":
            ex.run_suite(ex.SuiteConfig(seed=self.seed, **WARMUP_SUITE))
            return
        # At the smallest size: the kinds, not the sizes, carry first-call costs.
        seen = set()
        for item in self.inputs:
            op = item[0]
            key = (op["kind"], op.get("field"))
            smallest = op.get("steps", PROBE_STEPS[0]) == PROBE_STEPS[0] and op.get("n", SECTION_SIZES[0]) == SECTION_SIZES[0]
            if smallest and key not in seen:
                seen.add(key)
                self.execute(item)

    def execute(self, item):
        """Run one op's library calls; returns what its gate checks."""
        return _EXECUTE[self.name](*item)

    def gate(self, item, payload) -> tuple[tuple[int, int], list[float]]:
        """((checks attempted, checks failed), residual/tolerance ratios) of one op."""
        return _GATE[self.name](item[0], payload)


# ---------------------------------------------------------------------------
# Ops and gates.  Execution (timed) returns what the gate (untimed) checks.
# ---------------------------------------------------------------------------


def _run_suite(op, config):
    return ex.run_suite(config)


def _gate_suite(op, report):
    # Every check counts; all_pass is exactly "none failed".
    checks = report.checks
    failed = sum(1 for c in checks if not c.passed)
    ratios = [c.residual / c.tolerance for c in checks if c.tolerance > 0]
    return (len(checks), failed), ratios


def _run_probe(op, field, curve):
    if op["kind"] == "holonomy":
        return tp.holonomy(field, curve, op["steps"])
    mag, angle = op["phase"]
    v0 = mag * np.exp(1j * angle) * field.frame(curve.point(0.0))
    return v0, tp.parallel_transport(field, curve, v0, op["steps"]), field, curve


def _gate_probe(op, payload):
    if op["kind"] == "holonomy":
        nontrivial = op["field"] in NONTRIVIAL_FIELDS and op["loop"] == "antipodal-arc"
        expected = -1.0 if nontrivial else 1.0
        ratios = [abs(payload - expected) / TOL_HOLONOMY]
    else:
        v0, v1, field, curve = payload
        p_end = field.evaluate(curve(1.0))
        norm0 = np.linalg.norm(v0)
        ratios = [
            abs(np.linalg.norm(v1) - norm0) / norm0 / TOL_DRIFT,
            np.linalg.norm(v1 - p_end @ v1) / norm0 / TOL_DRIFT,
        ]
    return (1, int(not all(r <= 1.0 for r in ratios))), ratios


def _scale(*arrays) -> float:
    return max(1.0, *(float(np.abs(a).max()) for a in arrays))


def _run_section(op, inp):
    xs = inp["xs"]
    kind = op["kind"]
    if kind == "odd-roundtrip":
        a = inp["a"]
        back = sa.odd_from_section(sa.section_from_odd(a))
        return a(xs), back(xs)
    if kind == "coefficient-roundtrip":
        f = sa.project_to_section(*inp["gs"])
        back = sa.section_from_odd(sa.odd_from_section(f))
        return f.projector_residual(xs), f.coefficient_values(xs), back.coefficient_values(xs)
    if kind == "parity-split":
        a = inp["a"]
        even, odd = sa.parity_decompose(a)
        ee, eo = sa.parity_decompose(even)
        oe, oo = sa.parity_decompose(odd)
        return (even.parity, odd.parity), [f(xs) for f in (a, even, odd, ee, eo, oe, oo)]
    if kind == "five-step":
        return ex.five_step_from_coefficient(inp["a"], inp["gauge"], points=xs, tol=TOL_FUNCTIONAL)
    psi = br.TwoSpinWaveFunction(br.antisymmetrize(inp["raw"]), "product")
    return psi, br.spin_statistics_check(psi, xs), xs


def _gate_section(op, payload):
    kind = op["kind"]
    flags = []
    if kind == "odd-roundtrip":
        a, back = payload
        ratios = [float(np.abs(a - back).max()) / (TOL_ALGEBRAIC * _scale(a))]
    elif kind == "coefficient-roundtrip":
        proj, coeffs, back = payload
        scale = _scale(coeffs)
        ratios = [proj / (TOL_FUNCTIONAL * scale), float(np.abs(back - coeffs).max()) / (TOL_ALGEBRAIC * scale)]
    elif kind == "parity-split":
        parities, (a, even, odd, ee, eo, oe, oo) = payload
        flags.append(parities == ("even", "odd"))
        scale = _scale(a)
        defects = [even + odd - a, ee - even, oo - odd, eo, oe]
        ratios = [float(np.abs(d).max()) / (TOL_ALGEBRAIC * scale) for d in defects]
    elif kind == "five-step":
        report = payload
        coefficient_odd = op["parity"] == "odd"
        gauge_odd = lb.ChiVariant(op["gauge"]).is_odd
        # Invariance holds exactly when the coefficient is odd, in every
        # gauge; single-valuedness holds when coefficient and gauge parities
        # agree, anti-single-valuedness when they differ.
        expected = {
            "invariant": coefficient_odd,
            "singlevalued": coefficient_odd == gauge_odd,
            "anti_singlevalued": coefficient_odd != gauge_odd,
        }
        flags.append(not report.vacuous and report.flags() == expected)
        step5 = report.step5
        residual_of = {
            "invariant": step5["invariance_residual"],
            "singlevalued": step5["same_value_residual"],
            "anti_singlevalued": step5["opposite_value_residual"],
        }
        ratios = [residual_of[k] / TOL_FUNCTIONAL for k, v in expected.items() if v]
    else:
        psi, rep, xs = payload
        scale = _scale(*(f(xs) for f in psi.coefficients.values()))
        ratios = [
            rep.singlevalued_residual / (TOL_FUNCTIONAL * scale),
            rep.coefficient_relation_residual / (TOL_FUNCTIONAL * scale),
        ]
    ok = all(flags) and all(r <= 1.0 for r in ratios)
    return (1, int(not ok)), ratios


def _run_pointwise(op, x):
    q = cs.project(x)
    q_neg = cs.project(-x)
    charts = cs.ATLAS.charts_containing(q)
    roundtrips = [cs.chart_inverse(a, cs.chart_map(a, q)).vec for a in charts]
    cocycle = [
        (lb.transition(a, b, q), lb.transition(b, c, q), lb.transition(a, c, q))
        for a in charts
        for b in charts
        for c in charts
    ]
    lam = complex(*op["lam"])
    g = cs.SWAP
    involutions = []
    for action in (lb.tau_plus(), lb.tau_minus(), lb.tau_tilde(), lb.tau_prime()):
        if action.chi_variant is None:
            vec = np.asarray(op["vec"], dtype=complex)
        else:
            vec = lam * lb.chi(action.chi_variant, x)
        y1, w1 = lb.group_act(action, g, x, vec)
        y2, w2 = lb.group_act(action, g, y1, w1)
        involutions.append((vec, y2, w2))
    signs = [
        (br.transported_basis(1, m, -x), br.transported_basis(1, m, x)) for m in br.TRIPLET_MS
    ]
    singlet = (br.transported_basis(0, 0, -x), br.transported_basis(0, 0, x))
    pm = br.projector_Pm(x)
    p_harm = lb.projector_minus(x, lb.ChiVariant.ODD_HARMONIC)
    return q, q_neg, roundtrips, cocycle, involutions, signs, singlet, pm, p_harm


def _gate_pointwise(op, payload):
    q, q_neg, roundtrips, cocycle, involutions, signs, singlet, pm, p_harm = payload
    x = np.asarray(op["x"])
    flags = [np.array_equal(q.vec, q_neg.vec), all(g1 * g2 == g3 for g1, g2, g3 in cocycle)]
    ratios = [float(np.linalg.norm(back - q.vec)) / TOL_ALGEBRAIC for back in roundtrips]
    for vec, y2, w2 in involutions:
        residual = max(float(np.linalg.norm(y2.vec - x)), float(np.abs(w2 - vec).max()))
        ratios.append(residual / (TOL_INVOLUTION * _scale(vec)))
    ratios.extend(float(np.linalg.norm(there + here)) / TOL_ALGEBRAIC for there, here in signs)
    ratios.append(float(np.linalg.norm(singlet[0] - singlet[1])) / TOL_ALGEBRAIC)
    # projector_Pm goes through the polar angles, and theta = arccos(x3) loses
    # digits like 1/sin(theta) near the poles; the tolerance follows that
    # conditioning so the ratio measures the construction, not pole distance.
    sin_theta = max(float(np.hypot(x[0], x[1])), POLE_FLOOR)
    ratios.append(float(np.abs(pm - p_harm).max()) * sin_theta / TOL_ALGEBRAIC)
    ok = all(flags) and all(r <= 1.0 for r in ratios)
    return (1, int(not ok)), ratios


_EXECUTE = {
    "verify": _run_suite,
    "holonomy-probes": _run_probe,
    "section-roundtrips": _run_section,
    "pointwise-queries": _run_pointwise,
}
_GATE = {
    "verify": _gate_suite,
    "holonomy-probes": _gate_probe,
    "section-roundtrips": _gate_section,
    "pointwise-queries": _gate_pointwise,
}


def environment() -> dict:
    """What the numbers were measured on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "backend": sb.kernels.backend_name(),
        "numba_available": sb.kernels.numba_available(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None
