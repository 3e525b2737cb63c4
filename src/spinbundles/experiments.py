"""Verification suites: the five-step gauge experiment and the full check run.

The five-step experiment takes a section downstairs, lifts it to the
pull-back bundle, and evaluates invariance and single-valuedness residuals in
two gauges: an odd gauge map chi and an even one chi'.  Invariance of the
lifted section is gauge independent (it holds exactly when the coefficient
function is odd), while the single-valuedness identity the section satisfies
flips sign with the gauge parity.  run_suite executes every module-level
identity check and returns a structured, deterministic report.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import berry_robbins as br
from . import line_bundle as lb
from . import section_algebra as sa
from . import transport as tp
from .config_space import ATLAS, CHART_INDICES, GroupElement, SpherePoint, angles_of, antipode, chart_contains
from .config_space import _is_integer, chart_inverse, chart_map, partition_phi, project, sample_sphere
from .errors import ConfigError
from .line_bundle import ChiVariant
from .section_algebra import (
    PullbackSection,
    ScalarField,
    invariance_residual,
    parity_decompose,
    pullback_T,
    random_polynomial,
    random_polynomial_families,
    section_from_odd,
    singlevaluedness_residuals,
)

NEAR_ZERO_SECTION = 1e-8
DETECTION_LEVEL = 1e-3
MAX_SAMPLES = 1 << 20  # bounds the (samples, 3) arrays and what is built from them
# Points on, or within COORD_EPS of, a chart boundary x_a = 0, which uniform
# samples never hit: the three axes and two seams.
_CHART_BOUNDARY_POINTS = np.array(
    [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.6, -0.8, 0.0), (1e-13, 0.6, 0.8)]
)


def _cabs(z: np.ndarray) -> np.ndarray:
    """|z| of a complex array as hypot, bit for bit the abs of each element as a Python complex."""
    return np.hypot(z.real, z.imag)


def _check_sampling(seed: int, samples: int, tol_functional: float) -> None:
    """The input checks shared by the suite and the experiment command."""
    _check_integer("seed", seed)
    _check_integer("samples", samples)
    if not 0 <= int(seed) < 2**64:
        raise ConfigError("seed must fit in 64 bits")
    if samples < 64:
        raise ConfigError("samples must be at least 64")
    if samples > MAX_SAMPLES:
        raise ConfigError(f"samples must be at most {MAX_SAMPLES}")
    _check_tolerance("tol_functional", tol_functional)


def _check_integer(name: str, value: int) -> None:
    if not _is_integer(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def _check_tolerance(name: str, tol: float) -> None:
    if isinstance(tol, (bool, np.bool_)):  # True compares as 1.0
        raise ConfigError(f"{name} must be a number, got {tol!r}")
    if not (tol > 0 and math.isfinite(tol)):
        raise ConfigError(f"{name} must be positive and finite")


@dataclass
class SuiteConfig:
    """Knobs of the verification suite; defaults match the documented contract."""

    seed: int = 0
    samples: int = 2048
    ode_steps: int = tp.DEFAULT_STEPS
    fd_step: float = 1e-5
    tol_algebraic: float = 1e-12
    tol_functional: float = sa.FUNCTIONAL_TOL
    tol_holonomy: float = 1e-6
    output: str = "text"
    fault_inject: str | None = None

    def validate(self) -> None:
        _check_sampling(self.seed, self.samples, self.tol_functional)
        _check_integer("ode_steps", self.ode_steps)
        if self.ode_steps < tp.MIN_STEPS:
            raise ConfigError(f"ode_steps must be at least {tp.MIN_STEPS}")
        if self.ode_steps > tp.MAX_STEPS:
            raise ConfigError(f"ode_steps must be at most {tp.MAX_STEPS}")
        lo, hi = br.FD_STEP_RANGE
        if not lo <= self.fd_step <= hi:
            raise ConfigError(f"fd_step must lie in [{lo:.0e}, {hi:.0e}]")
        _check_tolerance("tol_algebraic", self.tol_algebraic)
        _check_tolerance("tol_holonomy", self.tol_holonomy)
        if self.output not in ("text", "json"):
            raise ConfigError("output format must be 'text' or 'json'")
        if self.fault_inject is not None and self.fault_inject not in FAULT_TARGETS:
            raise ConfigError(
                f"no fault is wired to check {self.fault_inject!r}; "
                f"supported targets: {sorted(FAULT_TARGETS)}"
            )

    def to_dict(self) -> dict:
        """Every field in declaration order; numbers as the plain int or float of their default."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = type(f.default)(value) if isinstance(f.default, (int, float)) else value
        return out


#: Which checks a given fault id knocks out, and the kind of sabotage applied.
FAULT_TARGETS = {
    "exchange.unitarity": "exchange-block",
    "exchange.rule": "exchange-block",
    "br.parallel-residual": "exchange-block",
    "sections.invariance": "parity-coefficient",
    "experiment.odd-gauge": "parity-coefficient",
    "experiment.even-gauge": "parity-coefficient",
}


def checks_hit_by_fault(check_id: str) -> tuple[str, ...]:
    kind = FAULT_TARGETS.get(check_id)
    return tuple(cid for cid, k in FAULT_TARGETS.items() if k == kind)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    anchor: str
    residual: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "anchor": self.anchor,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass
class VerificationReport:
    suite: str
    seed: int
    config: dict
    checks: list[CheckResult]
    all_pass: bool
    wall_ms: float

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "config": self.config,
            "checks": [c.to_dict() for c in self.checks],
            "all_pass": self.all_pass,
            "wall_ms": self.wall_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False) + "\n"

    def failed(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


@dataclass
class FiveStepReport:
    """Outcome of the five-step gauge experiment for one target gauge."""

    chi_variant: str
    step1: dict
    step2: dict
    step3: dict
    step4: dict
    step5: dict
    invariant: bool | None
    singlevalued: bool | None
    anti_singlevalued: bool | None
    vacuous: bool
    tolerance: float

    def flags(self) -> dict:
        return {
            "invariant": self.invariant,
            "singlevalued": self.singlevalued,
            "anti_singlevalued": self.anti_singlevalued,
        }

    def to_dict(self) -> dict:
        return {
            "chi_variant": self.chi_variant,
            "steps": {
                "step1": self.step1,
                "step2": self.step2,
                "step3": self.step3,
                "step4": self.step4,
                "step5": self.step5,
            },
            "verdict": self.flags(),
            "vacuous": self.vacuous,
            "tolerance": self.tolerance,
        }


def gauge_intertwine_residual(
    variant_from: ChiVariant,
    variant_to: ChiVariant,
    xs: np.ndarray,
    lams: np.ndarray,
) -> float:
    """Residual of (transfer . action_from) = (action_to . transfer) on fiber samples.

    The transfer keeps the fiber coordinate and swaps the gauge map:
    (x, lam chi(x)) -> (x, lam chi'(x)).  Both sides are computed through
    explicit coefficient extraction, so the identity is exercised end to end.
    """
    xs = np.asarray(xs, dtype=float)
    lams = np.asarray(lams, dtype=complex)
    chi_from = variant_from.field.vector(xs)
    chi_from_moved = variant_from.field.vector(-xs)
    chi_to_moved = variant_to.field.vector(-xs)
    # action_from = tau-tilde: the ambient vector is fixed while the base
    # moves; re-extract its coordinate against the gauge at the moved point.
    z = lams[:, None] * chi_from
    lam_after = np.einsum("...i,...i->...", chi_from_moved.conj(), z)
    lhs = lam_after[:, None] * chi_to_moved
    # action_to = tau-prime on the transferred element (x, lam chi'(x)).
    rhs = (-lams)[:, None] * chi_to_moved
    return float(np.linalg.norm(lhs - rhs, axis=-1).max())


def _residual_record(sigma: PullbackSection, action, xs: np.ndarray) -> dict:
    same, opposite = singlevaluedness_residuals(sigma, xs)
    return {
        "invariance_residual": invariance_residual(sigma, action, xs),
        "same_value_residual": same,
        "opposite_value_residual": opposite,
    }


def five_step_from_coefficient(
    a: ScalarField,
    chi_variant: ChiVariant,
    points: np.ndarray,
    tol: float = sa.FUNCTIONAL_TOL,
) -> FiveStepReport:
    """Run the five-step gauge comparison from a raw coefficient function a.

    1. take the section: an odd a determines the section f_a = x_a a
       downstairs; a coefficient with an even part comes from no section, so
       step 1 records that defect and the raw pull-back section a(x) x is used;
    2. lift the section to the pull-back bundle in the odd linear gauge;
    3. measure invariance and valuedness there;
    4. transfer to the target gauge and verify that the transfer intertwines
       the two actions;
    5. measure the same residuals in the target gauge.
    The verdict flags come from step 5; they are None for a near-zero section.
    """
    xs = np.asarray(points, dtype=float)
    _, odd = sa.sampled_parity(a, "odd")
    if odd:
        source = section_from_odd(replace(a, parity="odd"))
        step1 = {
            "coefficients": [f.name for f in source.fields],
            "projector_residual": source.projector_residual(sa.validation_grid()),
        }
        sigma = pullback_T(source)
    else:
        step1 = {
            "coefficients": [a.name],
            "projector_residual": None,  # JSON null: there is no section to measure
            "note": "coefficient has an even part; not the image of any section",
        }
        sigma = PullbackSection(a)

    action3 = lb.tau_tilde(sigma.variant)
    step2 = {
        "gauge": sigma.variant.value,
        "action": action3.label.value,
        "coefficient": sigma.coefficient.name,
    }

    step3 = _residual_record(sigma, action3, xs)

    lams = xs[:, 0] + 2j * xs[:, 1] - 0.7 * xs[:, 2] + 0.3
    step4 = {
        "target_gauge": chi_variant.value,
        "intertwine_residual": gauge_intertwine_residual(sigma.variant, chi_variant, xs, lams),
    }

    sigma5 = PullbackSection(sigma.coefficient, chi_variant)
    step5 = _residual_record(sigma5, lb.tau_prime(chi_variant), xs)

    vacuous = sigma5.sup_norm(xs) < NEAR_ZERO_SECTION
    if vacuous:
        inv = sv = anti = None
    else:
        inv = step5["invariance_residual"] <= tol
        sv = step5["same_value_residual"] <= tol
        anti = step5["opposite_value_residual"] <= tol
    return FiveStepReport(
        chi_variant.value, step1, step2, step3, step4, step5, inv, sv, anti, vacuous, tol
    )


# ---------------------------------------------------------------------------
# Full verification suite
# ---------------------------------------------------------------------------


def run_suite(config: SuiteConfig) -> VerificationReport:
    """Execute every identity check across the modules; deterministic per seed."""
    config.validate()
    t0 = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    checks: list[CheckResult] = []

    def record(check_id: str, anchor: str, residual: float, tolerance: float) -> None:
        residual = float(residual)
        checks.append(CheckResult(check_id, anchor, residual, tolerance, residual <= tolerance))

    def shortfall(measured: float, required: float) -> float:
        # Detection checks: the reported residual is how far the measured
        # violation falls short of the required detection level.
        return max(0.0, required - float(measured))

    fault = FAULT_TARGETS.get(config.fault_inject)
    block_fn = br.perturbed_block if fault == "exchange-block" else None

    xs = sample_sphere(config.samples, rng)
    tol_a = config.tol_algebraic
    tol_f = config.tol_functional
    tol_h = config.tol_holonomy

    # -- base space and charts ----------------------------------------------
    dist = np.linalg.norm(xs - antipode(xs), axis=1)
    record("base.antipode-free", "|x - (-x)| = 2: the flip acts freely", np.abs(dist - 2).max(), tol_a)

    qs = project(xs)
    record(
        "base.project-antipode",
        "project(x) = project(-x)",
        np.abs(qs[:256] - project(-xs[:256])).max(),
        0.0,
    )

    phi = np.column_stack([partition_phi(a, qs) for a in CHART_INDICES])
    record(
        "charts.partition-unity",
        "sum_a phi_a([x])^2 = 1",
        np.abs((phi**2).sum(axis=1) - 1.0).max(),
        tol_a,
    )

    # The samples must also reach every octant's sign in each coordinate: the
    # count of (coordinate, sign) pairs that no sample takes is exact, and 0.
    coverage = phi.max(axis=1).min()
    missed_signs = 6 - int((xs > 0).any(axis=0).sum() + (xs < 0).any(axis=0).sum())
    record(
        "charts.cover",
        "max_a |x_a| >= 1/sqrt(3): the three charts cover everything",
        max(shortfall(coverage, 1.0 / np.sqrt(3.0) - 1e-12), missed_signs),
        0.0,
    )

    worst = 0.0
    for q in (SpherePoint(*v) for v in qs[:128].tolist()):
        inside = ATLAS.charts_containing(q)
        direct = {b_idx: chart_map(b_idx, q) for b_idx in inside}
        for a_idx in inside:
            back = chart_inverse(a_idx, direct[a_idx])
            for b_idx in inside:
                again = chart_map(b_idx, back)
                u, w = direct[b_idx]
                worst = max(worst, abs(u - again[0]), abs(w - again[1]))
    record("charts.transition-geometry", "h_b . h_a^{-1} maps h_a([x]) to h_b([x])", worst, tol_f)

    # The chart boundaries join the samples here: on them the overlaps, read
    # from chart_contains, must leave out the charts the point is not in.
    # A constant +1 is a cocycle too (the trivial bundle's), so the transitions
    # must also carry each chart's fiber coordinate into the next: v_b = g_ab v_a.
    # Real transitions carry conjugated coordinates as well, so the first
    # chart's coordinate must also be complex linear: v_a(i z) = i v_a(z).
    # Each query runs on the rows inside its charts; the other rows keep 0,
    # and a scalar membership answer stands for every row.
    cq = np.concatenate([qs[:512], project(_CHART_BOUNDARY_POINTS)])
    inside = {a: np.broadcast_to(chart_contains(a, cq), len(cq)) for a in CHART_INDICES}
    sign = {}
    for a, b in itertools.product(CHART_INDICES, repeat=2):
        rows = inside[a] & inside[b]
        sign[a, b] = np.zeros(len(cq))
        sign[a, b][rows] = lb.transition(a, b, cq[rows])
    cocycle_defect = 0.0
    for a, b, c in itertools.product(CHART_INDICES, repeat=3):
        rows = inside[a] & inside[b] & inside[c]
        defect = np.abs(sign[a, b] * sign[b, c] - sign[a, c])[rows]
        cocycle_defect = max(cocycle_defect, defect.max(initial=0.0))
    z = (0.3 - 0.7j) * ChiVariant.ODD_LINEAR.field.vector(cq)
    fiber = {}
    for a in CHART_INDICES:
        fiber[a] = np.zeros(len(cq), dtype=complex)
        fiber[a][inside[a]] = lb.local_trivialization(a, cq[inside[a]], z[inside[a]])
    for a, b in itertools.product(CHART_INDICES, repeat=2):
        defect = _cabs(fiber[b] - sign[a, b] * fiber[a])[inside[a] & inside[b]]
        cocycle_defect = max(cocycle_defect, defect.max(initial=0.0))
    first = np.argmax([inside[a] for a in CHART_INDICES], axis=0) + 1
    for a in CHART_INDICES:
        rows = first == a
        scaled = lb.local_trivialization(a, cq[rows], 1j * z[rows])
        cocycle_defect = max(cocycle_defect, _cabs(scaled - 1j * fiber[a][rows]).max(initial=0.0))
    record("charts.cocycle", "g_ab g_bc = g_ac on triple overlaps", cocycle_defect, 0.0)

    # -- projector fields ------------------------------------------------------
    proj_defect = 0.0
    trace_defect = 0.0
    even_defect = 0.0
    for variant in (ChiVariant.ODD_LINEAR, ChiVariant.ODD_HARMONIC):
        p = variant.field.evaluate(xs)
        proj_defect = max(proj_defect, lb.hermiticity_defect(p), lb.idempotency_defect(p))
        trace_defect = max(trace_defect, lb.trace_defect(p))
        p_neg = variant.field.evaluate(-xs)
        even_defect = max(even_defect, float(np.abs(p_neg - p).max()))
    record("bundle.projector-algebra", "P† = P and P^2 = P", proj_defect, tol_a)
    record("bundle.projector-trace", "tr P = 1 (rank one)", trace_defect, tol_f)
    record("bundle.projector-even", "P(-x) = P(x)", even_defect, 1e-14)

    g = GroupElement(-1)
    worst = 0.0
    x, lam = xs[:64], np.linspace(-2, 2, 64)
    for action in (lb.tau_plus(), lb.tau_minus(), lb.tau_tilde(), lb.tau_prime()):
        if action.label in (lb.ActionLabel.TAU_TILDE, lb.ActionLabel.TAU_PRIME):
            vec = (lam + 0.5j)[:, None] * action.chi_variant.field.vector(x)
        else:
            vec = np.column_stack([lam, np.full(len(x), 0.2j), np.ones(len(x))])
        y1, w1 = lb.group_act(action, g, x, vec)
        y2, w2 = lb.group_act(action, g, y1, w1)
        worst = max(
            worst,
            float(np.linalg.norm(y1 + x, axis=1).max()),
            float(np.linalg.norm(y2 - x, axis=1).max()),
            float(np.abs(w2 - vec).max()),
        )
    record("bundle.action-involution", "tau_g tau_g = id for g^2 = e", worst, 1e-14)

    lam = (rng.standard_normal(1000) + 1j * rng.standard_normal(1000))[: len(xs)]
    x = xs[: len(lam)]
    z = lam[:, None] * ChiVariant.ODD_LINEAR.field.vector(x)
    _, moved = lb.group_act(lb.tau_tilde(), g, x, z)
    coeff = ChiVariant.ODD_LINEAR.field.fiber_coordinate(-x, moved)
    record(
        "bundle.tilde-equals-minus",
        "the pull-back action reads as the sign flip in the odd gauge coordinate",
        _cabs(coeff - (-lam)).max(),
        tol_a,
    )

    # -- section algebra -------------------------------------------------------
    # Each random-polynomial check runs on one family: the coefficients of
    # every member come from one draw, in the order of one-by-one draws, and
    # the sup over the family is the max over its members.
    (a,) = random_polynomial_families(rng, 100, 1, 5, "odd")
    a_back = sa.odd_from_section(section_from_odd(a))
    worst = float(np.abs((a - a_back)(xs)).max())
    record("sections.roundtrip-odd", "a -> f_a = x_a a -> sum_a x_a f_a = a", worst, tol_a)

    f = sa.project_to_section(*random_polynomial_families(rng, 20, 3, 4, "even"))
    f_back = section_from_odd(sa.odd_from_section(f))
    coeffs = np.stack(sa.evaluate_fields(f.fields + f_back.fields, xs), axis=-1)  # f, then f_back
    diff = np.abs(coeffs[..., 3:] - coeffs[..., :3]).max()
    record("sections.roundtrip-coefficients", "f -> a -> f on projector-fixed triples", diff, tol_a)
    proj = sa.projector_defect(xs, coeffs[..., :3])
    record("sections.projector-fixed", "p f = f for section coefficients", proj, tol_f)
    del coeffs  # 20 members x samples x 6; not kept through the checks below

    a_mixed = random_polynomial(rng, 5, None)
    a_even, a_odd = parity_decompose(a_mixed)
    ee, eo = parity_decompose(a_even)
    oe, oo = parity_decompose(a_odd)
    even_xs, odd_xs = a_even(xs), a_odd(xs)
    worst = max(
        float(np.abs(even_xs + odd_xs - a_mixed(xs)).max()),
        float(np.abs(ee(xs) - even_xs).max()),
        float(np.abs(oo(xs) - odd_xs).max()),
        float(np.abs(eo(xs)).max()),
        float(np.abs(oe(xs)).max()),
        # the parts have their parities, so a swapped split fails here
        float(np.abs(a_even(-xs) - even_xs).max()),
        float(np.abs(a_odd(-xs) + odd_xs).max()),
    )
    record(
        "sections.parity-idempotent",
        "parity projections are idempotent, complementary, and reconstruct",
        worst,
        tol_a,
    )

    clean_odd = random_polynomial(rng, 5, "odd")
    faulted_odd = clean_odd + 0.01 * random_polynomial(rng, 4, "even")
    invariance_coeff = faulted_odd if fault == "parity-coefficient" else clean_odd
    worst = 0.0
    for variant in (ChiVariant.ODD_LINEAR, ChiVariant.ODD_HARMONIC):
        sigma = PullbackSection(invariance_coeff, variant)
        worst = max(worst, invariance_residual(sigma, lb.tau_tilde(variant), xs))
    record(
        "sections.invariance",
        "ghat sigma = sigma for sections pulled back from downstairs",
        worst,
        tol_f,
    )

    contaminated = clean_odd + 0.01 * random_polynomial(rng, 4, "even")
    sigma_bad = PullbackSection(contaminated, ChiVariant.ODD_LINEAR)
    measured = invariance_residual(sigma_bad, lb.tau_tilde(), xs)
    record(
        "sections.invariance-detects",
        "an even contamination of the coefficient breaks invariance",
        shortfall(measured, DETECTION_LEVEL),
        0.0,
    )

    sigma_odd = PullbackSection(clean_odd, ChiVariant.ODD_LINEAR)
    same, _ = singlevaluedness_residuals(sigma_odd, xs)
    record("sections.singlevalued-odd-gauge", "v(-x) = v(x) in an odd gauge", same, tol_f)
    sigma_even = PullbackSection(clean_odd, ChiVariant.EVEN_CONSTANT)
    _, opposite = singlevaluedness_residuals(sigma_even, xs)
    record(
        "sections.antisinglevalued-even-gauge",
        "v(-x) = -v(x) in the constant even gauge",
        opposite,
        tol_f,
    )

    # -- transport and holonomy ------------------------------------------------
    e1 = SpherePoint(1.0, 0.0, 0.0)
    e2 = SpherePoint(0.0, 1.0, 0.0)
    e3 = SpherePoint(0.0, 0.0, 1.0)
    p_lin = lb.grassmann_field(ChiVariant.ODD_LINEAR)
    p_harm = lb.grassmann_field(ChiVariant.ODD_HARMONIC)
    steps = config.ode_steps

    arcs = [
        tp.antipodal_arc(e1, e3),
        tp.antipodal_arc(e1, e2),
        tp.antipodal_arc(e2, e3),
    ]
    hols = [tp.holonomy(p_lin, c, steps) for c in arcs]
    record(
        "holonomy.antipodal-nontrivial",
        "holonomy -1 on antipodal loops, independent of the path",
        max(abs(h + 1.0) for h in hols),
        tol_h,
    )

    contractible = [
        tp.small_circle(e3, 0.3),
        tp.small_circle(e1, 0.7),
        tp.small_circle(SpherePoint.from_direction([1.0, 1.0, 1.0]), 1.1),
        tp.great_circle(e1, e3),
    ]
    record(
        "holonomy.contractible",
        "holonomy +1 on contractible loops: the connection is flat",
        tp.flatness_report(p_lin, contractible, steps),
        tol_h,
    )

    frame = np.array([0.6, 0.48j, 0.64], dtype=complex)
    frame /= np.linalg.norm(frame)
    trivial = lb.constant_projector_field(np.outer(frame, frame.conj()), "fixed-line")
    h_triv = tp.holonomy(trivial, arcs[0], steps)
    record("holonomy.trivial-bundle", "constant projector: h = +1 exactly", abs(h_triv - 1.0), 0.0)

    hols_harm = [tp.holonomy(p_harm, c, steps) for c in arcs[:2]]
    record(
        "holonomy.gauge-agreement",
        "both odd gauges measure the same holonomy",
        max(abs(hh - hl) for hh, hl in zip(hols_harm, hols)),
        tol_h,
    )

    # Compose two different antipodal paths by transporting through both;
    # the loop downstairs traverses x0 -> -x0 -> x0 and must be trivial.
    # The first leg v0 -> v1 is also the transport the transport.* checks use.
    v0 = lb.chi(ChiVariant.ODD_LINEAR, e1)
    v1 = tp.parallel_transport(p_lin, arcs[0], v0, steps)
    ua = p_lin.evaluate(-e1.vec) @ v1  # drop the integration drift off the fiber
    ub = tp.parallel_transport(p_lin, tp.antipodal_arc(-e1.vec, e2), ua, steps)
    h_double = complex(np.vdot(v0, ub) / np.vdot(v0, v0))
    record(
        "holonomy.squared-antipodal",
        "the square of an antipodal loop is contractible: h = +1",
        abs(h_double - 1.0),
        tol_h,
    )

    h_rev = tp.holonomy(p_lin, tp.reverse(arcs[0]), steps)
    record(
        "holonomy.reversal",
        "reversing the loop conjugates the holonomy",
        abs(h_rev - np.conj(hols[0])),
        tol_h,
    )

    err_coarse = abs(tp.holonomy(p_lin, arcs[0], 64) + 1.0)
    err_fine = abs(tp.holonomy(p_lin, arcs[0], 128) + 1.0)
    ratio = err_coarse / max(err_fine, 1e-300)
    record(
        "holonomy.order4-convergence",
        "doubling the step count cuts the holonomy error by >= 8 (4th order)",
        shortfall(ratio, 8.0),
        0.0,
    )

    record(
        "transport.norm-preservation",
        "the transport generator is anti-Hermitian: |v| is constant",
        abs(np.linalg.norm(v1) - np.linalg.norm(v0)),
        1e-8,
    )
    p_end = p_lin.evaluate(arcs[0](1.0))
    record(
        "transport.fiber-retention",
        "transport stays in the moving fiber line",
        float(np.linalg.norm(v1 - p_end @ v1)),
        1e-8,
    )
    v1_scaled = tp.parallel_transport(p_lin, arcs[0], (2.0 - 1.0j) * v0, steps)
    record(
        "transport.linearity",
        "transport of lam v0 equals lam times the transport of v0",
        float(np.linalg.norm(v1_scaled - (2.0 - 1.0j) * v1)),
        1e-10,
    )

    # -- exchange machinery ------------------------------------------------------
    theta, phi = angles_of(xs)
    u_blocks = (block_fn or br.exchange_block)(theta, phi)
    eye = np.eye(3)
    record(
        "exchange.unitarity",
        "U(r)† U(r) = 1 on every triplet",
        float(np.abs(np.einsum("...ji,...jk->...ik", u_blocks.conj(), u_blocks) - eye).max()),
        tol_a,
    )
    record(
        "exchange.determinant",
        "det U(r) = 1",
        float(np.abs(np.linalg.det(br.exchange_block(theta, phi)) - 1.0).max()),
        tol_a,
    )
    record(
        "exchange.identity-at-zero",
        "U(theta = 0) is exactly the identity",
        float(np.abs(br.exchange_block(0.0, 1.234) - eye).max()),
        0.0,
    )

    u10 = br.exchange_full_angles(theta[:256], phi[:256])
    s_vec = br.singlet_vector()
    record(
        "exchange.singlet-fixed",
        "U(r)|00> = |00>",
        float(np.linalg.norm(u10 @ s_vec - s_vec, axis=-1).max()),
        tol_a,
    )
    b_plus = br.block_matrix(1).real
    embedded = np.einsum("ia,...ij,jb->...ab", b_plus, u10, b_plus)
    record(
        "exchange.block-embedding",
        "the 10x10 rotation restricts to the 3x3 block on each triplet",
        float(np.abs(embedded - br.exchange_block(theta[:256], phi[:256])).max()),
        tol_a,
    )

    record(
        "exchange.rule",
        "|swap(M)(-r)> = -|M(r)> for spin one-half",
        br.exchange_rule_residual(xs[:1000], "product", block_fn),
        tol_f,
    )
    record(
        "exchange.rule-total-basis",
        "at the antipode the triplet flips sign while the singlet is fixed",
        br.exchange_rule_residual(xs[:1000], "total"),
        tol_f,
    )

    # A conjugated frame is orthonormal and obeys the exchange rule too, so
    # the frames must also be the columns U(r)|M> themselves.
    frames = br.moved_product_frames(theta[:256], phi[:256])
    gram = np.einsum("...ia,...ib->...ab", frames.conj(), frames)
    direct = u10 @ np.column_stack([br.product_vector(lbl) for lbl in br.PRODUCT_LABELS])
    record(
        "exchange.moved-orthonormal",
        "the moved basis has identity Gram matrix",
        max(float(np.abs(gram - np.eye(4)).max()), float(np.abs(frames - direct).max())),
        tol_a,
    )

    xs_sign = xs[:256]
    sign_defects = [
        br.transported_basis(1, m, -xs_sign) + br.transported_basis(1, m, xs_sign)
        for m in br.TRIPLET_MS
    ]
    sign_defects.append(br.transported_basis(0, 0, -xs_sign) - br.transported_basis(0, 0, xs_sign))
    worst = max(float(np.linalg.norm(d, axis=-1).max()) for d in sign_defects)
    record(
        "exchange.antipodal-sign",
        "|1m(-r)> = -|1m(r)> while |00(r)> is constant",
        worst,
        tol_a,
    )

    great = tp.great_circle(e1, e3)
    # A constant-speed circle makes the central difference cancel to all
    # orders; the nonuniform reparametrization keeps the O(h^2) term alive.
    warped = tp.reparametrize(
        great,
        lambda t: t + 0.1 * np.sin(2.0 * np.pi * t),
        lambda t: 1.0 + 0.2 * np.pi * np.cos(2.0 * np.pi * t),
    )
    record(
        "br.parallel-residual",
        "<M'(r(t))| d/dt |M(r(t))> = 0: the moved basis is parallel",
        max(
            br.br_parallel_residual(great, config.fd_step, block_fn),
            br.br_parallel_residual(warped, config.fd_step, block_fn),
        ),
        1e-8,
    )
    r_coarse = br.br_parallel_residual(warped, 1e-4)
    r_fine = br.br_parallel_residual(warped, 5e-5)
    record(
        "br.parallel-order2",
        "the central-difference residual decays at second order in h",
        shortfall(r_coarse / max(r_fine, 1e-300), 3.0),
        0.0,
    )

    moved_field = br.exchange_line_field(1)
    w0 = br.transported_basis(1, 1, great.point(0.0))
    half = tp.restrict(great, 0.0, 0.5)
    w_half = tp.parallel_transport(moved_field, half, w0, max(steps // 2, tp.MIN_STEPS))
    expected = br.transported_basis(1, 1, great.point(0.5))
    record(
        "br.transport-crosscheck",
        "projector transport reproduces the moved basis along the curve",
        float(np.linalg.norm(w_half - expected)),
        1e-6,
    )

    xs_pm = xs[:512]
    pm = br.projector_Pm(xs_pm)
    tv = br.transported_component_vector(*angles_of(xs_pm))
    record(
        "br.pm-construction",
        "U P0 U† = |1m(r)><1m(r)|",
        np.abs(pm - tv[..., :, None] * tv.conj()[..., None, :]).max(),
        tol_a,
    )
    record("br.pm-even", "P_m(-r) = P_m(r)", np.abs(br.projector_Pm(-xs_pm) - pm).max(), tol_a)
    record(
        "br.pm-matches-gauge-projector",
        "the moved-line projector equals the odd harmonic gauge projector",
        np.abs(pm - ChiVariant.ODD_HARMONIC.field.evaluate(xs_pm)).max(),
        tol_a,
    )

    # The three moved lines must be distinct as well as nontrivial: their
    # frames are mutually orthogonal (disjoint slots, so exactly 0).
    moved_fields = [br.exchange_line_field(m) for m in br.TRIPLET_MS]
    hol_moved = [tp.holonomy(f, arcs[0], steps) for f in moved_fields]
    hol_singlet = tp.holonomy(br.singlet_field(), arcs[0], steps)
    frames = [f.vector(xs[:256]) for f in moved_fields]
    overlap = max(np.abs(np.sum(u.conj() * v, axis=-1)).max() for u, v in itertools.combinations(frames, 2))
    record(
        "br.holonomy-decomposition",
        "the two-spin bundle splits as three nontrivial lines plus a trivial one",
        max(max(abs(h + 1.0) for h in hol_moved), abs(hol_singlet - 1.0), overlap),
        tol_h,
    )

    # -- the relation between the coefficients and single-valuedness -------------
    raw = dict(zip(br.PRODUCT_LABELS, random_polynomial_families(rng, 25, 4, 3, None)))
    psi = br.TwoSpinWaveFunction(br.antisymmetrize(raw), "product")
    rep = br.spin_statistics_check(psi, xs[:512])
    record(
        "spin.relation-consistency",
        "psi_swap(M)(-r) = -psi_M(r) and |Psi(-r)> = |Psi(r)> hold together",
        max(rep.singlevalued_residual.max(), rep.coefficient_relation_residual.max()),
        tol_f,
    )

    raw = dict(zip(br.PRODUCT_LABELS, random_polynomial_families(rng, 25, 4, 3, None)))
    rep = br.spin_statistics_check(br.TwoSpinWaveFunction(raw, "product"), xs[:512])
    weakest = min(rep.singlevalued_residual.min(), rep.coefficient_relation_residual.min())
    record(
        "spin.relation-detects-violation",
        "generic coefficients violate both identities at once",
        shortfall(weakest, DETECTION_LEVEL),
        0.0,
    )

    # -- the five-step experiment -------------------------------------------------
    experiment_coeff = (
        faulted_odd if fault == "parity-coefficient" else sa.coordinate_field(3)
    )
    odd_run = five_step_from_coefficient(experiment_coeff, ChiVariant.ODD_LINEAR, points=xs, tol=tol_f)
    even_run = five_step_from_coefficient(
        experiment_coeff, ChiVariant.EVEN_CONSTANT, points=xs, tol=tol_f
    )

    odd_ok = bool(odd_run.invariant and odd_run.singlevalued and not odd_run.anti_singlevalued)
    record(
        "experiment.odd-gauge",
        "odd gauge: invariant and single-valued, not anti-single-valued",
        0.0 if odd_ok else 1.0,
        0.0,
    )
    even_ok = bool(even_run.invariant and even_run.anti_singlevalued and not even_run.singlevalued)
    record(
        "experiment.even-gauge",
        "even gauge: invariant and anti-single-valued, not single-valued",
        0.0 if even_ok else 1.0,
        0.0,
    )
    paired = (
        odd_run.invariant == even_run.invariant
        and odd_run.singlevalued == even_run.anti_singlevalued
        and odd_run.anti_singlevalued == even_run.singlevalued
    )
    record(
        "experiment.verdict-pairing",
        "invariance agrees across gauges; the valuedness flags swap",
        0.0 if paired else 1.0,
        0.0,
    )
    record(
        "experiment.step4-intertwine",
        "the gauge transfer intertwines the two actions",
        max(odd_run.step4["intertwine_residual"], even_run.step4["intertwine_residual"]),
        tol_f,
    )

    bad = five_step_from_coefficient(contaminated, ChiVariant.EVEN_CONSTANT, points=xs, tol=tol_f)
    measured = min(
        bad.step3["invariance_residual"],
        bad.step5["invariance_residual"],
    )
    record(
        "experiment.invariance-needs-odd",
        "with an even contamination invariance fails in every gauge",
        shortfall(measured, DETECTION_LEVEL),
        0.0,
    )

    wall_ms = (time.perf_counter() - t0) * 1000.0
    return VerificationReport(
        suite="spinbundles-verify",
        seed=int(config.seed),
        config=config.to_dict(),
        checks=checks,
        all_pass=all(c.passed for c in checks),
        wall_ms=wall_ms,
    )
