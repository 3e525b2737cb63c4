"""Acceptance criteria: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import numpy as np

from spinbundles.config_space import SpherePoint, angles_of, project, sample_sphere
from spinbundles.line_bundle import (
    ChiVariant,
    hermiticity_defect,
    idempotency_defect,
    projector_minus,
    projector_values,
    trace_defect,
    transition,
)
from spinbundles.section_algebra import (
    odd_from_section,
    random_polynomial,
    section_from_odd,
)
from spinbundles.transport import (
    antipodal_arc,
    constant_projector_field,
    grassmann_field,
    great_circle,
    holonomy,
    parallel_transport,
    reparametrize,
    restrict,
    small_circle,
)
from spinbundles import berry_robbins as br
from spinbundles.experiments import (
    SuiteConfig,
    checks_hit_by_fault,
    five_step_from_coefficient,
    run_suite,
)
from spinbundles.section_algebra import coordinate_field, polynomial_field

E1 = SpherePoint(1.0, 0.0, 0.0)
E2 = SpherePoint(0.0, 1.0, 0.0)
E3 = SpherePoint(0.0, 0.0, 1.0)

POINTS_10K = sample_sphere(10_000, np.random.default_rng(2027))
POINTS_2K = sample_sphere(2048, np.random.default_rng(2028))
POINTS_1K = sample_sphere(1000, np.random.default_rng(2029))


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_projector_algebra():
    worst_alg = 0.0
    worst_tr = 0.0
    for variant in (ChiVariant.ODD_LINEAR, ChiVariant.ODD_HARMONIC):
        p = projector_values(variant, POINTS_10K)
        worst_alg = max(worst_alg, hermiticity_defect(p), idempotency_defect(p))
        worst_tr = max(worst_tr, trace_defect(p))
    theta, phi = angles_of(POINTS_10K)
    u = br.exchange_block(theta, phi)
    pm = np.einsum("...ij,jk,...lk->...il", u, br.projector_P0(), u.conj())
    worst_alg = max(worst_alg, hermiticity_defect(pm), idempotency_defect(pm))
    worst_tr = max(worst_tr, trace_defect(pm))
    p0 = br.projector_P0()
    worst_alg = max(worst_alg, hermiticity_defect(p0), idempotency_defect(p0))
    worst_tr = max(worst_tr, trace_defect(p0))
    ok = worst_alg <= 1e-12 and worst_tr <= 1e-10
    _verdict(
        1, ok, f"projector algebra defect {worst_alg:.2e} <= 1e-12, trace {worst_tr:.2e} <= 1e-10"
    )


def test_criterion_02_cocycle_and_partition():
    cocycle_exact = True
    for v in POINTS_10K:
        if np.abs(v).min() <= 1e-12:
            continue
        q = project(SpherePoint.from_vec(v))
        for a, b, c in ((1, 2, 3), (3, 1, 2), (2, 3, 1)):
            if transition(a, b, q) * transition(b, c, q) != transition(a, c, q):
                cocycle_exact = False
    partition = float(np.abs((POINTS_10K**2).sum(axis=1) - 1.0).max())
    ok = cocycle_exact and partition <= 1e-12
    _verdict(2, ok, f"cocycle exact {cocycle_exact}, partition defect {partition:.2e} <= 1e-12")


def test_criterion_03_bijection_chain():
    rng = np.random.default_rng(33)
    worst_rt = 0.0
    worst_fix = 0.0
    for _ in range(100):
        a = random_polynomial(rng, 5, "odd")
        f = section_from_odd(a)
        back = odd_from_section(f)
        worst_rt = max(worst_rt, float(np.abs(a(POINTS_2K) - back(POINTS_2K)).max()))
        worst_fix = max(worst_fix, f.projector_residual(POINTS_2K))
    ok = worst_rt <= 1e-12 and worst_fix <= 1e-10
    _verdict(
        3, ok, f"round-trip defect {worst_rt:.2e} <= 1e-12, projector-fixed {worst_fix:.2e} <= 1e-10"
    )


def test_criterion_04_holonomy():
    field = grassmann_field(ChiVariant.ODD_LINEAR)
    antipodal = [antipodal_arc(E1, E3), antipodal_arc(E1, E2), antipodal_arc(E2, E3)]
    worst_anti = max(abs(holonomy(field, c, 4096) + 1.0) for c in antipodal)
    contractible = [small_circle(E3, 0.3), small_circle(E1, 0.8), great_circle(E1, E3)]
    worst_con = max(abs(holonomy(field, c, 4096) - 1.0) for c in contractible)
    err_coarse = abs(holonomy(field, antipodal[0], 64) + 1.0)
    err_fine = abs(holonomy(field, antipodal[0], 128) + 1.0)
    ratio = err_coarse / err_fine
    line = np.zeros((3, 3), dtype=complex)
    line[1, 1] = 1.0
    h_triv = holonomy(constant_projector_field(line), antipodal[0], 64)
    ok = worst_anti <= 1e-6 and worst_con <= 1e-6 and ratio >= 8.0 and h_triv == 1.0
    _verdict(
        4,
        ok,
        f"antipodal |h+1| {worst_anti:.2e}, contractible |h-1| {worst_con:.2e}, "
        f"step-doubling ratio {ratio:.1f} >= 8, trivial h = {h_triv}",
    )


def test_criterion_05_exchange_machinery():
    theta, phi = angles_of(POINTS_1K)
    u = br.exchange_block(theta, phi)
    unitarity = float(np.abs(np.einsum("...ji,...jk->...ik", u.conj(), u) - np.eye(3)).max())
    identity_exact = bool(np.array_equal(br.exchange_block(0.0, 0.33), np.eye(3, dtype=complex)))
    rule = br.exchange_rule_residual(POINTS_1K)
    u10 = br.exchange_full_angles(theta, phi)
    s = br.singlet_vector()
    singlet = float(np.linalg.norm(u10 @ s - s, axis=-1).max())
    ok = unitarity <= 1e-12 and identity_exact and rule <= 1e-10 and singlet <= 1e-12
    _verdict(
        5,
        ok,
        f"unitarity {unitarity:.2e} <= 1e-12, U(0)=I {identity_exact}, "
        f"rule {rule:.2e} <= 1e-10, singlet drift {singlet:.2e}",
    )


def test_criterion_06_parallel_condition():
    great = great_circle(E1, E3)
    warped = reparametrize(
        great,
        lambda t: t + 0.1 * np.sin(2 * np.pi * t),
        lambda t: 1.0 + 0.2 * np.pi * np.cos(2 * np.pi * t),
    )
    residual = max(
        br.br_parallel_residual(great, 1e-5), br.br_parallel_residual(warped, 1e-5)
    )
    decay = br.br_parallel_residual(warped, 1e-4) / br.br_parallel_residual(warped, 5e-5)
    field = br.exchange_line_field(1)
    half = restrict(great, 0.0, 0.5)
    w0 = br.transported_basis(1, 1, great.point(0.0))
    w1 = parallel_transport(field, half, w0, 2048)
    cross = float(np.linalg.norm(w1 - br.transported_basis(1, 1, great.point(0.5))))
    ok = residual <= 1e-8 and 3.0 <= decay <= 5.0 and cross <= 1e-6
    _verdict(
        6,
        ok,
        f"parallel residual {residual:.2e} <= 1e-8, h-halving ratio {decay:.2f} ~ 4, "
        f"transport cross-check {cross:.2e} <= 1e-6",
    )


def test_criterion_07_two_spin_decomposition():
    arc = antipodal_arc(E1, E3)
    hols = [holonomy(br.exchange_line_field(m), arc, 4096) for m in br.TRIPLET_MS]
    h_singlet = holonomy(br.singlet_field(), arc, 64)
    worst_minus = max(abs(h + 1.0) for h in hols)
    worst_match = 0.0
    for v in POINTS_1K:
        x = SpherePoint.from_vec(v)
        worst_match = max(
            worst_match,
            float(np.abs(br.projector_Pm(x) - projector_minus(x, ChiVariant.ODD_HARMONIC)).max()),
        )
    ok = worst_minus <= 1e-6 and abs(h_singlet - 1.0) <= 1e-6 and worst_match <= 1e-12
    _verdict(
        7,
        ok,
        f"moved-line holonomies |h+1| {worst_minus:.2e}, singlet |h-1| {abs(h_singlet-1):.2e}, "
        f"gauge-projector match {worst_match:.2e} <= 1e-12",
    )


def test_criterion_08_spin_statistics_relation():
    rng = np.random.default_rng(88)
    ok = True
    for i in range(50):
        raw = {lbl: random_polynomial(rng, 3) for lbl in br.PRODUCT_LABELS}
        comply = i % 2 == 0
        family = br.antisymmetrize(raw) if comply else raw
        rep = br.spin_statistics_check(
            br.TwoSpinWaveFunction(family, "product"), POINTS_1K[:512]
        )
        both_small = (
            rep.singlevalued_residual <= 1e-10 and rep.coefficient_relation_residual <= 1e-10
        )
        both_large = rep.singlevalued_residual > 1e-3 and rep.coefficient_relation_residual > 1e-3
        if not (both_small if comply else both_large):
            ok = False
    _verdict(8, ok, "single-valuedness and coefficient-relation residuals vanish together (50 families)")


def test_criterion_09_five_step_experiment():
    odd_run = five_step_from_coefficient(
        coordinate_field(3), ChiVariant.ODD_LINEAR, points=POINTS_2K
    )
    even_run = five_step_from_coefficient(
        coordinate_field(3), ChiVariant.EVEN_CONSTANT, points=POINTS_2K
    )
    contaminated = polynomial_field([(1.0, (0, 0, 1)), (0.02, (1, 1, 0))])
    bad_odd = five_step_from_coefficient(contaminated, ChiVariant.ODD_LINEAR, points=POINTS_2K)
    bad_even = five_step_from_coefficient(
        contaminated, ChiVariant.EVEN_CONSTANT, points=POINTS_2K
    )
    ok = (
        odd_run.invariant is True
        and odd_run.singlevalued is True
        and odd_run.anti_singlevalued is False
        and even_run.invariant is True
        and even_run.anti_singlevalued is True
        and even_run.singlevalued is False
        and bad_odd.invariant is False
        and bad_even.invariant is False
    )
    _verdict(
        9,
        ok,
        f"odd gauge {odd_run.flags()}, even gauge {even_run.flags()}; "
        "invariance holds exactly when the coefficient is odd",
    )


def test_criterion_10_fault_injection():
    config = dict(samples=256, ode_steps=256)
    clean = run_suite(SuiteConfig(**config))
    u_fault = run_suite(SuiteConfig(fault_inject="exchange.unitarity", **config))
    parity_fault = run_suite(SuiteConfig(fault_inject="sections.invariance", **config))
    u_failed = {c.check_id for c in u_fault.failed()}
    parity_failed = {c.check_id for c in parity_fault.failed()}
    ok = (
        clean.all_pass
        and u_failed == set(checks_hit_by_fault("exchange.unitarity"))
        and u_failed == {"exchange.unitarity", "exchange.rule", "br.parallel-residual"}
        and parity_failed == set(checks_hit_by_fault("sections.invariance"))
        and parity_failed == {"sections.invariance", "experiment.odd-gauge", "experiment.even-gauge"}
    )
    _verdict(
        10,
        ok,
        f"clean suite passes; U-entry fault fails exactly {sorted(u_failed)}; "
        f"parity fault fails exactly {sorted(parity_failed)}",
    )


def test_full_suite_green_at_default_scale():
    report = run_suite(SuiteConfig())
    failed = sorted(c.check_id for c in report.failed())
    print(f"ACCEPTANCE suite: {'PASS' if report.all_pass else 'FAIL'} "
          f"({len(report.checks)} checks, {report.wall_ms:.0f} ms)")
    assert report.all_pass, failed
