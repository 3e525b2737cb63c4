import dataclasses
import itertools
import json
import sys

import numpy as np
import pytest

from spinbundles.errors import ConfigError, ParityError
from spinbundles.line_bundle import ChiVariant
from spinbundles import berry_robbins as br
from spinbundles import config_space, kernels, line_bundle, section_algebra
from spinbundles.config_space import (
    ATLAS,
    CHART_INDICES,
    GroupElement,
    SpherePoint,
    antipode,
    chart_contains,
    chart_inverse,
    chart_map,
    partition_phi,
    project,
    sample_sphere,
)
from spinbundles.section_algebra import (
    coordinate_field,
    odd_from_section,
    polynomial_field,
    project_to_section,
    random_polynomial,
    section_from_odd,
)
from spinbundles.experiments import (
    DETECTION_LEVEL,
    FAULT_TARGETS,
    FiveStepReport,
    SuiteConfig,
    checks_hit_by_fault,
    five_step_from_coefficient,
    gauge_intertwine_residual,
    run_suite,
)

SMALL = dict(samples=256, ode_steps=256)


CHECK_IDS = [
    "base.antipode-free",
    "base.project-antipode",
    "charts.partition-unity",
    "charts.cover",
    "charts.transition-geometry",
    "charts.cocycle",
    "bundle.projector-algebra",
    "bundle.projector-trace",
    "bundle.projector-even",
    "bundle.action-involution",
    "bundle.tilde-equals-minus",
    "sections.roundtrip-odd",
    "sections.roundtrip-coefficients",
    "sections.projector-fixed",
    "sections.parity-idempotent",
    "sections.invariance",
    "sections.invariance-detects",
    "sections.singlevalued-odd-gauge",
    "sections.antisinglevalued-even-gauge",
    "holonomy.antipodal-nontrivial",
    "holonomy.contractible",
    "holonomy.trivial-bundle",
    "holonomy.gauge-agreement",
    "holonomy.squared-antipodal",
    "holonomy.reversal",
    "holonomy.order4-convergence",
    "transport.norm-preservation",
    "transport.fiber-retention",
    "transport.linearity",
    "exchange.unitarity",
    "exchange.determinant",
    "exchange.identity-at-zero",
    "exchange.singlet-fixed",
    "exchange.block-embedding",
    "exchange.rule",
    "exchange.rule-total-basis",
    "exchange.moved-orthonormal",
    "exchange.antipodal-sign",
    "br.parallel-residual",
    "br.parallel-order2",
    "br.transport-crosscheck",
    "br.pm-construction",
    "br.pm-even",
    "br.pm-matches-gauge-projector",
    "br.holonomy-decomposition",
    "spin.relation-consistency",
    "spin.relation-detects-violation",
    "experiment.odd-gauge",
    "experiment.even-gauge",
    "experiment.verdict-pairing",
    "experiment.step4-intertwine",
    "experiment.invariance-needs-odd",
]


@pytest.fixture
def small_report(cached_suite):
    return cached_suite(**SMALL)


def test_config_validation():
    SuiteConfig().validate()
    with pytest.raises(ConfigError):
        SuiteConfig(samples=8).validate()
    with pytest.raises(ConfigError):
        SuiteConfig(ode_steps=4).validate()
    with pytest.raises(ConfigError):
        SuiteConfig(tol_holonomy=-1.0).validate()
    with pytest.raises(ConfigError):
        SuiteConfig(output="xml").validate()
    with pytest.raises(ConfigError):
        SuiteConfig(fault_inject="not-a-check").validate()


@pytest.mark.parametrize(
    "name, value",
    [
        ("seed", 1.5),
        ("seed", True),
        ("seed", np.float64(2.0)),
        ("samples", 100.5),
        ("samples", 256.0),
        ("samples", np.True_),
        ("ode_steps", 256.5),
        ("ode_steps", np.float32(256.0)),
        ("ode_steps", True),
        # a bool tolerance would run as 1.0
        ("tol_holonomy", True),
        ("tol_algebraic", True),
        ("tol_functional", np.True_),
    ],
)
def test_non_integer_counts_are_refused(name, value):
    config = SuiteConfig(**{**SMALL, name: value})
    message = f"{name} must be a number" if name.startswith("tol_") else f"{name} must be an integer"
    with pytest.raises(ConfigError, match=message):
        config.validate()
    with pytest.raises(ConfigError, match=message):
        run_suite(config)


def test_numpy_integer_counts_run(small_report):
    report = run_suite(SuiteConfig(seed=np.int64(0), samples=np.int64(256), ode_steps=np.uint16(256)))
    assert report.checks == small_report.checks


def test_config_dict_follows_the_dataclass():
    config = SuiteConfig(seed=np.int64(3), samples=np.int64(512), fd_step=np.float64(2e-5))
    d = config.to_dict()
    assert list(d) == [f.name for f in dataclasses.fields(SuiteConfig)]
    assert [type(d[k]) for k in ("seed", "samples", "ode_steps", "fd_step", "tol_holonomy")] == [
        int, int, int, float, float
    ]
    assert (d["output"], d["fault_inject"]) == ("text", None)
    assert json.loads(json.dumps(d)) == d


def test_five_step_odd_gauge_run(points):
    report = five_step_from_coefficient(coordinate_field(3), ChiVariant.ODD_LINEAR, points)
    assert report.invariant is True
    assert report.singlevalued is True
    assert report.anti_singlevalued is False
    assert not report.vacuous
    assert report.step4["intertwine_residual"] < 1e-10
    assert report.step3 == report.step5


def test_five_step_even_gauge_run(points):
    report = five_step_from_coefficient(coordinate_field(3), ChiVariant.EVEN_CONSTANT, points)
    assert report.invariant is True
    assert report.singlevalued is False
    assert report.anti_singlevalued is True
    # step 3 is evaluated in the odd source gauge, where it IS single-valued
    assert report.step3["same_value_residual"] < 1e-10
    assert report.step5["opposite_value_residual"] < 1e-10


def test_five_step_flag_pairing(points):
    a = coordinate_field(1)
    odd = five_step_from_coefficient(a, ChiVariant.ODD_HARMONIC, points)
    even = five_step_from_coefficient(a, ChiVariant.EVEN_CONSTANT, points)
    assert odd.invariant == even.invariant
    assert odd.singlevalued == even.anti_singlevalued
    assert odd.anti_singlevalued == even.singlevalued


def test_five_step_zero_section_vacuous(points):
    report = five_step_from_coefficient(polynomial_field([]), ChiVariant.ODD_LINEAR, points)
    assert report.vacuous
    assert report.invariant is None and report.singlevalued is None


def test_five_step_from_even_contaminated_coefficient(points):
    bad = polynomial_field([(1.0, (0, 0, 1)), (0.05, (1, 1, 0))])
    report = five_step_from_coefficient(bad, ChiVariant.ODD_LINEAR, points=points)
    assert report.invariant is False
    assert "note" in report.step1
    assert report.step3["invariance_residual"] > 1e-3
    assert report.step5["invariance_residual"] > 1e-3


def test_five_step_report_serializable(points):
    report = five_step_from_coefficient(coordinate_field(3), ChiVariant.ODD_LINEAR, points)
    payload = json.dumps(report.to_dict())
    assert "verdict" in json.loads(payload)


@pytest.mark.parametrize("eps, is_section", [(0.25e-10, True), (1e-10, False)])
def test_sampled_parity_edge_agrees(points, eps, is_section):
    # x3 + eps has an odd defect 2 eps against the scale 1 + eps, so the
    # two offsets sit on either side of the FUNCTIONAL_TOL edge; the section
    # constructor and the five-step experiment apply the same test.
    a = polynomial_field([(1.0, (0, 0, 1)), (eps, (0, 0, 0))])
    assert a.parity is None
    report = five_step_from_coefficient(a, ChiVariant.ODD_LINEAR, points=points[:64])
    assert ("note" not in report.step1) is is_section
    if is_section:
        section_from_odd(a)
    else:
        with pytest.raises(ParityError):
            section_from_odd(a)


def test_gauge_intertwine_residual_all_pairs(points):
    lams = points[:, 0] + 1j * points[:, 1] + 0.2
    for src in (ChiVariant.ODD_LINEAR, ChiVariant.ODD_HARMONIC):
        for dst in ChiVariant:
            assert gauge_intertwine_residual(src, dst, points, lams) < 1e-10


def test_suite_all_pass(small_report):
    assert small_report.all_pass
    assert len(small_report.checks) >= 40
    ids = [c.check_id for c in small_report.checks]
    assert len(ids) == len(set(ids))


def test_suite_check_ids_in_report_order(small_report):
    assert [c.check_id for c in small_report.checks] == CHECK_IDS


def test_suite_deterministic():
    a = run_suite(SuiteConfig(**SMALL))
    b = run_suite(SuiteConfig(**SMALL))
    da, db = a.to_dict(), b.to_dict()
    da.pop("wall_ms")
    db.pop("wall_ms")
    assert da == db


def test_suite_seed_changes_samples_not_verdicts():
    a = run_suite(SuiteConfig(seed=1, **SMALL))
    b = run_suite(SuiteConfig(seed=2, **SMALL))
    assert a.all_pass and b.all_pass


def test_report_round_trip(small_report):
    text = small_report.to_json()
    assert json.loads(text) == small_report.to_dict()
    assert text.endswith("\n")


def test_fault_targets_cover_both_kinds():
    kinds = set(FAULT_TARGETS.values())
    assert kinds == {"exchange-block", "parity-coefficient"}


@pytest.mark.parametrize("target", sorted(FAULT_TARGETS))
def test_fault_injection_fails_exactly_its_family(cached_suite, target):
    report = cached_suite(fault_inject=target, **SMALL)
    failed = {c.check_id for c in report.failed()}
    assert failed == set(checks_hit_by_fault(target))
    assert not report.all_pass


def _sign_flipped_singlet(singlet):
    def mutant():
        v = singlet()
        v[3] = -v[3]
        return v

    return mutant


# Each mutant of a library function, the checks of the 256/256 suite that it
# fails, and why they are the ones that see it:
#   antipode: tau_g tau_g = id holds for any involution, so only the checks
#     that the flip moves x to -x catch an action that fixes the base point;
#   transition = +1: a constant +1 is a cocycle too (the trivial bundle's), so
#     only tying the transitions to the local trivializations tells it from
#     sign(x_a x_b);
#   parity_decompose: idempotence, complementarity and reconstruction are
#     symmetric in the two parts, so only the parity of each part tells
#     (even, odd) from (odd, even);
#   local_trivialization conjugated: the transitions are real, so
#     v_b = g_ab v_a holds for the conjugates too; only the complex linearity
#     v_a(i z) = i v_a(z) in charts.cocycle tells them apart;
#   exchange_line_field ignoring m: every moved line has holonomy -1, so only
#     the orthogonality of the three frames in br.holonomy-decomposition shows
#     that they are three lines.
#   moved_product_frames conjugated: a conjugated frame is orthonormal and
#     obeys the exchange rule too, so only comparing the frames with U(r)|M>
#     in exchange.moved-orthonormal tells them apart;
#   singlet_vector sign-flipped: product_vector reads singlet_vector at call
#     time while the frames' lift was built at import, so the two disagree in
#     exchange.moved-orthonormal as well;
#   project as the identity: every chart query is even in x, so only the
#     representatives compared in base.project-antipode see it;
#   sample_sphere folded into one octant: the samples still lie on the
#     sphere, so only the signs that charts.cover counts on them show it.
# One mutant is equivalent and has no row: holonomy dropping the imaginary
# part of h. Every loop the suite transports has a real holonomy, +1 or -1 to
# rounding, so no check can tell the two apart.
MUTANTS = {
    "partition_phi-halved": (
        config_space, "partition_phi", lambda f: lambda a, q: 0.5 * f(a, q),
        {"charts.cover", "charts.partition-unity"},
    ),
    "antipode-identity": (
        config_space, "antipode", lambda f: lambda p: p,
        {"base.antipode-free", "bundle.action-involution"},
    ),
    "project-identity": (
        config_space, "project", lambda f: lambda p: p, {"base.project-antipode"},
    ),
    "sample_sphere-one-octant": (
        config_space, "sample_sphere", lambda f: lambda n, rng: np.abs(f(n, rng)), {"charts.cover"},
    ),
    "chart_contains-true": (
        config_space, "chart_contains", lambda f: lambda a, q: True, {"charts.cocycle"},
    ),
    "chart_map-swapped": (
        config_space, "chart_map", lambda f: lambda a, q: f(a, q)[::-1],
        {"charts.transition-geometry"},
    ),
    "chart_inverse-negated-u": (
        config_space, "chart_inverse", lambda f: lambda a, uv: f(a, (-uv[0], uv[1])),
        {"charts.transition-geometry"},
    ),
    "transition-sign-flipped": (
        line_bundle, "transition", lambda f: lambda a, b, q: -f(a, b, q), {"charts.cocycle"},
    ),
    "transition-constant": (
        line_bundle, "transition", lambda f: lambda a, b, q: 1, {"charts.cocycle"},
    ),
    "local_trivialization-conjugated": (
        line_bundle, "local_trivialization", lambda f: lambda a, q, z: f(a, q, z).conjugate(),
        {"charts.cocycle"},
    ),
    "group_act-ignores-g": (
        line_bundle, "group_act", lambda f: lambda act, g, x, v: f(act, config_space.GroupElement(1), x, v),
        {"bundle.action-involution"},
    ),
    "parity_decompose-swapped": (
        section_algebra, "parity_decompose", lambda f: lambda a: f(a)[::-1],
        {"sections.parity-idempotent"},
    ),
    "antisymmetrize-skipped": (
        br, "antisymmetrize", lambda f: lambda family: family, {"spin.relation-consistency"},
    ),
    "exchange_line_field-ignores-m": (
        br, "exchange_line_field", lambda f: lambda m: f(1), {"br.holonomy-decomposition"},
    ),
    "singlet_vector-sign": (
        br, "singlet_vector", _sign_flipped_singlet,
        {"exchange.moved-orthonormal", "exchange.rule-total-basis", "exchange.singlet-fixed"},
    ),
    "moved_product_frames-conjugated": (
        br, "moved_product_frames",
        lambda f: lambda theta, phi, block_fn=None: f(theta, phi, block_fn).conj(),
        {"exchange.moved-orthonormal"},
    ),
    "invariance_residual-zero": (
        section_algebra, "invariance_residual", lambda f: lambda sigma, action, points: 0.0,
        {"experiment.invariance-needs-odd", "sections.invariance-detects"},
    ),
    "rk4-increments-scaled": (
        kernels, "_step_increments", lambda f: lambda u, w, h, rows: 1.2 * f(u, w, h, rows),
        {
            "br.holonomy-decomposition",
            "br.transport-crosscheck",
            "holonomy.antipodal-nontrivial",
            "holonomy.contractible",
            "holonomy.order4-convergence",
            "holonomy.squared-antipodal",
            "transport.fiber-retention",
            "transport.norm-preservation",
        },
    ),
    "rk4-scan-drops-last-block": (
        kernels, "_blocked_scan", lambda f: lambda q, v0: f(q[:-1], v0),
        {
            "br.holonomy-decomposition",
            "br.transport-crosscheck",
            "holonomy.antipodal-nontrivial",
            "holonomy.contractible",
            "holonomy.order4-convergence",
            "holonomy.squared-antipodal",
            "transport.fiber-retention",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_fails_exactly_its_checks(monkeypatch, name):
    home, attr, make, expected = MUTANTS[name]
    original = getattr(home, attr)
    mutant = make(original)
    for module_name, module in list(sys.modules.items()):
        if module_name.partition(".")[0] == "spinbundles" and getattr(module, attr, None) is original:
            monkeypatch.setattr(module, attr, mutant)
    report = run_suite(SuiteConfig(**SMALL))
    assert {c.check_id for c in report.failed()} == expected


def test_check_records_have_anchors(small_report):
    for c in small_report.checks:
        assert c.anchor and "§" not in c.anchor
        assert c.tolerance >= 0.0
        assert c.passed == (c.residual <= c.tolerance)


def _per_member_loops(seed: int, samples: int) -> dict:
    """The four random-polynomial checks of run_suite as loops over one
    polynomial at a time, on the stream run_suite draws them from."""
    rng = np.random.default_rng(seed)
    xs = sample_sphere(samples, rng)
    rng.standard_normal(1000), rng.standard_normal(1000)  # bundle.tilde-equals-minus
    out = {}
    worst = 0.0
    for _ in range(100):
        a = random_polynomial(rng, 5, "odd")
        a_back = odd_from_section(section_from_odd(a))
        worst = max(worst, float(np.abs(a(xs) - a_back(xs)).max()))
    out["sections.roundtrip-odd"] = worst
    worst = proj_worst = 0.0
    for _ in range(20):
        f = project_to_section(*(random_polynomial(rng, 4, "even") for _ in range(3)))
        proj_worst = max(proj_worst, f.projector_residual(xs))
        f_back = section_from_odd(odd_from_section(f))
        diff = f_back.coefficient_values(xs) - f.coefficient_values(xs)
        worst = max(worst, float(np.abs(diff).max()))
    out["sections.roundtrip-coefficients"] = worst
    out["sections.projector-fixed"] = proj_worst
    # sections.parity-idempotent, the clean odd coefficient and two contaminations
    random_polynomial(rng, 5, None), random_polynomial(rng, 5, "odd")
    random_polynomial(rng, 4, "even"), random_polynomial(rng, 4, "even")
    worst_ok = 0.0
    for _ in range(25):
        raw = {lbl: random_polynomial(rng, 3, None) for lbl in br.PRODUCT_LABELS}
        rep = br.spin_statistics_check(br.TwoSpinWaveFunction(br.antisymmetrize(raw)), xs[:512])
        worst_ok = max(worst_ok, rep.singlevalued_residual, rep.coefficient_relation_residual)
    out["spin.relation-consistency"] = worst_ok
    weakest = np.inf
    for _ in range(25):
        raw = {lbl: random_polynomial(rng, 3, None) for lbl in br.PRODUCT_LABELS}
        rep = br.spin_statistics_check(br.TwoSpinWaveFunction(raw), xs[:512])
        weakest = min(weakest, rep.singlevalued_residual, rep.coefficient_relation_residual)
    out["spin.relation-detects-violation"] = max(0.0, DETECTION_LEVEL - weakest)
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_family_checks_match_per_member_loops(cached_suite, seed):
    residuals = {c.check_id: c.residual for c in cached_suite(seed=seed, **SMALL).checks}
    for check_id, expected in _per_member_loops(seed, SMALL["samples"]).items():
        assert residuals[check_id] == expected, check_id


def _per_point_loops(seed: int, samples: int) -> dict:
    """The base, chart and bundle checks of run_suite as loops over one
    SpherePoint at a time, on the stream run_suite draws them from."""
    rng = np.random.default_rng(seed)
    xs = sample_sphere(samples, rng)
    points = [SpherePoint(*v) for v in xs.tolist()]
    qs = [project(x) for x in points]
    out = {}
    flipped = np.array([(y.x1, y.x2, y.x3) for y in map(antipode, points)])
    out["base.antipode-free"] = np.abs(np.linalg.norm(xs - flipped, axis=1) - 2).max()
    reps = np.array([q.vec for q in qs[:256]])
    reps_neg = np.array([project(-x).vec for x in points[:256]])
    out["base.project-antipode"] = np.abs(reps - reps_neg).max()
    phi = np.array([[partition_phi(a, q) for a in CHART_INDICES] for q in qs])
    out["charts.partition-unity"] = np.abs((phi**2).sum(axis=1) - 1.0).max()
    signs = {(i, c > 0) for x in points for i, c in enumerate((x.x1, x.x2, x.x3)) if c != 0.0}
    out["charts.cover"] = max(max(0.0, 1.0 / np.sqrt(3.0) - 1e-12 - phi.max(axis=1).min()), 6 - len(signs))
    worst = 0.0
    for q in qs[:128]:
        inside = ATLAS.charts_containing(q)
        direct = {b: chart_map(b, q) for b in inside}
        for a in inside:
            back = chart_inverse(a, direct[a])
            for b in inside:
                again = chart_map(b, back)
                worst = max(worst, abs(direct[b][0] - again[0]), abs(direct[b][1] - again[1]))
    out["charts.transition-geometry"] = worst
    boundary = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.6, -0.8, 0.0), (1e-13, 0.6, 0.8)]
    worst = 0.0
    for q in [*qs[:512], *(project(SpherePoint(*v)) for v in boundary)]:
        inside = [a for a in CHART_INDICES if chart_contains(a, q)]
        sign = {(a, b): line_bundle.transition(a, b, q) for a in inside for b in inside}
        for a, b, c in itertools.product(inside, repeat=3):
            worst = max(worst, abs(sign[a, b] * sign[b, c] - sign[a, c]))
        z = (0.3 - 0.7j) * line_bundle.chi(ChiVariant.ODD_LINEAR, q)
        fiber = {a: line_bundle.local_trivialization(a, q, z) for a in inside}
        for a, b in itertools.product(inside, repeat=2):
            worst = max(worst, abs(fiber[b] - sign[a, b] * fiber[a]))
        a = inside[0]
        worst = max(worst, abs(line_bundle.local_trivialization(a, q, 1j * z) - 1j * fiber[a]))
    out["charts.cocycle"] = worst
    g = GroupElement(-1)
    worst = 0.0
    actions = (line_bundle.tau_plus(), line_bundle.tau_minus(), line_bundle.tau_tilde(), line_bundle.tau_prime())
    for x, lam in zip(points[:64], np.linspace(-2, 2, 64)):
        for action in actions:
            if action.chi_variant is not None:
                vec = (lam + 0.5j) * line_bundle.chi(action.chi_variant, x)
            else:
                vec = np.array([lam, 0.2j, 1.0])
            y1, w1 = line_bundle.group_act(action, g, x, vec)
            y2, w2 = line_bundle.group_act(action, g, y1, w1)
            worst = max(
                worst,
                float(np.linalg.norm(y1.vec + x.vec)),
                float(np.linalg.norm(y2.vec - x.vec)),
                float(np.abs(w2 - vec).max()),
            )
    out["bundle.action-involution"] = worst
    worst = 0.0
    for x, lam in zip(points[:1000], rng.standard_normal(1000) + 1j * rng.standard_normal(1000)):
        z = lam * line_bundle.chi(ChiVariant.ODD_LINEAR, x)
        _, moved = line_bundle.group_act(line_bundle.tau_tilde(), g, x, z)
        coeff = ChiVariant.ODD_LINEAR.field.fiber_coordinate(-x.vec, moved)
        worst = max(worst, abs(coeff - (-lam)))
    out["bundle.tilde-equals-minus"] = worst
    return out


@pytest.mark.parametrize(
    "seed, scale", [(0, SMALL), (1, SMALL), (2, SMALL), (0, {})], ids=["0-small", "1-small", "2-small", "0-default"]
)
def test_point_checks_match_per_point_loops(cached_suite, seed, scale):
    residuals = {c.check_id: c.residual for c in cached_suite(seed=seed, **scale).checks}
    samples = scale.get("samples", SuiteConfig.samples)
    for check_id, expected in _per_point_loops(seed, samples).items():
        assert residuals[check_id] == expected, check_id
