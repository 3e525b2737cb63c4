import dataclasses
import json

import numpy as np
import pytest

from spinbundles.errors import ConfigError, ParityError
from spinbundles.line_bundle import ChiVariant
from spinbundles import berry_robbins as br
from spinbundles import config_space, experiments
from spinbundles.config_space import sample_sphere
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
    VerificationReport,
    checks_hit_by_fault,
    five_step_experiment,
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
    source = section_from_odd(coordinate_field(3))
    report = five_step_experiment(source, ChiVariant.ODD_LINEAR, points)
    assert report.invariant is True
    assert report.singlevalued is True
    assert report.anti_singlevalued is False
    assert not report.vacuous
    assert report.step4["intertwine_residual"] < 1e-10
    assert report.step3 == report.step5


def test_five_step_even_gauge_run(points):
    source = section_from_odd(coordinate_field(3))
    report = five_step_experiment(source, ChiVariant.EVEN_CONSTANT, points)
    assert report.invariant is True
    assert report.singlevalued is False
    assert report.anti_singlevalued is True
    # step 3 is evaluated in the odd source gauge, where it IS single-valued
    assert report.step3["same_value_residual"] < 1e-10
    assert report.step5["opposite_value_residual"] < 1e-10


def test_five_step_flag_pairing(points):
    source = section_from_odd(coordinate_field(1))
    odd = five_step_experiment(source, ChiVariant.ODD_HARMONIC, points)
    even = five_step_experiment(source, ChiVariant.EVEN_CONSTANT, points)
    assert odd.invariant == even.invariant
    assert odd.singlevalued == even.anti_singlevalued
    assert odd.anti_singlevalued == even.singlevalued


def test_five_step_zero_section_vacuous(points):
    from spinbundles.section_algebra import zero_section

    report = five_step_experiment(zero_section(), ChiVariant.ODD_LINEAR, points)
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
    source = section_from_odd(coordinate_field(3))
    report = five_step_experiment(source, ChiVariant.ODD_LINEAR, points)
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
    back = VerificationReport.from_json(text)
    assert back == small_report
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


def test_identity_antipode_fails_the_action_involution(monkeypatch):
    # tau_g tau_g = id holds for any involution, so only the check that the
    # action moves x to -x catches a group action that fixes the base point.
    monkeypatch.setattr(config_space, "antipode", lambda p: p)
    report = run_suite(SuiteConfig(**SMALL))
    assert {c.check_id for c in report.checks if not c.passed} == {"bundle.action-involution"}


def test_swapped_parity_split_fails_the_idempotence_check(monkeypatch):
    # Idempotence, complementarity and reconstruction are symmetric in the two
    # parts, so only the parity of each part tells (even, odd) from (odd, even).
    split = experiments.parity_decompose
    monkeypatch.setattr(experiments, "parity_decompose", lambda a: split(a)[::-1])
    report = run_suite(SuiteConfig(**SMALL))
    assert {c.check_id for c in report.checks if not c.passed} == {"sections.parity-idempotent"}


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
