from dataclasses import replace

import numpy as np
import pytest
from conftest import section_values
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbundles.config_space import GroupElement, SpherePoint, sample_sphere
from spinbundles.errors import BindingError, GeometryError, ParityError
from spinbundles.line_bundle import ChiVariant, tau_minus, tau_prime, tau_tilde
from spinbundles.section_algebra import (
    PullbackSection,
    ScalarField,
    SectionXi,
    coordinate_field,
    g_action_on_section,
    invariance_residual,
    odd_from_section,
    parity_decompose,
    polynomial_family,
    polynomial_field,
    project_to_section,
    pullback_T,
    random_polynomial,
    random_polynomial_families,
    section_from_odd,
    singlevaluedness_residuals,
    validation_grid,
)

X1, X2, X3 = (coordinate_field(i) for i in (1, 2, 3))
ZERO = polynomial_field([])
ONE = polynomial_field([(1.0, (0, 0, 0))])
ZERO_SECTION = SectionXi(ZERO, ZERO, ZERO)


def test_parity_decompose_examples(points):
    even, odd = parity_decompose(X3)
    assert np.abs(even(points)).max() < 1e-15
    assert np.abs(odd(points) - points[:, 2]).max() < 1e-15

    x1x2 = X1 * X2
    even, odd = parity_decompose(x1x2)
    assert np.abs(odd(points)).max() < 1e-15
    assert np.abs(even(points) - points[:, 0] * points[:, 1]).max() < 1e-15


def test_parity_decompose_reconstructs(points):
    mixed = X3 + X1 * X2
    even, odd = parity_decompose(mixed)
    # frozen expectation: even part x1*x2, odd part x3
    assert np.abs(even(points) - points[:, 0] * points[:, 1]).max() < 1e-12
    assert np.abs(odd(points) - points[:, 2]).max() < 1e-12
    assert np.abs(even(points) + odd(points) - mixed(points)).max() < 1e-12


def test_parity_decompose_idempotent(rng, points):
    a = random_polynomial(rng, 5)
    even, odd = parity_decompose(a)
    ee, eo = parity_decompose(even)
    assert np.abs(ee(points) - even(points)).max() < 1e-12
    assert np.abs(eo(points)).max() < 1e-12


def test_polynomial_parity_declaration():
    assert polynomial_field([(1.0, (1, 0, 0))]).parity == "odd"
    assert polynomial_field([(1.0, (1, 1, 0))]).parity == "even"
    assert polynomial_field([(1.0, (1, 0, 0)), (1.0, (1, 1, 0))]).parity is None


def _per_term_reference(terms, xs):
    xs = np.asarray(xs, dtype=float)
    out = np.zeros(xs.shape[:-1], dtype=complex)
    for c, (i, j, k) in terms:
        out += c * xs[..., 0] ** i * xs[..., 1] ** j * xs[..., 2] ** k
    return out


def test_polynomial_field_matches_per_term_sum(rng, points):
    # complex coefficients, a repeated exponent, degree 8 (the CLI's ceiling)
    terms = [
        (1.5 - 2j, (2, 0, 1)),
        (0.25j, (0, 0, 0)),
        (-3.0, (8, 0, 0)),
        (1.0, (2, 0, 1)),
        (2 + 1j, (1, 3, 4)),
        (0.5, (0, 0, 5)),
    ]
    p = polynomial_field(terms)
    for xs in (points, points[:10].reshape(2, 5, 3), points[0]):
        assert np.abs(p(xs) - _per_term_reference(terms, xs)).max() < 1e-13
        assert p(xs).shape == xs.shape[:-1]
    north = SpherePoint(0.0, 0.0, 1.0)
    assert abs(p(north) - (0.25j + 0.5)) < 1e-15
    empty = polynomial_field([])
    assert empty.parity == "even"
    assert np.array_equal(empty(points), np.zeros(len(points), dtype=complex))
    for _ in range(10):
        coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        terms = list(zip(coeffs, rng.integers(0, 3, size=(6, 3))))
        q = polynomial_field(terms)
        assert np.abs(q(points) - _per_term_reference(terms, points)).max() < 1e-13


def test_polynomial_field_parity_is_exact(rng, points):
    for _ in range(10):
        odd = random_polynomial(rng, 5, "odd")
        even = random_polynomial(rng, 5, "even")
        assert np.array_equal(odd(-points), -odd(points))
        assert np.array_equal(even(-points), even(points))


def test_section_from_odd_formula(points):
    f = section_from_odd(X1)
    coeffs = f.coefficient_values(points)
    expected = np.stack(
        [points[:, 0] ** 2, points[:, 1] * points[:, 0], points[:, 2] * points[:, 0]], axis=1
    )
    assert np.abs(coeffs - expected).max() < 1e-14


def test_section_from_odd_projector_fixed(points):
    # (p f)_b = x_b * sum_a x_a^2 * x_1 = x_b x_1 = f_b, pointwise
    f = section_from_odd(X1)
    assert f.projector_residual(points[:1000]) < 1e-14


def test_section_from_odd_rejects_even():
    with pytest.raises(ParityError):
        section_from_odd(X1 * X2)
    with pytest.raises(ParityError):
        section_from_odd(ONE)


@pytest.mark.parametrize("cached", [validation_grid])
def test_cached_sample_arrays_are_read_only(cached):
    # Every caller shares this array; zeroing it would blind the parity
    # check (X1 + X1*X2 would then pass as odd).
    with pytest.raises(ValueError):
        cached()[:] = 0.0
    with pytest.raises(ValueError):
        cached()[0, 0] = 2.0
    with pytest.raises(ParityError):
        section_from_odd(X1 + X1 * X2)


def test_zero_section_round_trip(points):
    assert np.abs(section_values(ZERO_SECTION, points)).max() == 0.0
    a = odd_from_section(ZERO_SECTION)
    assert np.abs(a(points)).max() == 0.0


def test_odd_from_section_examples(points):
    a = odd_from_section(section_from_odd(X1))
    assert np.abs(a(points) - points[:, 0]).max() < 1e-14

    f3 = section_from_odd(X3)  # coefficients (x1 x3, x2 x3, x3^2)
    a3 = odd_from_section(f3)
    assert np.abs(a3(points) - points[:, 2]).max() < 1e-14


def test_round_trip_random_odd_polynomials(rng, points):
    for _ in range(100):
        a = random_polynomial(rng, 5, "odd")
        back = odd_from_section(section_from_odd(a))
        assert np.abs(a(points) - back(points)).max() < 1e-12


def test_round_trip_projected_triples(rng, points):
    for _ in range(20):
        gs = [random_polynomial(rng, 4, "even") for _ in range(3)]
        f = project_to_section(*gs)
        assert f.projector_residual(points) < 1e-10
        back = section_from_odd(odd_from_section(f))
        assert np.abs(back.coefficient_values(points) - f.coefficient_values(points)).max() < 1e-12


def test_odd_from_section_rejects_non_fixed_triple():
    f = SectionXi(ONE, ZERO, ZERO)
    with pytest.raises(GeometryError):
        odd_from_section(f)


def test_section_requires_even_coefficients():
    with pytest.raises(ParityError):
        SectionXi(X1, X2, X3)


def test_pullback_examples(points):
    z = pullback_T(ZERO_SECTION)
    assert np.abs(z.values(points)).max() == 0.0

    f = section_from_odd(X3)
    sigma = pullback_T(f)
    north = SpherePoint(0.0, 0.0, 1.0)
    vec = sigma.values(north.vec)
    assert np.abs(vec - np.array([0.0, 0.0, 1.0])).max() < 1e-15


def test_pullback_evaluation_identity(rng, points):
    # T(f)(x) agrees with the generator-expansion sum_a f_a(x) e_a([x])
    for _ in range(10):
        a = random_polynomial(rng, 5, "odd")
        f = section_from_odd(a)
        sigma = pullback_T(f)
        assert np.abs(sigma.values(points) - section_values(f, points)).max() < 1e-12


def test_g_action_identity_and_binding(points):
    sigma = pullback_T(section_from_odd(X3))
    same = g_action_on_section(sigma, GroupElement(1), tau_tilde())
    assert np.abs(same.values(points) - sigma.values(points)).max() == 0.0
    with pytest.raises(BindingError):
        g_action_on_section(sigma, GroupElement(-1), tau_minus())
    with pytest.raises(BindingError):
        g_action_on_section(sigma, GroupElement(-1), tau_tilde(ChiVariant.ODD_HARMONIC))


def test_g_action_matches_ambient_computation(rng, points):
    # (g.sigma)(x) = tau_g(sigma(g^{-1}x)) computed directly on fiber vectors
    a = random_polynomial(rng, 5)
    sigma = PullbackSection(a, ChiVariant.ODD_LINEAR)
    acted = g_action_on_section(sigma, GroupElement(-1), tau_tilde())
    ambient = sigma.values(-points)  # tau-tilde keeps the ambient vector
    assert np.abs(acted.values(points) - ambient).max() < 1e-12


def test_invariance_iff_odd_coefficient(points):
    sigma = pullback_T(section_from_odd(X3))
    assert invariance_residual(sigma, tau_tilde(), points) < 1e-10

    even_sigma = PullbackSection(ONE, ChiVariant.ODD_LINEAR)
    r = invariance_residual(even_sigma, tau_tilde(), points)
    assert abs(r - 2.0) < 1e-10  # ghat sigma = -sigma, |chi| = 1

    zero = PullbackSection(ZERO, ChiVariant.ODD_LINEAR)
    assert invariance_residual(zero, tau_tilde(), points) == 0.0


def test_invariance_in_even_gauge_also_requires_odd(points):
    sigma = PullbackSection(X3, ChiVariant.EVEN_CONSTANT)
    assert invariance_residual(sigma, tau_prime(), points) < 1e-10
    bad = PullbackSection(X3 + 0.01 * (X1 * X2), ChiVariant.EVEN_CONSTANT)
    assert invariance_residual(bad, tau_prime(), points) > 1e-3


def test_singlevaluedness_by_gauge_parity(points):
    odd_gauge = PullbackSection(X3, ChiVariant.ODD_LINEAR)
    same, opposite = singlevaluedness_residuals(odd_gauge, points)
    assert same < 1e-10
    assert opposite > 0.5

    even_gauge = PullbackSection(X3, ChiVariant.EVEN_CONSTANT)
    same, opposite = singlevaluedness_residuals(even_gauge, points)
    assert opposite < 1e-10
    assert same > 0.5

    zero = PullbackSection(ZERO, ChiVariant.ODD_LINEAR)
    assert singlevaluedness_residuals(zero, points) == (0.0, 0.0)


def test_scalar_field_arithmetic_and_parity(points):
    s = 2.0 * X1 + X2 * X3 * X1
    assert s.parity == "odd"  # odd + odd*odd*odd
    assert (X1 + X1 * X2).parity is None
    assert (X1 + X3).parity == "odd"
    assert (X1 * X3).parity == "even"
    vals = s(points)
    assert np.abs(vals - (2 * points[:, 0] + points.prod(axis=1))).max() < 1e-14


def test_scalar_field_scalar_call():
    p = SpherePoint(0.0, 0.0, 1.0)
    assert X3(p) == 1.0
    assert isinstance(X3(p), complex)


# Reference forms of parity_decompose, odd_from_section and the coefficient
# map of g_action_on_section as direct closures over the evaluators; the
# library builds them from the ScalarField operators and must match bit for bit.
def _reference_parity_decompose(a):
    ev = a.evaluator

    def even_part(xs):
        xs = np.asarray(xs, dtype=float)
        return 0.5 * (ev(xs) + ev(-xs))

    def odd_part(xs):
        xs = np.asarray(xs, dtype=float)
        return 0.5 * (ev(xs) - ev(-xs))

    return (
        ScalarField(even_part, "even", f"even[{a.name}]"),
        ScalarField(odd_part, "odd", f"odd[{a.name}]"),
    )


def _reference_odd_from_section(f):
    fields = f.fields

    def ev(xs):
        xs = np.asarray(xs, dtype=float)
        out = np.zeros(xs.shape[:-1], dtype=complex)
        for a in range(3):
            out += xs[..., a] * fields[a](xs)
        return out

    return ScalarField(ev, "odd", "sum_a x_a*f_a")


def _reference_g_coefficient(a):
    ev = a.evaluator
    return ScalarField(lambda xs: -ev(-np.asarray(xs)), a.parity, f"(g.{a.name})")


def _field_of_kind(rng, kind):
    if kind == "complex":
        coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        return polynomial_field(list(zip(coeffs, rng.integers(0, 3, size=(5, 3)))))
    return random_polynomial(rng, 4, None if kind == "mixed" else kind)


_KINDS = st.sampled_from(["mixed", "odd", "even", "complex"])


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.tuples(_KINDS, _KINDS),
    combine=st.sampled_from(["single", "sum", "product"]),
)
def test_operator_built_maps_match_reference_closures(seed, kinds, combine):
    rng = np.random.default_rng(seed)
    f, g = (_field_of_kind(rng, kind) for kind in kinds)
    a = {"single": f, "sum": f + g, "product": f * g}[combine]
    xs = sample_sphere(64, rng)
    samples = (xs, xs[:10].reshape(2, 5, 3), SpherePoint.from_vec(xs[0]))

    def assert_same(field, reference):
        assert (field.name, field.parity) == (reference.name, reference.parity)
        for x in samples:
            assert np.array_equal(field(x), reference(x))

    for part, reference in zip(parity_decompose(a), _reference_parity_decompose(a)):
        assert_same(part, reference)
    acted = g_action_on_section(PullbackSection(a), GroupElement(-1), tau_tilde())
    assert_same(acted.coefficient, _reference_g_coefficient(a))
    odd = _reference_parity_decompose(a)[1]
    evens = [random_polynomial(rng, 4, "even") for _ in range(3)]
    for section in (section_from_odd(odd), project_to_section(*evens)):
        assert_same(odd_from_section(section), _reference_odd_from_section(section))


# -- polynomial families and shared evaluation -----------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    members=st.integers(1, 4),
    terms=st.integers(0, 8),
    complex_coefficients=st.booleans(),
)
def test_family_members_match_polynomial_field(seed, members, terms, complex_coefficients):
    rng = np.random.default_rng(seed)
    exps = rng.integers(0, 4, size=(terms, 3))  # mixed parity in general
    coeffs = rng.standard_normal((members, terms))
    if complex_coefficients:
        coeffs = coeffs + 1j * rng.standard_normal((members, terms))
    family = polynomial_family(coeffs, exps)
    singles = [polynomial_field(list(zip(row, exps))) for row in coeffs]
    assert family.parity == singles[0].parity
    xs = sample_sphere(32, rng)
    point = SpherePoint.from_vec(xs[0])
    odd_family = parity_decompose(family)[1]
    odd_singles = [parity_decompose(single)[1] for single in singles]
    for x in (xs, xs[:10].reshape(2, 5, 3)):
        values = family(x)
        assert values.shape == (members,) + x.shape[:-1]
        composite = (2.0 * family * X1 - family.reflect())(x)
        sections = section_values(section_from_odd(odd_family), x)
        for i, single in enumerate(singles):
            assert np.array_equal(values[i], single(x))
            assert np.array_equal(composite[i], (2.0 * single * X1 - single.reflect())(x))
            assert np.array_equal(sections[i], section_values(section_from_odd(odd_singles[i]), x))
    assert np.array_equal(family(point), [single(point) for single in singles])


def test_polynomial_family_rejects_malformed_coefficients():
    exps = [(1, 0, 0), (0, 1, 1)]
    for coeffs in (np.ones(2), np.ones((3, 3)), np.ones((1, 2, 2))):
        with pytest.raises(GeometryError):
            polynomial_family(coeffs, exps)


@pytest.mark.parametrize(
    "members, count, degree, parity",
    [(100, 1, 5, "odd"), (20, 3, 4, "even"), (25, 4, 3, None), (1, 2, 2, None)],
)
def test_family_draw_matches_sequential_draws(members, count, degree, parity, points):
    drawn = np.random.default_rng(7)
    families = random_polynomial_families(drawn, members, count, degree, parity)
    sequential = np.random.default_rng(7)
    xs = points[:64]
    family_values = [family(xs) for family in families]
    for i in range(members):
        for j in range(count):
            single = random_polynomial(sequential, degree, parity)
            assert np.array_equal(family_values[j][i], single(xs))
            assert (families[j].name, families[j].parity) == (single.name, single.parity)
    assert drawn.standard_normal() == sequential.standard_normal()


def _counted(field):
    """The field with an evaluator that records each call, and the call list."""
    calls = []

    def evaluator(xs):
        calls.append(xs)
        return field.evaluator(xs)

    return replace(field, evaluator=evaluator), calls


def test_round_trip_evaluates_its_odd_function_once(rng, points):
    a, calls = _counted(random_polynomial(rng, 5, "odd"))
    back = odd_from_section(section_from_odd(a))
    calls.clear()
    values = back(points)
    assert len(calls) == 1
    assert np.abs(values - a(points)).max() < 1e-12


def test_nested_parity_parts_evaluate_at_most_twice(rng, points):
    a, calls = _counted(random_polynomial(rng, 5))
    even, odd = parity_decompose(a)
    for part in (even, odd, *parity_decompose(even), *parity_decompose(odd)):
        calls.clear()
        part(points)
        assert len(calls) <= 2, part.name


def test_coefficient_round_trip_evaluates_each_even_field_once(rng, points):
    counted = [_counted(random_polynomial(rng, 4, "even")) for _ in range(3)]
    back = section_from_odd(odd_from_section(project_to_section(*(g for g, _ in counted))))
    for _, calls in counted:
        calls.clear()
    back.coefficient_values(points)
    assert [len(calls) for _, calls in counted] == [1, 1, 1]
