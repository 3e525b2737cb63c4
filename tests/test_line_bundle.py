import itertools
import math

import numpy as np
import pytest
from conftest import chart_edge_points
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbundles.config_space import (
    ATLAS,
    CHART_INDICES,
    COORD_EPS,
    GroupElement,
    SpherePoint,
    antipode,
    chart_contains,
    chart_map,
    partition_phi,
    project,
)
from spinbundles.errors import (
    BindingError,
    ChartDomainError,
    FiberMembershipError,
    GeometryError,
    ParityError,
)
from spinbundles.line_bundle import (
    CHI_HARMONIC,
    FIBER_RTOL,
    ActionLabel,
    ChiVariant,
    chi,
    grassmann_field,
    group_act,
    hermiticity_defect,
    idempotency_defect,
    local_trivialization,
    projector_minus,
    tau_minus,
    tau_plus,
    tau_prime,
    tau_tilde,
    trace_defect,
    transition,
)
from spinbundles.transport import MIN_STEPS, antipodal_arc, parallel_transport

G = GroupElement(-1)


@pytest.mark.parametrize("variant", list(ChiVariant))
def test_chi_normalized_nonvanishing_with_declared_parity(variant, points):
    vals = variant.field.vector(points)
    norms = np.linalg.norm(vals, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12
    flipped = variant.field.vector(-points)
    if variant.is_odd:
        assert np.abs(flipped + vals).max() < 1e-12
    else:
        assert np.abs(flipped - vals).max() < 1e-12


def test_chi_pointwise_examples():
    north = SpherePoint(0.0, 0.0, 1.0)
    assert np.allclose(chi(ChiVariant.ODD_LINEAR, north), [0, 0, 1])
    # theta = 0 in the angular formula
    assert np.allclose(chi(ChiVariant.ODD_HARMONIC, north), [0, -1, 0])
    assert np.allclose(chi(ChiVariant.EVEN_CONSTANT, north), [1, 0, 0])


def test_projector_axis_point():
    p = projector_minus(SpherePoint(1.0, 0.0, 0.0))
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    assert np.array_equal(p.real, expected) and np.abs(p.imag).max() == 0.0


def test_projector_diagonal_point():
    s = 1.0 / math.sqrt(2.0)
    p = projector_minus(SpherePoint(s, s, 0.0))
    expected = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 0.0]])
    assert np.abs(p - expected).max() < 1e-15


def test_projector_linear_gauge_is_coordinate_products(points):
    p = ChiVariant.ODD_LINEAR.field.evaluate(points)
    outer = points[:, :, None] * points[:, None, :]
    assert np.abs(p - outer).max() == 0.0


@pytest.mark.parametrize("variant", [ChiVariant.ODD_LINEAR, ChiVariant.ODD_HARMONIC])
def test_projector_invariants(variant, points):
    p = variant.field.evaluate(points)
    assert hermiticity_defect(p) < 1e-12
    assert idempotency_defect(p) < 1e-12
    assert trace_defect(p) < 1e-10
    assert np.abs(variant.field.evaluate(-points) - p).max() < 1e-14


def test_projector_rejects_even_gauge():
    with pytest.raises(ParityError):
        projector_minus(SpherePoint(0.0, 0.0, 1.0), ChiVariant.EVEN_CONSTANT)
    with pytest.raises(ParityError):
        grassmann_field(ChiVariant.EVEN_CONSTANT)


def _written_out_chi(variant, xs):
    if variant is ChiVariant.EVEN_CONSTANT:
        return np.tile(np.array([1.0, 0.0, 0.0], dtype=complex), (len(xs), 1))
    c = np.eye(3, dtype=complex) if variant is ChiVariant.ODD_LINEAR else CHI_HARMONIC
    return xs @ c.T


@pytest.mark.parametrize("variant", list(ChiVariant))
def test_gauge_fields_match_written_out_formulas(variant, points):
    v = _written_out_chi(variant, points)
    assert np.array_equal(variant.field.vector(points), v)
    outer = v[:, :, None] * v.conj()[:, None, :]
    assert np.array_equal(variant.field.evaluate(points), outer)
    if variant.is_odd:
        assert np.array_equal(grassmann_field(variant).vector(points), v)


@pytest.mark.parametrize("variant", list(ChiVariant))
@pytest.mark.parametrize("offset, on_line", [(0.5, True), (2.0, False)])
def test_one_fiber_rule_for_coefficients_and_transport(variant, offset, on_line):
    # |lam| = 1, so z sits off the line chi(x) by offset * FIBER_RTOL * |z|;
    # fiber_coordinate and the start check of parallel_transport agree.
    x = SpherePoint.from_vec(np.array([0.48, 0.6, 0.64]))
    u = chi(variant, x)
    e3 = np.array([0.0, 0.0, 1.0], dtype=complex)
    normal = e3 - np.vdot(u, e3) * u
    normal /= np.linalg.norm(normal)
    lam = 0.8 - 0.6j
    z = lam * u + offset * FIBER_RTOL * normal
    arc = antipodal_arc(x, SpherePoint(0.0, 0.0, 1.0))
    if on_line:
        assert abs(variant.field.fiber_coordinate(x.vec, z) - lam) < 1e-15
        parallel_transport(variant.field, arc, z, MIN_STEPS)
    else:
        with pytest.raises(FiberMembershipError):
            variant.field.fiber_coordinate(x.vec, z)
        with pytest.raises(FiberMembershipError):
            parallel_transport(variant.field, arc, z, MIN_STEPS)


def test_transition_examples():
    s = 1.0 / math.sqrt(2.0)
    assert transition(1, 2, project(SpherePoint(s, s, 0.0))) == 1
    assert transition(1, 2, project(SpherePoint(s, -s, 0.0))) == -1
    d = 1.0 / math.sqrt(3.0)
    q = project(SpherePoint(d, d, d))
    assert transition(1, 2, q) * transition(2, 3, q) == transition(1, 3, q)
    with pytest.raises(ChartDomainError):
        transition(1, 2, project(SpherePoint(0.0, 0.0, 1.0)))


def test_transition_cocycle(points):
    for v in points[:1000]:
        q = project(SpherePoint.from_vec(v))
        if not all(abs(c) > 1e-12 for c in v):
            continue
        g12 = transition(1, 2, q)
        g23 = transition(2, 3, q)
        g13 = transition(1, 3, q)
        assert g12 * g23 == g13


def test_transition_representative_independent(points):
    for v in points[:200]:
        if min(abs(v[0]), abs(v[1])) < 1e-6:
            continue
        assert transition(1, 2, project(SpherePoint.from_vec(v))) == transition(
            1, 2, project(SpherePoint.from_vec(-v))
        )


def _reference_transition(alpha, beta, q):
    # The array formula: sign(x_a x_b) on the overlap, read from q.vec.
    v = q.vec
    if abs(v[alpha - 1]) <= COORD_EPS or abs(v[beta - 1]) <= COORD_EPS:
        raise ChartDomainError("outside the overlap")
    return 1 if v[alpha - 1] * v[beta - 1] > 0 else -1


@given(chart_edge_points())
@settings(max_examples=400, deadline=None)
def test_transition_matches_array_reference(p):
    q = project(p)
    for a, b in itertools.product(CHART_INDICES, repeat=2):
        try:
            expected = _reference_transition(a, b, q)
        except ChartDomainError:
            with pytest.raises(ChartDomainError):
                transition(a, b, q)
        else:
            assert transition(a, b, q) == expected
            assert transition(a, b, project(-p)) == expected


@given(chart_edge_points())
@settings(max_examples=400, deadline=None)
def test_chart_queries_read_either_representative(p):
    # A point of RP2 is the SpherePoint project returns; the chart queries take
    # p or -p in its place because each is even in x.  local_trivialization
    # may differ in the sign of an exact zero, which == does not see.
    z = (0.3 - 0.7j) * chi(ChiVariant.ODD_LINEAR, p)

    def queries(x):
        inside = ATLAS.charts_containing(x)
        return (
            inside,
            [chart_contains(a, x) for a in CHART_INDICES],
            [partition_phi(a, x) for a in CHART_INDICES],
            [chart_map(a, x) for a in inside],
            [transition(a, b, x) for a, b in itertools.product(inside, repeat=2)],
            [local_trivialization(a, x, z) for a in inside],
        )

    assert queries(p) == queries(-p) == queries(project(p))


@pytest.mark.parametrize("alpha", [1.0, True, np.float64(2.0), "1", None, 0, 4])
def test_transition_rejects_non_chart_indices(alpha):
    q = project(SpherePoint(0.6, 0.0, 0.8))
    with pytest.raises(GeometryError, match="chart index"):
        transition(alpha, 3, q)
    with pytest.raises(GeometryError, match="chart index"):
        transition(3, alpha, q)
    with pytest.raises(GeometryError, match="chart index"):
        transition(2, alpha, q)  # checked although the point is outside U_2
    assert transition(np.int64(1), np.int32(3), q) == transition(1, 3, q) == 1


def test_local_trivialization_examples():
    q = project(SpherePoint(1.0, 0.0, 0.0))
    z = 2.0 * chi(ChiVariant.ODD_LINEAR, q)
    assert local_trivialization(1, q, z) == pytest.approx(2.0)

    s = 1.0 / math.sqrt(2.0)
    q2 = project(SpherePoint(s, -s, 0.0))
    z2 = (1.5 - 0.5j) * chi(ChiVariant.ODD_LINEAR, q2)
    v1 = local_trivialization(1, q2, z2)
    v2 = local_trivialization(2, q2, z2)
    # transition compatibility: v2 = sign(x1 x2) v1 = -v1
    assert v2 == pytest.approx(-v1)

    with pytest.raises(FiberMembershipError):
        local_trivialization(1, q, np.array([0.0, 1.0, 0.0]))
    with pytest.raises(ChartDomainError):
        local_trivialization(1, project(SpherePoint(0.0, 0.0, 1.0)), z)


def test_group_act_examples():
    x = SpherePoint(0.0, 0.0, 1.0)
    y, w = group_act(tau_minus(), G, x, np.array([0.0, 0.0, 5.0]))
    assert y == SpherePoint(0.0, 0.0, -1.0)
    assert np.allclose(w, [0.0, 0.0, -5.0])

    # identity element is the identity on every action
    for action in (tau_plus(), tau_minus(), tau_tilde(), tau_prime()):
        vec = (
            1.3 * chi(action.chi_variant, x)
            if action.chi_variant is not None
            else np.array([1.0, 2.0, 3.0])
        )
        y, w = group_act(action, GroupElement(1), x, vec)
        assert y == x and np.allclose(w, vec)


def test_group_act_involution(points):
    for v, lam in zip(points[:100], np.linspace(-2, 2, 100)):
        x = SpherePoint.from_vec(v)
        for action in (tau_plus(), tau_minus(), tau_tilde(), tau_prime()):
            if action.chi_variant is not None:
                vec = (lam + 0.25j) * chi(action.chi_variant, x)
            else:
                vec = np.array([lam, 1.0j, 0.5])
            y1, w1 = group_act(action, G, x, vec)
            y2, w2 = group_act(action, G, y1, w1)
            assert np.linalg.norm(y2.vec - x.vec) < 1e-14
            assert np.abs(w2 - vec).max() < 1e-14


def test_tau_tilde_reexpression_equals_tau_minus(rng, points):
    # moving the base point while freezing the ambient vector flips the
    # fiber coordinate in an odd gauge: exactly the sign action
    lams = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    for v, lam in zip(points[:500], lams):
        x = SpherePoint.from_vec(v)
        z = lam * chi(ChiVariant.ODD_LINEAR, x)
        y, w = group_act(tau_tilde(), G, x, z)
        coeff = ChiVariant.ODD_LINEAR.field.fiber_coordinate(y.vec, w)
        assert abs(coeff - (-lam)) < 1e-12


def test_tau_prime_definition(points):
    action = tau_prime(ChiVariant.EVEN_CONSTANT)
    for v in points[:50]:
        x = SpherePoint.from_vec(v)
        z = (0.7 + 0.2j) * chi(ChiVariant.EVEN_CONSTANT, x)
        y, w = group_act(action, G, x, z)
        assert np.linalg.norm(y.vec + x.vec) < 1e-15
        expected = -(0.7 + 0.2j) * chi(ChiVariant.EVEN_CONSTANT, y)
        assert np.abs(w - expected).max() < 1e-14


def test_fiber_membership_enforced():
    x = SpherePoint(0.0, 0.0, 1.0)
    bad = np.array([1.0, 0.0, 0.0])  # orthogonal to chi(x) = e3
    with pytest.raises(FiberMembershipError):
        group_act(tau_tilde(), G, x, bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [[0], [0, 2]])
def test_non_finite_vectors_lie_in_no_fiber(bad, where):
    # A NaN or infinite vector makes the off-line residual NaN, which must fail
    # the membership test rather than come back as a NaN coordinate.
    x = SpherePoint(0.6, 0.0, 0.8)
    z = x.vec.astype(complex)
    z[where] = bad
    for variant in ChiVariant:
        with pytest.raises(FiberMembershipError):
            variant.field.fiber_coordinate(x.vec, z)
    with pytest.raises(FiberMembershipError):
        group_act(tau_tilde(), G, x, z)
    with pytest.raises(FiberMembershipError):
        group_act(tau_prime(), G, x, z)
    with pytest.raises(FiberMembershipError):
        local_trivialization(1, project(x), z)
    arc = antipodal_arc(x, SpherePoint(0.0, 1.0, 0.0))
    with pytest.raises(FiberMembershipError):
        parallel_transport(ChiVariant.ODD_LINEAR.field, arc, z, MIN_STEPS)


_ACTIONS = (tau_plus(), tau_minus(), tau_tilde(), tau_prime())


def _fiber_rows(ps, frame):
    """One fiber vector per point: lam_i * frame(p_i), with distinct lam_i."""
    return np.array([(0.3 - 0.7j + 0.25 * i) * frame(p) for i, p in enumerate(ps)])


def _action_vectors(action, ps):
    if action.chi_variant is None:
        return np.array([[0.5 * i, 0.2j, 1.0] for i in range(len(ps))], dtype=complex)
    return _fiber_rows(ps, action.chi_variant.field.frame)


def _assert_same_rows(array_call, point_calls, error):
    """The array form equals the one-point forms row by row, or raises error
    when any one-point form does."""
    try:
        expected = [call() for call in point_calls]
    except error:
        with pytest.raises(error):
            array_call()
        return
    assert np.array_equal(array_call(), expected)


@given(st.lists(chart_edge_points(), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_bundle_array_forms_match_scalar_forms(ps):
    xs = np.array([p.vec for p in ps])
    for a, b in itertools.product(CHART_INDICES, repeat=2):
        _assert_same_rows(
            lambda: transition(a, b, xs), [lambda p=p: transition(a, b, p) for p in ps], ChartDomainError
        )
    z = _fiber_rows(ps, ChiVariant.ODD_LINEAR.field.frame)
    for a in CHART_INDICES:
        _assert_same_rows(
            lambda: local_trivialization(a, xs, z),
            [lambda p=p, v=v: local_trivialization(a, p, v) for p, v in zip(ps, z)],
            ChartDomainError,
        )
    for variant in ChiVariant:
        field = variant.field
        zv = _fiber_rows(ps, field.frame)
        lam = field.fiber_coordinate(xs, zv)
        assert np.array_equal(lam, [field.fiber_coordinate(p.vec, v) for p, v in zip(ps, zv)])
    for action, g in itertools.product(_ACTIONS, (G, GroupElement(1))):
        vec = _action_vectors(action, ps)
        ys, ws = group_act(action, g, xs, vec)
        rows = [group_act(action, g, p, v) for p, v in zip(ps, vec)]
        assert np.array_equal(ys, [y.vec for y, _ in rows])
        assert np.array_equal(ws, [w for _, w in rows])


def _off_line(z, u, kind):
    """z moved off the line of the unit vector u by 1e-6 |z|, or made NaN."""
    if kind == "nan":
        return np.full_like(z, np.nan)
    j = int(np.argmin(np.abs(u)))
    w = -np.conj(u[j]) * u
    w[j] += 1.0
    return z + 1e-6 * np.linalg.norm(z) * w / np.linalg.norm(w)


@given(st.lists(chart_edge_points(), min_size=1, max_size=6), st.data())
@settings(max_examples=100, deadline=None)
def test_bundle_array_forms_refuse_any_off_fiber_row(ps, data):
    xs = np.array([p.vec for p in ps])
    k = data.draw(st.integers(0, len(ps) - 1))
    kind = data.draw(st.sampled_from(("tilt", "nan")))
    for variant in ChiVariant:
        field = variant.field
        z = _fiber_rows(ps, field.frame)
        z[k] = _off_line(z[k], field.frame(ps[k]), kind)
        with pytest.raises(FiberMembershipError):
            field.fiber_coordinate(ps[k].vec, z[k])
        with pytest.raises(FiberMembershipError):
            field.fiber_coordinate(xs, z)
        for action in [tau_prime(variant)] + ([tau_tilde(variant)] if variant.is_odd else []):
            with pytest.raises(FiberMembershipError):
                group_act(action, G, xs, z)
        if variant is ChiVariant.ODD_LINEAR:
            for a in CHART_INDICES:
                if chart_contains(a, xs).all():
                    with pytest.raises(FiberMembershipError):
                        local_trivialization(a, xs, z)


def test_bundle_array_forms_refuse_any_off_chart_row():
    xs = np.array([[0.6, 0.0, 0.8], [0.0, 0.6, 0.8]])  # the first row lies outside U_2
    z = xs.astype(complex)
    with pytest.raises(ChartDomainError):
        transition(2, 3, xs)
    with pytest.raises(ChartDomainError):
        local_trivialization(2, xs, z)
    assert np.array_equal(transition(1, 3, xs[:1]), [1]) and np.array_equal(antipode(xs), -xs)
    with pytest.raises(GeometryError):
        group_act(tau_plus(), G, np.array([[0.6, 0.0, 0.7]]), z[:1])


def test_action_binding_requirements():
    with pytest.raises(BindingError):
        tau_tilde(ChiVariant.EVEN_CONSTANT)
    assert tau_prime(ChiVariant.ODD_LINEAR).label is ActionLabel.TAU_PRIME
