import math
import struct
import sys

import numpy as np
import pytest
from conftest import chart_edge_points
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbundles.config_space import (
    ATLAS,
    CHART_INDICES,
    COORD_EPS,
    SPHERE_TOL,
    GroupElement,
    SpherePoint,
    angles_of,
    antipode,
    antipode_angles,
    chart_contains,
    chart_inverse,
    chart_map,
    partition_phi,
    project,
    sample_sphere,
)
from spinbundles.errors import ChartDomainError, GeometryError


def test_sphere_point_unit_norm_enforced():
    SpherePoint(1.0, 0.0, 0.0)
    with pytest.raises(GeometryError):
        SpherePoint(1.0, 1.0, 0.0)


@pytest.mark.parametrize("v", [[1.0, 0.0], [1.0, 0.0, 0.0, 7.0], [[1.0, 0.0, 0.0]], 1.0])
def test_from_vec_needs_exactly_three_coordinates(v):
    with pytest.raises(GeometryError, match="shape"):
        SpherePoint.from_vec(v)
    assert SpherePoint.from_vec([0.0, 1.0, 0.0]) == SpherePoint(0.0, 1.0, 0.0)


@pytest.mark.parametrize(
    "v", [[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0], [-np.inf, 1.0, 1.0]]
)
def test_from_direction_refuses_zero_and_non_finite_vectors(v):
    # Refused before the division, so no 0/0 or inf/inf warning is raised.
    with pytest.raises(GeometryError, match="cannot normalize"):
        SpherePoint.from_direction(v)


def test_from_direction_divides_by_the_norm():
    v = np.array([1.0, 2.0, 0.5])
    n = float(np.linalg.norm(v))
    p = SpherePoint.from_direction(v)
    assert (p.x1, p.x2, p.x3) == (v[0] / n, v[1] / n, v[2] / n)
    with pytest.raises(GeometryError, match="shape"):
        SpherePoint.from_direction([1.0, 0.0, 0.0, 0.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "v, expected",
    [
        ([1e200, 1e200, 0.0], (math.sqrt(0.5), math.sqrt(0.5), 0.0)),
        ([1e-200, -1e-200, 0.0], (math.sqrt(0.5), -math.sqrt(0.5), 0.0)),
        ([-1.7e308, 1.7e308, 1.7e308], (-math.sqrt(1 / 3), math.sqrt(1 / 3), math.sqrt(1 / 3))),
        ([0.0, 5e-324, 0.0], (0.0, 1.0, 0.0)),
        ([1e-13, 0.0, 0.0], (1.0, 0.0, 0.0)),
    ],
)
def test_from_direction_accepts_every_finite_scale(v, expected):
    # Neither overflow in the norm nor a floor on it: only the direction counts.
    p = SpherePoint.from_direction(v)
    assert np.abs(p.vec - expected).max() <= 2e-16


def test_from_direction_scaling_keeps_ordinary_inputs_bit_for_bit(rng):
    # A power-of-two scaling is exact, so ordinary inputs divide by their
    # own norm as before.
    for v in rng.standard_normal((200, 3)) * np.exp2(rng.integers(-60, 60, (200, 1))):
        n = float(np.linalg.norm(v))
        assert SpherePoint.from_direction(v) == SpherePoint(*(v / n))


def test_angles_round_trip(rng):
    for _ in range(200):
        theta = rng.uniform(0.05, math.pi - 0.05)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        p = SpherePoint.from_angles(theta, phi)
        q = SpherePoint.from_angles(*angles_of(p.vec))
        assert np.linalg.norm(p.vec - q.vec) < 1e-12


def test_antipode_examples():
    p = SpherePoint(0.0, 0.0, 1.0)
    assert antipode(p) == SpherePoint(0.0, 0.0, -1.0)


def test_antipode_involution(points):
    for v in points[:100]:
        p = SpherePoint.from_vec(v)
        assert antipode(antipode(p)) == p


def test_antipode_in_angles_matches_cartesian_negation():
    # trigonometric route: (theta, phi) -> (pi - theta, phi + pi)
    p = SpherePoint.from_angles(math.pi / 3, math.pi / 4)
    q = antipode(p)
    expected = SpherePoint.from_angles(2 * math.pi / 3, 5 * math.pi / 4)
    assert np.linalg.norm(q.vec - expected.vec) < 1e-12
    theta_a, phi_a = antipode_angles(*angles_of(p.vec))
    theta_q, phi_q = angles_of(q.vec)
    assert abs(theta_a - theta_q) < 1e-12
    assert abs(phi_a - phi_q) < 1e-12


def test_action_is_free(many_points):
    dist = np.linalg.norm(many_points - (-many_points), axis=1)
    assert np.abs(dist - 2.0).max() < 1e-12


def test_group_element_axioms():
    with pytest.raises(GeometryError):
        GroupElement(2)


def test_project_canonicalization_examples():
    assert project(SpherePoint(0.0, 0.0, -1.0)) == SpherePoint(0.0, 0.0, 1.0)
    a = project(SpherePoint(-1.0, 0.0, 0.0))
    b = project(SpherePoint(1.0, 0.0, 0.0))
    assert a == b
    assert hash(a) == hash(b)
    q = project(SpherePoint(0.0, -0.6, 0.8))
    assert np.allclose(q.vec, [0.0, 0.6, -0.8])


def test_project_respects_antipode(many_points):
    for v in many_points[:10_000:7]:
        p = SpherePoint.from_vec(v)
        assert project(p) == project(antipode(p))


def test_chart_map_examples():
    q = project(SpherePoint(1.0, 0.0, 0.0))
    assert chart_map(1, q) == (0.0, 0.0)
    s = 1.0 / math.sqrt(2.0)
    q2 = project(SpherePoint(s, s, 0.0))
    u, v = chart_map(1, q2)
    assert abs(u - 1.0) < 1e-15 and abs(v) < 1e-15
    pole = project(SpherePoint(0.0, 0.0, 1.0))
    assert chart_map(3, pole) == (0.0, 0.0)
    with pytest.raises(ChartDomainError):
        chart_map(1, pole)


def test_chart_cover(many_points):
    # every unit vector has a coordinate of size at least 1/sqrt(3)
    assert np.abs(many_points).max(axis=1).min() >= 1.0 / math.sqrt(3.0) - 1e-12
    for v in many_points[:50]:
        assert ATLAS.charts_containing(project(SpherePoint.from_vec(v)))


def test_chart_transition_geometry(points):
    # h_b . h_a^{-1} applied to h_a([x]) lands on h_b([x])
    worst = 0.0
    for v in points[:300]:
        q = project(SpherePoint.from_vec(v))
        inside = ATLAS.charts_containing(q)
        for a in inside:
            back = chart_inverse(a, chart_map(a, q))
            for b in inside:
                expect = chart_map(b, q)
                got = chart_map(b, back)
                worst = max(worst, abs(expect[0] - got[0]), abs(expect[1] - got[1]))
    assert worst < 1e-10


def test_partition_examples():
    q = project(SpherePoint(1.0, 0.0, 0.0))
    assert partition_phi(1, q) == 1.0
    assert partition_phi(2, q) == 0.0 and partition_phi(3, q) == 0.0
    d = 1.0 / math.sqrt(3.0)
    qd = project(SpherePoint(d, d, d))
    phis = [partition_phi(a, qd) for a in (1, 2, 3)]
    assert np.allclose(phis, d)
    assert abs(sum(p * p for p in phis) - 1.0) < 1e-12


def test_partition_of_unity(many_points):
    phi = np.array(
        [[partition_phi(a, project(SpherePoint(*v))) for a in CHART_INDICES] for v in many_points.tolist()]
    )
    assert np.abs((phi**2).sum(axis=1) - 1.0).max() < 1e-12


def test_partition_even_under_antipode(points):
    for v in points[:200]:
        q1 = project(SpherePoint.from_vec(v))
        q2 = project(SpherePoint.from_vec(-v))
        for a in (1, 2, 3):
            assert partition_phi(a, q1) == partition_phi(a, q2)


def test_chart_membership_threshold():
    q = project(SpherePoint(0.0, 0.0, 1.0))
    assert not chart_contains(1, q)
    assert chart_contains(3, q)


def test_chart_inverse_accepts_any_finite_pair():
    # |(1, u, w)|^2 overflows here; hypot does not.
    q = chart_inverse(1, (1e200, 1e200))
    assert np.abs(q.vec - [0.0, math.sqrt(0.5), math.sqrt(0.5)]).max() <= 1e-15
    q = chart_inverse(1, (1e160, 0.0))
    assert q == SpherePoint(1e-160, 1.0, 0.0)
    for uv in ((math.inf, 0.0), (0.0, -math.inf), (math.nan, 1.0)):
        with pytest.raises(GeometryError, match="finite"):
            chart_inverse(2, uv)


_DBL_MAX = sys.float_info.max


@pytest.mark.parametrize("alpha", CHART_INDICES)
@pytest.mark.parametrize(
    "uv",
    [(s * _DBL_MAX, t * _DBL_MAX) for s in (1, -1) for t in (1, -1)]
    + [(_DBL_MAX, 0.0), (1.7e308, 1.7e308)],
)
def test_chart_inverse_scales_pairs_whose_norm_overflows(alpha, uv):
    # hypot(1, u, w) is inf for all but (DBL_MAX, 0), so (1, u, w) is scaled first.
    p = chart_inverse(alpha, uv)
    assert abs(p.x1 * p.x1 + p.x2 * p.x2 + p.x3 * p.x3 - 1.0) <= SPHERE_TOL
    u, w = uv[0] / _DBL_MAX, uv[1] / _DBL_MAX
    expected = [u / math.hypot(u, w), w / math.hypot(u, w)]
    expected.insert(alpha - 1, 0.0)
    got = np.array([p.x1, p.x2, p.x3])
    assert min(np.abs(got - expected).max(), np.abs(got + expected).max()) <= 1e-15


@pytest.mark.parametrize("alpha", [1.0, True, False, np.float64(2.0), "1", None, 0, 4, np.int64(4)])
def test_chart_index_must_be_an_integer_chart(alpha):
    q = project(SpherePoint(0.6, 0.0, 0.8))
    for call in (
        lambda: chart_contains(alpha, q),
        lambda: chart_map(alpha, q),
        lambda: chart_inverse(alpha, (0.5, -0.5)),
        lambda: partition_phi(alpha, q),
    ):
        with pytest.raises(GeometryError, match="chart index"):
            call()


def test_chart_index_accepts_numpy_integers():
    q = project(SpherePoint(0.6, 0.0, 0.8))
    assert chart_contains(np.int64(3), q) and not chart_contains(np.int32(2), q)
    assert chart_map(np.int8(3), q) == chart_map(3, q)
    assert chart_inverse(np.uint8(1), (0.5, 0.5)) == chart_inverse(1, (0.5, 0.5))
    assert partition_phi(np.int64(1), q) == 0.6


# Reference forms of the scalar chart queries, as the array formulas they
# replaced: the canonical representative, membership and affine coordinates.
def _reference_rep(p):
    v = np.array([p.x1, p.x2, p.x3])
    for i in range(3):
        if abs(v[i]) > COORD_EPS:
            return -v if v[i] < 0 else v
    raise AssertionError("no coordinate exceeds the zero threshold")


def _reference_chart_map(alpha, v):
    d = v[alpha - 1]
    others = [i for i in range(3) if i != alpha - 1]
    return float(v[others[0]] / d), float(v[others[1]] / d)


def _bits(p):
    return struct.pack("3d", p.x1, p.x2, p.x3)


@given(chart_edge_points())
@settings(max_examples=400, deadline=None)
def test_project_identifies_antipodes_bit_for_bit(p):
    rep = project(p)
    assert _bits(rep) == _bits(project(-p))
    assert _bits(rep) == _reference_rep(p).tobytes()


@given(chart_edge_points())
@settings(max_examples=400, deadline=None)
def test_scalar_chart_queries_match_array_reference(p):
    q = project(p)
    v = _reference_rep(p)
    inside = tuple(a for a in CHART_INDICES if abs(v[a - 1]) > COORD_EPS)
    assert ATLAS.charts_containing(q) == inside
    for a in CHART_INDICES:
        assert chart_contains(a, q) == (a in inside)
        assert partition_phi(a, q) == abs(float(v[a - 1]))
        if a in inside:
            assert chart_map(a, q) == _reference_chart_map(a, v)
            # Up to sign: a round trip may move a coordinate across COORD_EPS.
            back = chart_inverse(a, chart_map(a, q)).vec
            assert min(np.abs(back - v).max(), np.abs(back + v).max()) <= 1e-15
        else:
            with pytest.raises(ChartDomainError):
                chart_map(a, q)


@given(st.lists(chart_edge_points(), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_point_query_array_forms_match_scalar_forms(ps):
    # An (N, 3) array gives, row by row, what each SpherePoint gives.
    xs = np.array([p.vec for p in ps])
    assert np.array_equal(antipode(xs), [antipode(p).vec for p in ps])
    reps = project(xs)
    assert np.array_equal(reps, [project(p).vec for p in ps])
    assert reps.tobytes() == b"".join(_bits(project(p)) for p in ps)
    for a in CHART_INDICES:
        assert np.array_equal(chart_contains(a, xs), [chart_contains(a, p) for p in ps])
        assert np.array_equal(partition_phi(a, xs), [partition_phi(a, p) for p in ps])


@pytest.mark.parametrize(
    "xs",
    [
        np.array([0.6, 0.0, 0.8]),  # one point needs a SpherePoint
        np.zeros((2, 2)),
        np.array([[0.6, 0.0, 0.8], [0.6, 0.0, 0.7]]),  # second row off the sphere
        np.array([[np.nan, 0.0, 1.0]]),
    ],
)
def test_point_query_array_forms_check_every_row(xs):
    for query in (project, lambda q: chart_contains(1, q), lambda q: partition_phi(3, q)):
        with pytest.raises(GeometryError):
            query(xs)


def test_sample_sphere_deterministic():
    a = sample_sphere(64, 9)
    b = sample_sphere(64, 9)
    assert np.array_equal(a, b)
    assert np.abs(np.linalg.norm(a, axis=1) - 1.0).max() < 1e-12


def test_angles_of_pole_convention():
    theta, phi = angles_of(np.array([0.0, 0.0, 1.0]))
    assert theta == 0.0 and phi == 0.0
    theta, phi = angles_of(np.array([0.0, 0.0, -1.0]))
    assert abs(theta - math.pi) < 1e-15 and phi == 0.0
