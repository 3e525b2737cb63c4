import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbundles import transport
from spinbundles.berry_robbins import TRIPLET_MS, block_matrix, exchange_line_field, singlet_field
from spinbundles.config_space import SpherePoint
from spinbundles.errors import FiberMembershipError, GeometryError
from spinbundles.line_bundle import (
    CHI_HARMONIC,
    ChiVariant,
    ProjectorField,
    chi,
    constant_projector_field,
    grassmann_field,
    linear_line_field,
)
from spinbundles.kernels import rk4_transport_path
from spinbundles.transport import (
    ENDPOINT_TOL,
    MAX_STEPS,
    MIN_STEPS,
    Curve,
    antipodal_arc,
    constant_curve,
    flatness_report,
    great_circle,
    holonomy,
    parallel_transport,
    reparametrize,
    restrict,
    reverse,
    small_circle,
)
from spinbundles.transport import _frame, _generator_factors, _horizontal_frame

E1 = SpherePoint(1.0, 0.0, 0.0)
E2 = SpherePoint(0.0, 1.0, 0.0)
E3 = SpherePoint(0.0, 0.0, 1.0)

P_LIN = grassmann_field(ChiVariant.ODD_LINEAR)
P_HARM = grassmann_field(ChiVariant.ODD_HARMONIC)

# Each linear line field |Cx><Cx| with its isometry C.
_LINEAR_FIELDS = {
    "odd-linear": (P_LIN, np.eye(3)),
    "odd-harmonic": (P_HARM, CHI_HARMONIC),
    **{
        f"moved-line-{m}": (exchange_line_field(m), block_matrix(m) @ CHI_HARMONIC)
        for m in TRIPLET_MS
    },
}


def _rate_reference(c, xs, vs):
    """Pdot = |Cv><Cx| + |Cx><Cv| of the line field |Cx><Cx| along a curve."""
    u, du = xs @ c.T, vs @ c.T
    outer = du[..., :, None] * u.conj()[..., None, :]
    return outer + np.swapaxes(outer, -1, -2).conj()


def quarter_circle():
    def pos(t):
        ang = 0.5 * np.pi * np.asarray(t, dtype=float)
        return np.stack([np.cos(ang), np.sin(ang), np.zeros_like(ang)], axis=-1)

    def vel(t):
        ang = 0.5 * np.pi * np.asarray(t, dtype=float)
        return 0.5 * np.pi * np.stack([-np.sin(ang), np.cos(ang), np.zeros_like(ang)], axis=-1)

    return Curve(pos, vel, "quarter")


def test_curve_factories_validate():
    # Each factory stays on the unit sphere; its endpoints say how it closes.
    ts = np.linspace(0.0, 1.0, 33)
    closed = (great_circle(E1, E3), small_circle(E3, 0.3), constant_curve(E2))
    for c in closed + (antipodal_arc(E1, E3),):
        assert np.abs(np.linalg.norm(c.position(ts), axis=1) - 1.0).max() < 1e-15
    for c in closed:
        assert np.linalg.norm(c(1.0) - c(0.0)) < 1e-15
    arc = antipodal_arc(E1, E3)
    assert np.linalg.norm(arc(1.0) + arc(0.0)) < 1e-15
    with pytest.raises(GeometryError):
        antipodal_arc(E1, E1)
    with pytest.raises(GeometryError):
        small_circle(E3, 2.0)


def test_constant_curve_transport_is_exact():
    v0 = chi(ChiVariant.ODD_LINEAR, E3)
    out = parallel_transport(P_LIN, constant_curve(E3), v0, 64)
    assert np.array_equal(out, v0)


def test_quarter_circle_transport_oracle():
    # the fiber is spanned by x(t) itself and the coefficient is constant,
    # so transporting chi(e1) along e1 -> e2 must give chi(e2)
    v0 = chi(ChiVariant.ODD_LINEAR, E1)
    v1 = parallel_transport(P_LIN, quarter_circle(), v0, 4096)
    assert np.linalg.norm(v1 - chi(ChiVariant.ODD_LINEAR, E2)) < 1e-8
    assert abs(np.linalg.norm(v1) - 1.0) < 1e-8
    # integration oracle: doubling the steps does not move the answer
    v1b = parallel_transport(P_LIN, quarter_circle(), v0, 8192)
    assert np.linalg.norm(v1 - v1b) < 1e-8


def test_transport_linearity():
    v0 = chi(ChiVariant.ODD_LINEAR, E1)
    lam = 2.0 - 1.0j
    a = parallel_transport(P_LIN, quarter_circle(), lam * v0, 512)
    b = lam * parallel_transport(P_LIN, quarter_circle(), v0, 512)
    assert np.abs(a - b).max() < 1e-10


def test_transport_rejects_bad_input():
    v0 = chi(ChiVariant.ODD_LINEAR, E1)
    with pytest.raises(GeometryError):
        parallel_transport(P_LIN, quarter_circle(), v0, 8)
    with pytest.raises(GeometryError, match="steps must be at most 65536"):
        parallel_transport(P_LIN, quarter_circle(), v0, MAX_STEPS + 1)
    with pytest.raises(FiberMembershipError):
        parallel_transport(P_LIN, quarter_circle(), np.array([0.0, 0.0, 1.0]), 64)


def test_transport_keeps_moving_fiber():
    arc = antipodal_arc(E1, E3)
    v0 = chi(ChiVariant.ODD_LINEAR, E1)
    ts, path = parallel_transport(P_LIN, arc, v0, 512, return_path=True)
    ps = P_LIN.evaluate(arc.position(ts))
    residual = np.linalg.norm(path - np.einsum("tij,tj->ti", ps, path), axis=1).max()
    assert residual < 1e-8
    norms = np.linalg.norm(path, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-8


def test_covariant_derivative_residual_along_path():
    # P dv/dt ~ 0 along the trajectory (finite differences on the dense path)
    arc = antipodal_arc(E1, E3)
    v0 = chi(ChiVariant.ODD_LINEAR, E1)
    ts, path = parallel_transport(P_LIN, arc, v0, 2048, return_path=True)
    dv = (path[2:] - path[:-2]) * (2048 / 2.0)
    ps = P_LIN.evaluate(arc.position(ts[1:-1]))
    covariant = np.einsum("tij,tj->ti", ps, dv)
    assert np.linalg.norm(covariant, axis=1).max() < 1e-4  # central FD truncation


def test_holonomy_contractible_loops():
    assert abs(holonomy(P_LIN, small_circle(E3, 0.3), 4096) - 1.0) < 1e-6
    assert abs(holonomy(P_LIN, great_circle(E1, E3), 4096) - 1.0) < 1e-6


def test_holonomy_antipodal_loops_give_minus_one():
    for arc in (antipodal_arc(E1, E3), antipodal_arc(E1, E2), antipodal_arc(E2, E3)):
        h = holonomy(P_LIN, arc, 4096)
        assert abs(h + 1.0) < 1e-6


def test_holonomy_gauge_independent():
    for curve in (antipodal_arc(E1, E3), small_circle(E3, 0.5)):
        h1 = holonomy(P_LIN, curve, 2048)
        h2 = holonomy(P_HARM, curve, 2048)
        assert abs(h1 - h2) < 1e-6


def test_holonomy_trivial_bundle_exact():
    frame = np.array([0.6, 0.0, 0.8], dtype=complex)
    field = constant_projector_field(np.outer(frame, frame))
    assert holonomy(field, antipodal_arc(E1, E3), 64) == 1.0
    assert flatness_report(field, [small_circle(E3, 0.4)], 64) == 0.0


def test_holonomy_squared_loop_trivial():
    v0 = chi(ChiVariant.ODD_LINEAR, E1)
    va = parallel_transport(P_LIN, antipodal_arc(E1, E3), v0, 4096)
    va = P_LIN.evaluate(-E1.vec) @ va
    vb = parallel_transport(P_LIN, antipodal_arc(-E1.vec, E2), va, 4096)
    h = complex(np.vdot(v0, vb))
    assert abs(h - 1.0) < 1e-6


def test_holonomy_reversal_conjugate():
    arc = antipodal_arc(E1, E3)
    h = holonomy(P_LIN, arc, 2048)
    h_rev = holonomy(P_LIN, reverse(arc), 2048)
    assert abs(h_rev - np.conj(h)) < 1e-6


def test_holonomy_requires_loop_and_rank_one():
    with pytest.raises(GeometryError):
        holonomy(P_LIN, quarter_circle(), 64)
    # a constant field must be a rank-1 orthogonal projector when it is built
    a, b = np.array([0.6, 0.8, 0.0]), np.array([0.8, 0.6, 0.0])
    for not_a_line in (np.eye(3, dtype=complex), np.zeros((3, 3)), np.outer(a, b)):
        with pytest.raises(GeometryError):
            constant_projector_field(not_a_line)


def test_flatness_report_family():
    loops = [small_circle(E3, r) for r in (0.2, 0.5, 0.9)] + [great_circle(E1, E2)]
    assert flatness_report(P_LIN, loops, 2048) < 1e-6
    with pytest.raises(GeometryError):
        flatness_report(P_LIN, [antipodal_arc(E1, E3)], 64)


def test_step_doubling_reduces_error_fourth_order():
    arc = antipodal_arc(E1, E3)
    err_64 = abs(holonomy(P_LIN, arc, 64) + 1.0)
    err_128 = abs(holonomy(P_LIN, arc, 128) + 1.0)
    assert err_64 / err_128 >= 8.0


def test_finite_difference_rate_matches_analytic():
    arc = antipodal_arc(E1, E3)
    ts = np.linspace(0.0, 1.0, 17)
    xs, vs = arc.position(ts), arc.velocity(ts)
    dt = 1e-6
    for name in ["odd-harmonic"] + [f"moved-line-{m}" for m in TRIPLET_MS]:
        field, c = _LINEAR_FIELDS[name]
        analytic = _rate_reference(c, xs, vs)
        fd = (field.evaluate(arc.position(ts + dt)) - field.evaluate(arc.position(ts - dt))) / (
            2 * dt
        )
        assert np.abs(analytic - fd).max() < 1e-8


def test_linear_line_field_requires_isometry():
    with pytest.raises(GeometryError):
        linear_line_field(2.0 * np.eye(3), "stretched")
    with pytest.raises(GeometryError):
        linear_line_field(np.eye(3)[:, :2], "too-narrow")
    with pytest.raises(GeometryError):
        linear_line_field(np.full((3, 3), np.nan), "not-a-number")


def test_holonomy_rejects_mislabelled_half_arc():
    # Half an antipodal arc ends a quarter turn from its start: no loop,
    # whatever it is called.
    half = restrict(antipodal_arc(E1, E3), 0.0, 0.5)
    mislabelled = Curve(half.position, half.velocity, "antipodal-arc")
    for curve in (half, mislabelled):
        with pytest.raises(GeometryError, match="no loop"):
            holonomy(P_LIN, curve, 1024)
        with pytest.raises(GeometryError, match="closed on the sphere"):
            flatness_report(P_LIN, [curve], 1024)


def test_half_great_circle_is_an_antipodal_loop():
    # Built as an open piece of a great circle, it ends at the antipode of its
    # start and so descends to the noncontractible loop.
    half = restrict(great_circle(E1, E3), 0.0, 0.5)
    assert abs(holonomy(grassmann_field(), half, 4096) + 1.0) < 1e-6
    with pytest.raises(GeometryError):
        flatness_report(P_LIN, [half], 64)


def _wobbly_great_circle():
    """The great circle through e1 and e3 scaled by 1 + 0.01 sin(pi t): off the sphere inside."""
    g = great_circle(E1, E3)

    def pos(t):
        t = np.asarray(t, dtype=float)
        return (1.0 + 0.01 * np.sin(np.pi * t))[..., None] * g.position(t)

    def vel(t):
        t = np.asarray(t, dtype=float)
        scale = 1.0 + 0.01 * np.sin(np.pi * t)
        rate = 0.01 * np.pi * np.cos(np.pi * t)
        return rate[..., None] * g.position(t) + scale[..., None] * g.velocity(t)

    return Curve(pos, vel, "wobbly")


def test_curve_off_the_sphere_is_refused():
    curve = _wobbly_great_circle()
    assert np.linalg.norm(curve(1.0) - curve(0.0)) < ENDPOINT_TOL
    with pytest.raises(GeometryError, match="leaves the unit sphere"):
        holonomy(P_LIN, curve, 64)
    v0 = chi(ChiVariant.ODD_LINEAR, E1)
    with pytest.raises(GeometryError, match="leaves the unit sphere"):
        parallel_transport(P_LIN, curve, v0, 64)
    with pytest.raises(GeometryError, match="leaves the unit sphere"):
        parallel_transport(P_LIN, restrict(curve, 0.0, 0.25), v0, 64)


def _with_nan(curve, bad):
    """The curve with its position NaN wherever bad(t) holds."""

    def pos(t):
        t = np.asarray(t, dtype=float)
        return np.where(bad(t)[..., None], np.nan, curve.position(t))

    return Curve(pos, curve.velocity, f"nan[{curve.name}]")


def test_nan_curve_is_refused():
    v0 = chi(ChiVariant.ODD_LINEAR, E1)
    everywhere = _with_nan(great_circle(E1, E3), lambda t: np.ones(t.shape, dtype=bool))
    with pytest.raises(GeometryError, match="no loop"):
        holonomy(P_LIN, everywhere, 64)
    with pytest.raises(FiberMembershipError):
        parallel_transport(P_LIN, everywhere, v0, 64)
    # NaN at one interior node only: both endpoints are fine, the path is not.
    inside = _with_nan(great_circle(E1, E3), lambda t: t == 0.5)
    assert np.linalg.norm(inside(1.0) - inside(0.0)) < ENDPOINT_TOL
    with pytest.raises(GeometryError, match="leaves the unit sphere"):
        holonomy(P_LIN, inside, 64)
    with pytest.raises(GeometryError, match="leaves the unit sphere"):
        parallel_transport(P_LIN, inside, v0, 64)
    at_end = _with_nan(antipodal_arc(E1, E3), lambda t: t == 1.0)
    with pytest.raises(GeometryError, match="no loop"):
        holonomy(P_LIN, at_end, 64)


def test_nan_fiber_at_the_end_is_refused():
    # The field's line is NaN near -e1, where the antipodal arc ends: the two
    # end fibers cannot be compared, so there is no holonomy.
    def vector(xs):
        xs = np.asarray(xs, dtype=float)
        return np.where((xs[..., 0] < -0.5)[..., None], np.nan, xs).astype(complex)

    field = ProjectorField(vector, lambda xs, vs: np.asarray(vs, dtype=complex), name="nan-near-minus-e1")
    with pytest.raises(GeometryError, match="fiber lines"):
        holonomy(field, antipodal_arc(E1, E3), 64)


@pytest.mark.parametrize(
    "build",
    [
        lambda bad: antipodal_arc(E1, bad),
        lambda bad: antipodal_arc(bad, E3),
        lambda bad: great_circle(bad, E3),
        lambda bad: small_circle(bad, 0.3),
    ],
)
@pytest.mark.parametrize("bad", [[np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0], [0.0, 0.0, 0.0]])
def test_curve_builders_refuse_zero_and_non_finite_directions(build, bad):
    with pytest.raises(GeometryError):
        build(bad)


def test_holonomy_rejects_field_with_different_antipodal_fibers():
    # the line through x + 2 e3 is a smooth rank-1 field on the sphere, but
    # its fibers at x and -x differ, so an antipodal arc is no loop for it
    shift = 2.0 * E3.vec

    def spanning(xs):
        w = np.asarray(xs, dtype=float) + shift
        return w / np.linalg.norm(w, axis=-1, keepdims=True), np.linalg.norm(w, axis=-1)

    def du(xs, vs):
        u, n = spanning(xs)
        return (vs - np.sum(u * vs, axis=-1, keepdims=True) * u) / n[..., None]

    lopsided = ProjectorField(lambda xs: spanning(xs)[0], du, name="shifted-line")
    with pytest.raises(GeometryError):
        holonomy(lopsided, antipodal_arc(E1, E2), 256)
    # a loop closed on the sphere ends on its own fiber and stays allowed
    assert abs(holonomy(lopsided, great_circle(E1, E2), 1024) - 1.0) < 1e-6


def test_restrict_ends_at_its_sub_interval():
    half = restrict(great_circle(E1, E3), 0.0, 0.5)
    assert np.linalg.norm(half(0.0) - E1.vec) < 1e-12
    assert np.linalg.norm(half(1.0) + E1.vec) < 1e-12


def _warp(t):
    return t + 0.1 * np.sin(2 * np.pi * t)


def _warp_rate(t):
    return 1.0 + 0.2 * np.pi * np.cos(2 * np.pi * t)


def test_reparametrize_keeps_image():
    g = great_circle(E1, E3)
    warped = reparametrize(g, _warp, _warp_rate)
    assert np.array_equal(warped(0.0), g(0.0)) and np.array_equal(warped(1.0), g(1.0))
    ts = np.linspace(0, 1, 33)
    assert np.array_equal(warped.position(ts), g.position(_warp(ts)))


_TILTED = SpherePoint.from_direction([1.0, 1.0, 1.0])

# Every curve factory and combinator, each with a nontrivial frame or speed.
_CURVES = {
    "great-circle": lambda: great_circle([1.0, 2.0, 0.5], [0.3, -1.0, 2.0]),
    "antipodal-arc": lambda: antipodal_arc(_TILTED, E2),
    "small-circle": lambda: small_circle(_TILTED, 0.7),
    "constant": lambda: constant_curve(_TILTED),
    "restrict": lambda: restrict(small_circle(E1, 1.1), 0.2, 0.7),
    "reverse": lambda: reverse(antipodal_arc(E1, E3)),
    "reparametrize": lambda: reparametrize(great_circle(E1, E3), _warp, _warp_rate),
}


@pytest.mark.parametrize("curve_name", sorted(_CURVES))
def test_velocity_matches_central_difference(curve_name):
    curve = _CURVES[curve_name]()
    ts = np.linspace(0.0, 1.0, 33)
    dt = 1e-6
    fd = (curve.position(ts + dt) - curve.position(ts - dt)) / (2 * dt)
    analytic = curve.velocity(ts)
    assert analytic.shape == fd.shape == (33, 3)
    assert np.abs(analytic - fd).max() < 1e-6


def test_circle_factories_keep_their_closed_forms():
    # The closed forms each factory wrote out before they shared one circle
    # builder; positions and velocities must agree bit for bit.
    ts = np.linspace(-0.25, 1.25, 97)

    def arc(u, w, span):
        ang = span * ts
        pos = np.cos(ang)[..., None] * u + np.sin(ang)[..., None] * w
        vel = span * (-np.sin(ang)[..., None] * u + np.cos(ang)[..., None] * w)
        return pos, vel

    def small(c, radius):
        c = c / np.linalg.norm(c)
        seed = np.array([1.0, 0.0, 0.0]) if abs(c[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        a = np.cross(c, seed)
        a /= np.linalg.norm(a)
        b = np.cross(c, a)
        cr, sr = np.cos(radius), np.sin(radius)
        ang = 2.0 * np.pi * ts
        pos = cr * c + sr * (np.cos(ang)[..., None] * a + np.sin(ang)[..., None] * b)
        vel = 2.0 * np.pi * sr * (-np.sin(ang)[..., None] * a + np.cos(ang)[..., None] * b)
        return pos, vel

    cases = []
    for u, w in ((E1.vec, E3.vec), ([1.0, 2.0, 0.5], [0.3, -1.0, 2.0])):
        fu, fw = _frame(u, w)
        cases.append((great_circle(u, w), arc(fu, fw, 2.0 * np.pi)))
        cases.append((antipodal_arc(u, w), arc(fu, fw, np.pi)))
    for center, radius in ((E3.vec, 0.5), (E1.vec, 0.3), (_TILTED.vec, 1.1)):
        cases.append((small_circle(center, radius), small(np.asarray(center), radius)))
    for curve, (pos, vel) in cases:
        assert np.array_equal(curve.position(ts), pos), curve.name
        assert np.array_equal(curve.velocity(ts), vel), curve.name


_LOOP_FIELDS = {name: field for name, (field, _) in _LINEAR_FIELDS.items()}

_POLAR = st.one_of(
    st.sampled_from([0.0, np.pi]),
    st.floats(0.0, 1e-9),
    st.floats(np.pi - 1e-9, np.pi),
    st.floats(0.0, np.pi),
)


def _frame_at(x, spin):
    """Right-handed orthonormal frame (x, a, b), with (a, b) turned by spin about x."""
    seed = E1.vec if abs(x[0]) < 0.9 else E2.vec
    a = np.cross(x, seed)
    a /= np.linalg.norm(a)
    b = np.cross(x, a)
    return np.stack([x, np.cos(spin) * a + np.sin(spin) * b, np.cos(spin) * b - np.sin(spin) * a], axis=1)


def _rotated(curve, rot):
    return Curve(
        lambda t: curve.position(t) @ rot.T,
        lambda t: curve.velocity(t) @ rot.T,
        f"rotated[{curve.name}]",
    )


def _started_at(curve, start, spin):
    """The curve rotated to begin at start, with a turn by spin about it."""
    return _rotated(curve, _frame_at(start, spin) @ _frame_at(curve(0.0), 0.0).T)


@pytest.mark.parametrize("field_name", sorted(_LOOP_FIELDS))
@settings(max_examples=20, deadline=None)
@given(
    theta=_POLAR,
    phi=st.floats(0.0, 2 * np.pi),
    spin=st.floats(0.0, 2 * np.pi),
    radius=st.floats(0.05, np.pi / 2 - 0.05),
)
def test_holonomy_of_rotated_loops(field_name, theta, phi, spin, radius):
    # Each loop is rotated so that it starts at the drawn point, with a
    # random turn about it: antipodal arcs give -1, closed loops +1.
    field = _LOOP_FIELDS[field_name]
    start = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    for curve, expected in (
        (antipodal_arc(E1, E3), -1.0),
        (great_circle(E1, E2), 1.0),
        (small_circle(E3, radius), 1.0),
    ):
        loop = _started_at(curve, start, spin)
        assert np.linalg.norm(loop(0.0) - start) < 1e-12
        assert abs(holonomy(field, loop, 1024) - expected) < 1e-6


def _rotated_loops(starts):
    """Antipodal arc, great circle and small circle, each turned to begin at every start."""
    for start, spin in starts:
        for curve in (antipodal_arc(E1, E3), great_circle(E1, E2), small_circle(E3, 0.5)):
            yield _started_at(curve, start, spin)


_POLE_STARTS = [
    (np.array([0.0, 0.0, 1.0]), 0.3),
    (np.array([1e-10, -5e-10, 1.0]), 2.1),
    (np.array([-4e-10, 3e-10, -1.0]), 4.4),
]


@pytest.mark.parametrize("field_name", ["odd-harmonic"] + [f"moved-line-{m}" for m in TRIPLET_MS])
def test_generator_grid_matches_commutator(field_name):
    # The frame factors multiply out to [Pdot, P] at every node:
    # f @ g^H = |w><u| - |u><w|.
    field, c = _LINEAR_FIELDS[field_name]
    starts = _POLE_STARTS + [(np.array([0.48, 0.6, 0.64]), 1.0)]
    for curve in _rotated_loops(starts):
        f, g = _generator_factors(*_horizontal_frame(field, curve, 64))
        assert f.shape == g.shape == (129, c.shape[0], 2)
        ts = np.linspace(0.0, 1.0, 129)
        xs, vs = curve.position(ts), curve.velocity(ts)
        u = xs @ c.T
        p = u[..., :, None] * u.conj()[..., None, :]
        pdot = _rate_reference(c, xs, vs)
        gen = f @ g.conj().swapaxes(-1, -2)
        assert np.abs(gen - (pdot @ p - p @ pdot)).max() < 1e-14


def test_constant_field_factors_have_zero_rate():
    # A constant line does not move: w = 0 exactly, so the generator and every
    # RK4 increment vanish and the transport returns its start bit for bit.
    u = np.array([0.6, 0.0, 0.8j])
    field = constant_projector_field(np.outer(u, u.conj()))
    curve = great_circle(E1, E2)
    f, g = _generator_factors(*_horizontal_frame(field, curve, 64))
    assert np.array_equal(f[..., 0], np.zeros((129, 3)))
    assert np.array_equal(g[..., 1], np.zeros((129, 3)))
    v0 = field.frame(curve.point(0.0))
    _, path = parallel_transport(field, curve, v0, 64, return_path=True)
    assert np.array_equal(path, np.broadcast_to(v0, path.shape))


def test_phase_twisted_frame_transports_like_its_line():
    # e^{i x3} x spans the line of x; the phase turn <u|du> u of its rate is
    # no motion of the line and must not enter the generator.
    def vector(xs):
        xs = np.asarray(xs, dtype=float)
        return np.exp(1j * xs[..., 2])[..., None] * xs

    def vector_rate(xs, vs):
        xs, vs = np.asarray(xs, dtype=float), np.asarray(vs, dtype=float)
        return np.exp(1j * xs[..., 2])[..., None] * (vs + 1j * vs[..., 2:3] * xs)

    twisted = ProjectorField(vector, vector_rate, name="twisted-line")
    start = SpherePoint(0.6, 0.0, 0.8)
    arc = antipodal_arc(start, E2)
    assert abs(holonomy(twisted, arc, 1024) + 1.0) < 1e-6
    open_arc = restrict(arc, 0.0, 0.6)
    v0 = chi(ChiVariant.ODD_LINEAR, start)
    _, path = parallel_transport(twisted, open_arc, v0, 1024, return_path=True)
    _, reference = parallel_transport(grassmann_field(), open_arc, v0, 1024, return_path=True)
    assert np.abs(path - reference).max() < 1e-12


def _oracle_errors(field, c, curve):
    # The generator sends Cx to C xdot (x . xdot = 0 and C^H C = 1), so the
    # transport of Cx(0) is exactly Cx(t); worst path error per step count.
    errors = []
    for steps in (64, 128, 256, 512):
        ts, path = parallel_transport(field, curve, c @ curve(0.0), steps, return_path=True)
        errors.append(np.linalg.norm(path - curve.position(ts) @ c.T, axis=-1).max())
    return np.array(errors)


@pytest.mark.parametrize("field_name", ["odd-linear", "odd-harmonic", "moved-line-1"])
def test_transport_matches_linear_frame_oracle(field_name):
    field, c = _LINEAR_FIELDS[field_name]
    for curve in _rotated_loops(_POLE_STARTS):
        errors = _oracle_errors(field, c, curve)
        assert errors[-1] < 1e-8
        assert np.all(errors[:-1] / errors[1:] >= 12.0)


def _fixed_line():
    # The constant field of run_suite's holonomy.trivial-bundle check.
    frame = np.array([0.6, 0.48j, 0.64], dtype=complex)
    frame /= np.linalg.norm(frame)
    return constant_projector_field(np.outer(frame, frame.conj()), "fixed-line")


_CONSTANT_FIELDS = {
    "singlet": singlet_field(),
    "constant-line": constant_projector_field(np.outer([0.6, 0.0, 0.8j], [0.6, 0.0, -0.8j])),
    "fixed-line": _fixed_line(),
}


@pytest.mark.parametrize("steps", [16, 256, 4096])
@pytest.mark.parametrize("name", sorted(_CONSTANT_FIELDS))
def test_vanishing_connection_path_matches_the_kernel(name, steps):
    # w = 0 at every node, so every RK4 increment is exactly zero and the
    # constant path the transport returns is the kernel's, bit for bit.
    field = _CONSTANT_FIELDS[name]
    curve = antipodal_arc(SpherePoint(0.6, 0.0, 0.8), E2)
    v0 = field.frame(curve.point(0.0))
    u, w = _horizontal_frame(field, curve, steps)
    assert not w.any()
    reference = rk4_transport_path(*_generator_factors(u, w), 1.0 / steps, v0)
    ts, path = parallel_transport(field, curve, v0, steps, return_path=True)
    assert ts.shape == (steps + 1,)
    assert path.shape == reference.shape and path.dtype == reference.dtype
    assert path.tobytes() == reference.tobytes()
    assert parallel_transport(field, curve, v0, steps).tobytes() == reference[-1].tobytes()
    path[...] = 0.0  # writable, and not a view of v0
    assert v0.tobytes() == reference[0].tobytes()


def _raising_kernel(*args):
    raise AssertionError("the RK4 kernel was reached")


@pytest.mark.parametrize("name", sorted(_CONSTANT_FIELDS))
def test_vanishing_connection_skips_the_kernel(monkeypatch, name):
    monkeypatch.setattr(transport, "rk4_transport_path", _raising_kernel)
    field = _CONSTANT_FIELDS[name]
    for curve in (antipodal_arc(E1, E3), great_circle(E2, E3), small_circle(E3, 0.4)):
        assert holonomy(field, curve, 64) == 1.0


@pytest.mark.parametrize("field", [P_LIN] + [exchange_line_field(m) for m in TRIPLET_MS])
def test_moving_lines_reach_the_kernel(monkeypatch, field):
    monkeypatch.setattr(transport, "rk4_transport_path", _raising_kernel)
    with pytest.raises(AssertionError, match="kernel was reached"):
        holonomy(field, antipodal_arc(E1, E3), 64)


@pytest.mark.parametrize("name", sorted(_CONSTANT_FIELDS))
def test_vanishing_connection_keeps_every_guard(monkeypatch, name):
    monkeypatch.setattr(transport, "rk4_transport_path", _raising_kernel)
    field = _CONSTANT_FIELDS[name]
    arc = antipodal_arc(E1, E3)
    v0 = field.frame(E1)
    n = v0.shape[0]
    with pytest.raises(GeometryError, match="at least"):
        parallel_transport(field, arc, v0, MIN_STEPS - 1)
    with pytest.raises(GeometryError, match="at most"):
        parallel_transport(field, arc, v0, MAX_STEPS + 1)
    off_fiber = np.roll(v0, 1) - v0
    with pytest.raises(FiberMembershipError):
        parallel_transport(field, arc, off_fiber, 64)
    for bad_shape in (np.ones(n + 1), v0[None, :], v0[:, None]):
        with pytest.raises(FiberMembershipError, match="shape"):
            parallel_transport(field, arc, bad_shape, 64)
    with pytest.raises(GeometryError, match="leaves the unit sphere"):
        parallel_transport(field, _wobbly_great_circle(), field.frame(E1), 64)
    with pytest.raises(GeometryError, match="leaves the unit sphere"):
        holonomy(field, _wobbly_great_circle(), 64)
    with pytest.raises(GeometryError, match="no loop"):
        holonomy(field, restrict(arc, 0.0, 0.5), 64)


@pytest.mark.parametrize("scale", [1e-13, 1e-300, 1e300])
def test_frame_tests_parallelism_relative_to_w(scale):
    # An exactly perpendicular w of any finite size spans the circle's plane.
    ts = np.linspace(0.0, 1.0, 33)
    arc = antipodal_arc(E1, [0.0, scale, 0.0])
    assert np.array_equal(arc.position(ts), antipodal_arc(E1, E2).position(ts))
    # 1e-13 rad from parallel is parallel at every size of w.
    for tilt in (1e-13, 1e-14):
        with pytest.raises(GeometryError, match="parallel"):
            antipodal_arc(E1, [scale, tilt * scale, 0.0])
    for bad in ([0.0, 0.0, 0.0], [-0.0, 0.0, 0.0], [np.nan, scale, 0.0], [np.inf, scale, 0.0]):
        with pytest.raises(GeometryError, match="parallel"):
            antipodal_arc(E1, bad)


def test_frame_keeps_ordinary_inputs_bit_for_bit(rng):
    for u, w in rng.standard_normal((200, 2, 3)):
        uu = u / np.linalg.norm(u)
        ww = w - (w @ uu) * uu
        fu, fw = _frame(u, w)
        assert np.array_equal(fu, uu) and np.array_equal(fw, ww / np.linalg.norm(ww))
