import numpy as np
import pytest

from spinbundles.berry_robbins import TRIPLET_MS, exchange_line_field
from spinbundles.config_space import SpherePoint
from spinbundles.errors import FiberMembershipError, GeometryError
from spinbundles.line_bundle import ChiVariant, chi
from spinbundles.transport import (
    Closure,
    Curve,
    ProjectorField,
    antipodal_arc,
    concatenate,
    constant_curve,
    constant_projector_field,
    flatness_report,
    grassmann_field,
    great_circle,
    holonomy,
    linear_line_field,
    parallel_transport,
    reparametrize,
    restrict,
    reverse,
    small_circle,
)

E1 = SpherePoint(1.0, 0.0, 0.0)
E2 = SpherePoint(0.0, 1.0, 0.0)
E3 = SpherePoint(0.0, 0.0, 1.0)

P_LIN = grassmann_field(ChiVariant.ODD_LINEAR)
P_HARM = grassmann_field(ChiVariant.ODD_HARMONIC)


def quarter_circle():
    def pos(t):
        ang = 0.5 * np.pi * np.asarray(t, dtype=float)
        return np.stack([np.cos(ang), np.sin(ang), np.zeros_like(ang)], axis=-1)

    def vel(t):
        ang = 0.5 * np.pi * np.asarray(t, dtype=float)
        return 0.5 * np.pi * np.stack([-np.sin(ang), np.cos(ang), np.zeros_like(ang)], axis=-1)

    return Curve(pos, vel, Closure.OPEN, "quarter")


def test_curve_factories_validate():
    for c in (
        great_circle(E1, E3),
        antipodal_arc(E1, E3),
        small_circle(E3, 0.3),
        constant_curve(E2),
    ):
        c.validate()
    assert great_circle(E1, E3).closure is Closure.CLOSED_ON_SPHERE
    assert antipodal_arc(E1, E3).closure is Closure.ANTIPODAL
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
    lopsided = constant_projector_field(np.eye(3, dtype=complex))
    with pytest.raises(GeometryError):
        holonomy(lopsided, great_circle(E1, E3), 64)


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
    xs, vs = arc.position(ts), arc.velocities(ts)
    dt = 1e-6
    for field in [P_HARM] + [exchange_line_field(m) for m in TRIPLET_MS]:
        analytic = field.rate(xs, vs)
        fd = (field.evaluate(arc.position(ts + dt)) - field.evaluate(arc.position(ts - dt))) / (
            2 * dt
        )
        assert np.abs(analytic - fd).max() < 1e-8


def test_linear_line_field_requires_isometry():
    with pytest.raises(GeometryError):
        linear_line_field(2.0 * np.eye(3), "stretched")
    with pytest.raises(GeometryError):
        linear_line_field(np.eye(3)[:, :2], "too-narrow")


def test_holonomy_rejects_mislabelled_half_arc():
    half = restrict(antipodal_arc(E1, E3), 0.0, 0.5)
    mislabelled = Curve(half.position, half.velocity, Closure.ANTIPODAL, "half-arc")
    with pytest.raises(GeometryError):
        holonomy(P_LIN, mislabelled, 1024)


def test_holonomy_rejects_field_with_different_antipodal_fibers():
    # the line through x + 2 e3 is a smooth rank-1 field on the sphere, but
    # its fibers at x and -x differ, so an antipodal arc is no loop for it
    shift = 2.0 * E3.vec

    def spanning(xs):
        w = np.asarray(xs, dtype=float) + shift
        return w / np.linalg.norm(w, axis=-1, keepdims=True), np.linalg.norm(w, axis=-1)

    def ev(xs):
        u, _ = spanning(xs)
        return (u[..., :, None] * u[..., None, :]).astype(complex)

    def rate(xs, vs):
        u, n = spanning(xs)
        du = (vs - np.sum(u * vs, axis=-1, keepdims=True) * u) / n[..., None]
        outer = du[..., :, None] * u[..., None, :]
        return (outer + np.swapaxes(outer, -1, -2)).astype(complex)

    lopsided = ProjectorField(ev, rate, name="shifted-line")
    with pytest.raises(GeometryError):
        holonomy(lopsided, antipodal_arc(E1, E2), 256)
    # a loop closed on the sphere ends on its own fiber and stays allowed
    assert abs(holonomy(lopsided, great_circle(E1, E2), 1024) - 1.0) < 1e-6


def test_concatenate_and_restrict():
    left = antipodal_arc(E1, E3)
    right = antipodal_arc(-E1.vec, -E3.vec)  # continues the same great circle
    loop = concatenate(left, right)
    assert loop.closure is Closure.CLOSED_ON_SPHERE
    loop.validate()
    assert abs(holonomy(P_LIN, loop, 4096) - 1.0) < 1e-6

    half = restrict(great_circle(E1, E3), 0.0, 0.5)
    assert np.linalg.norm(half(1.0) + E1.vec) < 1e-12
    with pytest.raises(GeometryError):
        concatenate(left, left)


def test_reparametrize_keeps_image():
    g = great_circle(E1, E3)
    warped = reparametrize(
        g,
        lambda t: t + 0.1 * np.sin(2 * np.pi * t),
        lambda t: 1.0 + 0.2 * np.pi * np.cos(2 * np.pi * t),
    )
    warped.validate()
    assert warped.closure is Closure.CLOSED_ON_SPHERE
    ts = np.linspace(0, 1, 33)
    analytic = warped.velocities(ts)
    fd = (warped.position(ts + 1e-6) - warped.position(ts - 1e-6)) / 2e-6
    assert np.abs(analytic - fd).max() < 1e-6
