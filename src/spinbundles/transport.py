"""Parallel transport for projector-valued connections and loop holonomy.

A line field P = |u><u| on the sphere (a line_bundle.ProjectorField)
defines a connection on the line sub-bundle it spans (covariant derivative
= P d).  Each curve carries its position and its analytic velocity, and each
field carries its fiber frame u(x) and the frame's rate du/dt along a curve.
Transport along a curve solves dv/dt = [Pdot, P] v from a start vector that
the field's fiber_coordinate accepts, over positions on the unit sphere.
The generator is |w><u| - |u><w|, with w = du - <u|du> u the horizontal part
of du; the RK4 kernel is handed u and w at every node and midpoint and never
forms the generator as an n x n matrix.  Where w vanishes at every node the
connection is zero, and transport returns its start without integrating.
The commutator form keeps v in the moving fiber and, because the generator
is anti-Hermitian, preserves the norm.  For even fields the fiber lines over
x and -x coincide, so curves that close on the sphere and curves that end at
the antipode both descend to loops downstairs, and the holonomy is the ratio
of the fiber coordinates before and after.  A curve is only its path:
holonomy reads whether and how it closes from its endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config_space import SPHERE_TOL, SpherePoint, _pow2_scaled
from .errors import GeometryError
from .kernels import rk4_transport_path
from .line_bundle import ProjectorField
from .line_bundle import constant_projector_field, grassmann_field  # noqa: F401  re-exported

DEFAULT_STEPS = 4096
MIN_STEPS = 16
MAX_STEPS = 65536  # bounds the frame arrays, 2 * steps + 1 nodes
ENDPOINT_TOL = 1e-10  # how far a loop's end may be from its start or its antipode


@dataclass(frozen=True)
class Curve:
    """A smooth path t in [0, 1] -> S2: vectorized position and its analytic velocity."""

    position: Callable[[np.ndarray], np.ndarray]
    velocity: Callable[[np.ndarray], np.ndarray]
    name: str = "curve"

    def __call__(self, t):
        if np.isscalar(t):
            return self.position(np.asarray([t], dtype=float))[0]
        return self.position(np.asarray(t, dtype=float))

    def point(self, t: float) -> SpherePoint:
        return SpherePoint.from_vec(self(float(t)))


def _unit(v) -> np.ndarray:  # refuses zero and non-finite directions
    return SpherePoint.from_direction(v.vec if isinstance(v, SpherePoint) else v).vec


def _frame(u, w) -> tuple[np.ndarray, np.ndarray]:
    u = _unit(u)
    # Scaled so that its largest entry is in [1, 2): the parallelism test is
    # relative to |w|, and a zero w stays zero and fails it.
    w = _pow2_scaled(w.vec if isinstance(w, SpherePoint) else np.asarray(w, dtype=float))
    with np.errstate(invalid="ignore"):  # an infinite w turns NaN here and fails below
        w = w - (w @ u) * u
    n = np.linalg.norm(w)
    if not n >= 1e-12:
        raise GeometryError("second direction is parallel to the first, or not finite")
    return u, w / n


def _circle(c, cr: float, sr: float, a, b, span: float, name: str) -> Curve:
    """x(t) = cr c + sr (cos(span t) a + sin(span t) b), with its analytic velocity."""

    def pos(t):
        ang = span * np.asarray(t, dtype=float)
        return cr * c + sr * (np.cos(ang)[..., None] * a + np.sin(ang)[..., None] * b)

    def vel(t):
        ang = span * np.asarray(t, dtype=float)
        return span * sr * (-np.sin(ang)[..., None] * a + np.cos(ang)[..., None] * b)

    return Curve(pos, vel, name)


def great_circle(u, w) -> Curve:
    """Full great circle through u and (the component of) w, closed on the sphere."""
    u, w = _frame(u, w)
    return _circle(np.zeros(3), 0.0, 1.0, u, w, 2.0 * np.pi, "great-circle")


def antipodal_arc(u, w) -> Curve:
    """Half great circle from u to -u passing through w at the midpoint."""
    u, w = _frame(u, w)
    return _circle(np.zeros(3), 0.0, 1.0, u, w, np.pi, "antipodal-arc")


def small_circle(center, angular_radius: float) -> Curve:
    """Circle of the given angular radius around a center direction; contractible."""
    c = _unit(center)
    if not 0.0 < angular_radius < np.pi / 2:
        raise GeometryError("angular radius must lie in (0, pi/2)")
    seed = np.array([1.0, 0.0, 0.0]) if abs(c[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    a = np.cross(c, seed)
    a /= np.linalg.norm(a)
    b = np.cross(c, a)
    cr, sr = np.cos(angular_radius), np.sin(angular_radius)
    return _circle(c, cr, sr, a, b, 2.0 * np.pi, f"small-circle({angular_radius:g})")


def reverse(c: Curve) -> Curve:
    pos = lambda t: c.position(1.0 - np.asarray(t, dtype=float))
    vel = lambda t: -c.velocity(1.0 - np.asarray(t, dtype=float))
    return Curve(pos, vel, f"reversed[{c.name}]")


def restrict(c: Curve, t0: float, t1: float) -> Curve:
    """The sub-curve on [t0, t1], reparametrized to [0, 1]."""
    span = t1 - t0
    pos = lambda t: c.position(t0 + span * np.asarray(t, dtype=float))
    vel = lambda t: span * c.velocity(t0 + span * np.asarray(t, dtype=float))
    return Curve(pos, vel, f"{c.name}[{t0:g},{t1:g}]")


def reparametrize(c: Curve, warp, warp_rate) -> Curve:
    """Precompose the curve with a time warp [0,1] -> [0,1] (same image, new speed).

    warp_rate is the warp's derivative; the velocity follows by the chain rule.
    """
    pos = lambda t: c.position(warp(np.asarray(t, dtype=float)))

    def vel(t):
        t = np.asarray(t, dtype=float)
        return warp_rate(t)[..., None] * c.velocity(warp(t))

    return Curve(pos, vel, f"warped[{c.name}]")


def _horizontal_frame(
    field: ProjectorField, curve: Curve, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    # The fiber frame u and the horizontal part w = du - <u|du> u of its rate
    # at the 2*steps + 1 nodes and midpoints: the component <u|du> u only
    # turns the frame's phase, not the line.  Each has shape (2*steps + 1, n).
    ts = np.linspace(0.0, 1.0, 2 * steps + 1)
    xs = curve.position(ts)
    if not np.abs(np.einsum("ti,ti->t", xs, xs) - 1.0).max() <= SPHERE_TOL:
        raise GeometryError("curve leaves the unit sphere")
    u = field.vector(xs)
    du = field.vector_rate(xs, curve.velocity(ts))
    return u, du - np.sum(u.conj() * du, axis=-1, keepdims=True) * u


def parallel_transport(
    field: ProjectorField, curve: Curve, v0: np.ndarray, steps: int = DEFAULT_STEPS
) -> np.ndarray:
    """Transport v0 along the curve with the projector connection; the endpoint v(1).

    Solves dv/dt = [Pdot, P] v with fixed-step classical RK4.  v0 must lie in
    the fiber at the start point; the result stays in the moving fiber and
    keeps its norm up to the integration error.  Every node must be on the sphere.
    Where w vanishes at every node (a constant line) the result is a copy of
    v0, without integrating.
    """
    if steps < MIN_STEPS:
        raise GeometryError(f"steps must be at least {MIN_STEPS}")
    if steps > MAX_STEPS:
        raise GeometryError(f"steps must be at most {MAX_STEPS}")
    v0 = np.asarray(v0, dtype=complex)
    field.fiber_coordinate(curve(0.0), v0)
    u, w = _horizontal_frame(field, curve, steps)
    if not w.any():  # a vanishing connection moves nothing: every RK4 increment is exactly 0
        return v0.copy()
    return rk4_transport_path(u, w, 1.0 / steps, v0)


def holonomy(field: ProjectorField, curve: Curve, steps: int = DEFAULT_STEPS) -> complex:
    """Holonomy of a loop downstairs: fiber coordinate ratio after transport.

    The curve must end at its start or at its antipode (to ENDPOINT_TOL);
    either way it descends to a loop.  The fiber lines at x(0) and x(1) must
    agree, so that the ratio <v0|v1>/<v0|v0> is well defined (and independent
    of the frame choice).  Every test here fails on NaN.
    """
    x0, x1 = ends = curve(np.array([0.0, 1.0]))
    if not (np.linalg.norm(x1 - x0) <= ENDPOINT_TOL or np.linalg.norm(x1 + x0) <= ENDPOINT_TOL):
        raise GeometryError("curve ends neither at its start nor at its antipode: no loop")
    p_start, p_end = field.evaluate(ends)
    if not np.abs(p_end - p_start).max() <= ENDPOINT_TOL:
        raise GeometryError("the fiber lines at the two ends of the loop differ")
    v0 = field.vector(x0)
    v1 = parallel_transport(field, curve, v0, steps)
    return complex(np.vdot(v0, v1) / np.vdot(v0, v0))


def flatness_report(
    field: ProjectorField, loops: Sequence[Curve], steps: int = DEFAULT_STEPS
) -> float:
    """Worst deviation |h - 1| over a family of contractible loops."""
    worst = 0.0
    for loop in loops:
        x0, x1 = loop(np.array([0.0, 1.0]))
        if not np.linalg.norm(x1 - x0) <= ENDPOINT_TOL:
            raise GeometryError("flatness check expects loops closed on the sphere")
        worst = max(worst, abs(holonomy(field, loop, steps) - 1.0))
    return worst
