"""Parallel transport for projector-valued connections and loop holonomy.

A rank-1 projector field P on the sphere defines a connection on the line
sub-bundle it spans (covariant derivative = P d).  Transport along a curve
solves dv/dt = [Pdot, P] v; the commutator form keeps v in the moving fiber
and, because the generator is anti-Hermitian, preserves the norm.  For even
fields the fiber lines over x and -x coincide, so curves that close on the
sphere and curves that end at the antipode both descend to loops downstairs,
and the holonomy is the ratio of the fiber coordinates before and after.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config_space import SpherePoint
from .errors import FiberMembershipError, GeometryError
from .kernels import rk4_transport_path
from .line_bundle import ChiVariant, chi_matrix

DEFAULT_STEPS = 4096
MIN_STEPS = 16

# Central-difference step for curves without an analytic velocity.
FD_DT = 1e-6

ENDPOINT_TOL = 1e-10


class Closure(enum.Enum):
    """How a curve on the sphere closes up as a loop downstairs."""

    CLOSED_ON_SPHERE = "closed"   # x(1) = x(0)
    ANTIPODAL = "antipodal"       # x(1) = -x(0)
    OPEN = "open"


@dataclass(frozen=True)
class Curve:
    """A smooth path t in [0, 1] -> S2 with a vectorized evaluator."""

    position: Callable[[np.ndarray], np.ndarray]
    velocity: Callable[[np.ndarray], np.ndarray] | None = None
    closure: Closure = Closure.OPEN
    name: str = "curve"

    def __call__(self, t):
        if np.isscalar(t):
            return self.position(np.asarray([t], dtype=float))[0]
        return self.position(np.asarray(t, dtype=float))

    def point(self, t: float) -> SpherePoint:
        return SpherePoint.from_vec(self(float(t)))

    def velocities(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.velocity is not None:
            return self.velocity(t)
        return (self.position(t + FD_DT) - self.position(t - FD_DT)) / (2.0 * FD_DT)

    def validate(self) -> None:
        ts = np.linspace(0.0, 1.0, 33)
        xs = self.position(ts)
        norms = np.linalg.norm(xs, axis=1)
        if np.abs(norms - 1.0).max() > 1e-9:
            raise GeometryError("curve leaves the unit sphere")
        x0, x1 = xs[0], xs[-1]
        if self.closure is Closure.CLOSED_ON_SPHERE and np.linalg.norm(x1 - x0) > ENDPOINT_TOL:
            raise GeometryError("curve declared closed does not return to its start")
        if self.closure is Closure.ANTIPODAL and np.linalg.norm(x1 + x0) > ENDPOINT_TOL:
            raise GeometryError("curve declared antipodal does not end at the antipode")


def _frame(u, w) -> tuple[np.ndarray, np.ndarray]:
    u = u.vec if isinstance(u, SpherePoint) else np.asarray(u, dtype=float)
    w = w.vec if isinstance(w, SpherePoint) else np.asarray(w, dtype=float)
    u = u / np.linalg.norm(u)
    w = w - (w @ u) * u
    n = np.linalg.norm(w)
    if n < 1e-12:
        raise GeometryError("second direction is parallel to the first")
    return u, w / n


def great_circle(u, w, name: str = "great-circle") -> Curve:
    """Full great circle through u and (the component of) w, closed on the sphere."""
    u, w = _frame(u, w)

    def pos(t):
        ang = 2.0 * np.pi * np.asarray(t, dtype=float)
        return np.cos(ang)[..., None] * u + np.sin(ang)[..., None] * w

    def vel(t):
        ang = 2.0 * np.pi * np.asarray(t, dtype=float)
        return 2.0 * np.pi * (-np.sin(ang)[..., None] * u + np.cos(ang)[..., None] * w)

    return Curve(pos, vel, Closure.CLOSED_ON_SPHERE, name)


def antipodal_arc(u, w, name: str = "antipodal-arc") -> Curve:
    """Half great circle from u to -u passing through w at the midpoint."""
    u, w = _frame(u, w)

    def pos(t):
        ang = np.pi * np.asarray(t, dtype=float)
        return np.cos(ang)[..., None] * u + np.sin(ang)[..., None] * w

    def vel(t):
        ang = np.pi * np.asarray(t, dtype=float)
        return np.pi * (-np.sin(ang)[..., None] * u + np.cos(ang)[..., None] * w)

    return Curve(pos, vel, Closure.ANTIPODAL, name)


def small_circle(center, angular_radius: float, name: str | None = None) -> Curve:
    """Circle of the given angular radius around a center direction; contractible."""
    c = center.vec if isinstance(center, SpherePoint) else np.asarray(center, dtype=float)
    c = c / np.linalg.norm(c)
    if not 0.0 < angular_radius < np.pi / 2:
        raise GeometryError("angular radius must lie in (0, pi/2)")
    seed = np.array([1.0, 0.0, 0.0]) if abs(c[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    a = np.cross(c, seed)
    a /= np.linalg.norm(a)
    b = np.cross(c, a)
    cr, sr = np.cos(angular_radius), np.sin(angular_radius)

    def pos(t):
        ang = 2.0 * np.pi * np.asarray(t, dtype=float)
        return cr * c + sr * (np.cos(ang)[..., None] * a + np.sin(ang)[..., None] * b)

    def vel(t):
        ang = 2.0 * np.pi * np.asarray(t, dtype=float)
        return 2.0 * np.pi * sr * (-np.sin(ang)[..., None] * a + np.cos(ang)[..., None] * b)

    return Curve(pos, vel, Closure.CLOSED_ON_SPHERE, name or f"small-circle({angular_radius:g})")


def constant_curve(p: SpherePoint) -> Curve:
    v = p.vec

    def pos(t):
        t = np.asarray(t, dtype=float)
        return np.broadcast_to(v, t.shape + (3,)).copy()

    def vel(t):
        t = np.asarray(t, dtype=float)
        return np.zeros(t.shape + (3,))

    return Curve(pos, vel, Closure.CLOSED_ON_SPHERE, "constant")


def reverse(c: Curve) -> Curve:
    pos = lambda t: c.position(1.0 - np.asarray(t, dtype=float))
    vel = (lambda t: -c.velocity(1.0 - np.asarray(t, dtype=float))) if c.velocity else None
    return Curve(pos, vel, c.closure, f"reversed[{c.name}]")


def concatenate(c1: Curve, c2: Curve, name: str | None = None) -> Curve:
    """Run c1 on [0, 1/2] and c2 on [1/2, 1]; endpoints must match."""
    if np.linalg.norm(c1(1.0) - c2(0.0)) > ENDPOINT_TOL:
        raise GeometryError("curves do not join: end of first != start of second")
    x0, x1 = c1(0.0), c2(1.0)
    if np.linalg.norm(x1 - x0) <= ENDPOINT_TOL:
        closure = Closure.CLOSED_ON_SPHERE
    elif np.linalg.norm(x1 + x0) <= ENDPOINT_TOL:
        closure = Closure.ANTIPODAL
    else:
        closure = Closure.OPEN

    def pos(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        first = t < 0.5
        out = np.empty(t.shape + (3,))
        out[first] = c1.position(2.0 * t[first])
        out[~first] = c2.position(2.0 * t[~first] - 1.0)
        return out

    vel = None
    if c1.velocity is not None and c2.velocity is not None:
        # Piecewise analytic velocity; at the seam the second piece wins.
        def vel(t):
            t = np.atleast_1d(np.asarray(t, dtype=float))
            first = t < 0.5
            out = np.empty(t.shape + (3,))
            out[first] = 2.0 * c1.velocity(2.0 * t[first])
            out[~first] = 2.0 * c2.velocity(2.0 * t[~first] - 1.0)
            return out

    return Curve(pos, vel, closure, name or f"{c1.name}+{c2.name}")


def restrict(c: Curve, t0: float, t1: float) -> Curve:
    """The sub-curve on [t0, t1], reparametrized to [0, 1]."""
    span = t1 - t0
    pos = lambda t: c.position(t0 + span * np.asarray(t, dtype=float))
    vel = (lambda t: span * c.velocity(t0 + span * np.asarray(t, dtype=float))) if c.velocity else None
    return Curve(pos, vel, Closure.OPEN, f"{c.name}[{t0:g},{t1:g}]")


def reparametrize(c: Curve, warp, warp_rate=None, name: str | None = None) -> Curve:
    """Precompose the curve with a time warp [0,1] -> [0,1] (same image, new speed)."""
    pos = lambda t: c.position(warp(np.asarray(t, dtype=float)))
    vel = None
    if c.velocity is not None and warp_rate is not None:
        def vel(t):
            t = np.asarray(t, dtype=float)
            return warp_rate(t)[..., None] * c.velocity(warp(t))

    return Curve(pos, vel, c.closure, name or f"warped[{c.name}]")


@dataclass(frozen=True)
class ProjectorField:
    """A projector-valued field on the sphere.

    evaluate maps (..., 3) unit vectors to (..., n, n) Hermitian idempotents;
    rate maps positions and velocities to the time derivative of the field
    along a curve.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    rate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    rank: int = 1
    name: str = "projector-field"

    def at(self, x: SpherePoint) -> np.ndarray:
        return self.evaluate(x.vec)

    def frame(self, x: SpherePoint) -> np.ndarray:
        """Deterministic unit spanning vector of the fiber line at x (rank 1)."""
        if self.rank != 1:
            raise GeometryError("fiber frames are defined for rank-1 fields")
        p = self.at(x)
        w, vecs = np.linalg.eigh(p)
        v = vecs[:, int(np.argmax(w))]
        k = int(np.argmax(np.abs(v)))
        phase = v[k] / abs(v[k])
        return v / phase


def linear_line_field(c: np.ndarray, name: str) -> ProjectorField:
    """The even rank-1 field |Cx><Cx| of an n x 3 isometry C; its rate is |Cv><Cx| + |Cx><Cv|."""
    c = np.asarray(c, dtype=complex)
    if c.ndim != 2 or c.shape[1] != 3 or np.abs(c.conj().T @ c - np.eye(3)).max() > 1e-12:
        raise GeometryError("a linear line field needs an n x 3 isometry")

    def ev(xs):
        v = np.asarray(xs, dtype=float) @ c.T
        return v[..., :, None] * v.conj()[..., None, :]

    def rate(xs, vs):
        v = np.asarray(xs, dtype=float) @ c.T
        dv = np.asarray(vs, dtype=float) @ c.T
        return dv[..., :, None] * v.conj()[..., None, :] + v[..., :, None] * dv.conj()[..., None, :]

    return ProjectorField(ev, rate, name=name)


def grassmann_field(variant: ChiVariant = ChiVariant.ODD_LINEAR) -> ProjectorField:
    """The projector field |chi><chi| of an odd gauge (chi is linear)."""
    if not variant.is_odd:
        raise GeometryError("the nontrivial-bundle field needs an odd chi")
    return linear_line_field(chi_matrix(variant), f"p-minus[{variant.value}]")


def constant_projector_field(p: np.ndarray, name: str = "constant-projector") -> ProjectorField:
    """A constant projector field: the trivial line bundle when rank is 1."""
    p = np.asarray(p, dtype=complex)
    n = p.shape[0]
    rank = int(round(np.trace(p).real))

    def ev(xs):
        xs = np.asarray(xs, dtype=float)
        out = np.empty(xs.shape[:-1] + (n, n), dtype=complex)
        out[...] = p
        return out

    def rate(xs, vs):
        xs = np.asarray(xs, dtype=float)
        return np.zeros(xs.shape[:-1] + (n, n), dtype=complex)

    return ProjectorField(ev, rate, rank, name)


def _generator_grid(field: ProjectorField, curve: Curve, steps: int) -> np.ndarray:
    ts = np.linspace(0.0, 1.0, 2 * steps + 1)
    xs = curve.position(ts)
    ps = field.evaluate(xs)
    pdot = field.rate(xs, curve.velocities(ts))
    return pdot @ ps - ps @ pdot


def parallel_transport(
    field: ProjectorField,
    curve: Curve,
    v0: np.ndarray,
    steps: int = DEFAULT_STEPS,
    return_path: bool = False,
):
    """Transport v0 along the curve with the projector connection.

    Solves dv/dt = [Pdot, P] v with fixed-step classical RK4.  v0 must lie in
    the fiber at the start point; the result stays in the moving fiber and
    keeps its norm up to the integration error.
    """
    if steps < MIN_STEPS:
        raise GeometryError(f"steps must be at least {MIN_STEPS}")
    v0 = np.asarray(v0, dtype=complex)
    p0 = field.evaluate(curve(0.0))
    defect = np.linalg.norm(v0 - p0 @ v0)
    if defect > 1e-10 * max(np.linalg.norm(v0), 1e-300):
        raise FiberMembershipError(
            f"start vector is not in the fiber (residual {defect:.3e})"
        )
    gen = _generator_grid(field, curve, steps)
    path = rk4_transport_path(gen, 1.0 / steps, v0)
    if return_path:
        return np.linspace(0.0, 1.0, steps + 1), path
    return path[-1]


def holonomy(field: ProjectorField, curve: Curve, steps: int = DEFAULT_STEPS) -> complex:
    """Holonomy of a loop downstairs: fiber coordinate ratio after transport.

    The curve must close on the sphere or end at the antipode; either way it
    descends to a loop.  The field must be rank 1 and its fiber lines at x(0)
    and x(1) must agree, so that the ratio <v0|v1>/<v0|v0> is well defined
    (and independent of the frame choice).
    """
    if field.rank != 1:
        raise GeometryError("holonomy is implemented for rank-1 fields")
    if curve.closure not in (Closure.CLOSED_ON_SPHERE, Closure.ANTIPODAL):
        raise GeometryError("curve does not descend to a loop")
    curve.validate()
    p_start, p_end = field.evaluate(curve(np.array([0.0, 1.0])))
    if np.abs(p_end - p_start).max() > ENDPOINT_TOL:
        raise GeometryError("the fiber lines at the two ends of the loop differ")
    v0 = field.frame(curve.point(0.0))
    v1 = parallel_transport(field, curve, v0, steps)
    return complex(np.vdot(v0, v1) / np.vdot(v0, v0))


def flatness_report(
    field: ProjectorField, loops: Sequence[Curve], steps: int = DEFAULT_STEPS
) -> float:
    """Worst deviation |h - 1| over a family of contractible loops."""
    worst = 0.0
    for loop in loops:
        if loop.closure is not Closure.CLOSED_ON_SPHERE:
            raise GeometryError("flatness check expects loops closed on the sphere")
        worst = max(worst, abs(holonomy(field, loop, steps) - 1.0))
    return worst
