"""Parallel transport for projector-valued connections and loop holonomy.

A line field P = |u><u| on the sphere defines a connection on the line
sub-bundle it spans (covariant derivative = P d).  Each curve carries its
position and its analytic velocity, and each field carries its fiber frame
u(x) and the frame's rate du/dt along a curve.  Transport along a curve
solves dv/dt = [Pdot, P] v, and the generator is built from the frame as
|w><u| - |u><w|, with w = du - <u|du> u the horizontal part of du; the
commutator form keeps v in the moving fiber and, because the generator is
anti-Hermitian, preserves the norm.  For even fields the fiber lines over x
and -x coincide, so curves that close on the sphere and curves that end at
the antipode both descend to loops downstairs, and the holonomy is the ratio
of the fiber coordinates before and after.
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
MAX_STEPS = 65536  # bounds the generator grid, 2 * steps + 1 matrices

ENDPOINT_TOL = 1e-10


class Closure(enum.Enum):
    """How a curve on the sphere closes up as a loop downstairs."""

    CLOSED_ON_SPHERE = "closed"   # x(1) = x(0)
    ANTIPODAL = "antipodal"       # x(1) = -x(0)
    OPEN = "open"


@dataclass(frozen=True)
class Curve:
    """A smooth path t in [0, 1] -> S2: vectorized position and its analytic velocity."""

    position: Callable[[np.ndarray], np.ndarray]
    velocity: Callable[[np.ndarray], np.ndarray]
    closure: Closure = Closure.OPEN
    name: str = "curve"

    def __call__(self, t):
        if np.isscalar(t):
            return self.position(np.asarray([t], dtype=float))[0]
        return self.position(np.asarray(t, dtype=float))

    def point(self, t: float) -> SpherePoint:
        return SpherePoint.from_vec(self(float(t)))

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


def _circle(c, cr: float, sr: float, a, b, span: float, closure: Closure, name: str) -> Curve:
    """x(t) = cr c + sr (cos(span t) a + sin(span t) b), with its analytic velocity."""

    def pos(t):
        ang = span * np.asarray(t, dtype=float)
        return cr * c + sr * (np.cos(ang)[..., None] * a + np.sin(ang)[..., None] * b)

    def vel(t):
        ang = span * np.asarray(t, dtype=float)
        return span * sr * (-np.sin(ang)[..., None] * a + np.cos(ang)[..., None] * b)

    return Curve(pos, vel, closure, name)


def great_circle(u, w, name: str = "great-circle") -> Curve:
    """Full great circle through u and (the component of) w, closed on the sphere."""
    u, w = _frame(u, w)
    return _circle(np.zeros(3), 0.0, 1.0, u, w, 2.0 * np.pi, Closure.CLOSED_ON_SPHERE, name)


def antipodal_arc(u, w, name: str = "antipodal-arc") -> Curve:
    """Half great circle from u to -u passing through w at the midpoint."""
    u, w = _frame(u, w)
    return _circle(np.zeros(3), 0.0, 1.0, u, w, np.pi, Closure.ANTIPODAL, name)


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
    name = name or f"small-circle({angular_radius:g})"
    return _circle(c, cr, sr, a, b, 2.0 * np.pi, Closure.CLOSED_ON_SPHERE, name)


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
    vel = lambda t: -c.velocity(1.0 - np.asarray(t, dtype=float))
    return Curve(pos, vel, c.closure, f"reversed[{c.name}]")


def restrict(c: Curve, t0: float, t1: float) -> Curve:
    """The sub-curve on [t0, t1], reparametrized to [0, 1]."""
    span = t1 - t0
    pos = lambda t: c.position(t0 + span * np.asarray(t, dtype=float))
    vel = lambda t: span * c.velocity(t0 + span * np.asarray(t, dtype=float))
    return Curve(pos, vel, Closure.OPEN, f"{c.name}[{t0:g},{t1:g}]")


def reparametrize(c: Curve, warp, warp_rate, name: str | None = None) -> Curve:
    """Precompose the curve with a time warp [0,1] -> [0,1] (same image, new speed).

    warp_rate is the warp's derivative; the velocity follows by the chain rule.
    """
    pos = lambda t: c.position(warp(np.asarray(t, dtype=float)))

    def vel(t):
        t = np.asarray(t, dtype=float)
        return warp_rate(t)[..., None] * c.velocity(warp(t))

    return Curve(pos, vel, c.closure, name or f"warped[{c.name}]")


@dataclass(frozen=True)
class ProjectorField:
    """A line field |u(x)><u(x)| on the sphere, given by its fiber frame.

    vector maps (..., 3) unit vectors to unit spanning vectors u of shape
    (..., n); vector_rate maps a curve's positions and velocity to du/dt.
    """

    vector: Callable[[np.ndarray], np.ndarray]
    vector_rate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str = "projector-field"

    def evaluate(self, xs) -> np.ndarray:
        """The projectors |u><u|, shape (..., n, n)."""
        u = self.vector(xs)
        return u[..., :, None] * u.conj()[..., None, :]

    def frame(self, x: SpherePoint) -> np.ndarray:
        """Unit spanning vector of the fiber line at x."""
        return self.vector(x.vec)


def linear_line_field(c: np.ndarray, name: str) -> ProjectorField:
    """The even line field |Cx><Cx| of an n x 3 isometry C; its frame x -> Cx is linear."""
    c = np.asarray(c, dtype=complex)
    if c.ndim != 2 or c.shape[1] != 3 or not np.abs(c.conj().T @ c - np.eye(3)).max() <= 1e-12:
        raise GeometryError("a linear line field needs an n x 3 isometry")

    def vector(xs):
        return np.asarray(xs, dtype=float) @ c.T

    return ProjectorField(vector, lambda xs, vs: vector(vs), name)


def grassmann_field(variant: ChiVariant = ChiVariant.ODD_LINEAR) -> ProjectorField:
    """The projector field |chi><chi| of an odd gauge (chi is linear)."""
    if not variant.is_odd:
        raise GeometryError("the nontrivial-bundle field needs an odd chi")
    return linear_line_field(chi_matrix(variant), f"p-minus[{variant.value}]")


def constant_projector_field(p: np.ndarray, name: str = "constant-projector") -> ProjectorField:
    """The constant line field of a rank-1 projector p: the trivial line bundle."""
    p = np.asarray(p, dtype=complex)
    k = int(np.argmax(p.diagonal().real))
    with np.errstate(divide="ignore", invalid="ignore"):
        u = p[:, k] / np.sqrt(p[k, k])
    # Written so that a NaN frame (p = 0 gives 0/0) fails too.
    if not np.abs(np.outer(u, u.conj()) - p).max() <= 1e-12:
        raise GeometryError("a constant line field needs a rank-1 orthogonal projector")

    def vector(xs):
        return np.broadcast_to(u, np.shape(xs)[:-1] + u.shape)

    def vector_rate(xs, vs):
        return np.zeros(np.shape(xs)[:-1] + u.shape, dtype=complex)

    return ProjectorField(vector, vector_rate, name)


def _generator_grid(field: ProjectorField, curve: Curve, steps: int) -> np.ndarray:
    # [Pdot, P] = |w><u| - |u><w| with w the horizontal part of du: the
    # component <u|du> u only turns the frame's phase, not the line.
    ts = np.linspace(0.0, 1.0, 2 * steps + 1)
    xs = curve.position(ts)
    u = field.vector(xs)
    du = field.vector_rate(xs, curve.velocity(ts))
    w = du - np.sum(u.conj() * du, axis=-1, keepdims=True) * u
    return w[..., :, None] * u.conj()[..., None, :] - u[..., :, None] * w.conj()[..., None, :]


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
    if steps > MAX_STEPS:
        raise GeometryError(f"steps must be at most {MAX_STEPS}")
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
    descends to a loop.  The fiber lines at x(0) and x(1) must agree, so that
    the ratio <v0|v1>/<v0|v0> is well defined (and independent of the frame
    choice).
    """
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
