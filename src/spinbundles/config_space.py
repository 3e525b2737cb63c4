"""Points of the sphere and the projective plane, charts, and the partition of unity.

The unconstrained configuration space is the unit sphere S2 in R^3; the
constrained one is the projective plane RP2 obtained by identifying antipodal
points.  RP2 is covered by the three affine charts U_a = {[x] : x_a != 0},
and sqrt(x_a^2) gives a subordinate partition of unity with
sum_a phi_a^2 = 1.  A point [x] of RP2 is the canonical SpherePoint that
project returns.  The chart queries (chart_contains, chart_map,
partition_phi, ChartAtlas.charts_containing) are even in x, so they accept
either representative; like project and chart_inverse they read a point's
own float coordinates.  SpherePoint.vec builds a fresh array and is for
array callers.

antipode, project, chart_contains and partition_phi take a SpherePoint or
an (N, 3) array of unit vectors, one point per row; an array gives an array
of the per-point answers, equal row by row to the SpherePoint form, and
every row is checked.  chart_map, chart_inverse and charts_containing take
a SpherePoint only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChartDomainError, GeometryError

# Coordinates with absolute value below this are treated as exact zeros when
# canonicalizing representatives and testing chart membership.
COORD_EPS = 1e-12

SPHERE_TOL = 1e-9  # how far |x|^2 of a point of the sphere may be from 1

#: Chart indices of the standard affine atlas of RP2.
CHART_INDICES = (1, 2, 3)

TWO_PI = 2.0 * math.pi


def _pow2_scaled(v: np.ndarray) -> np.ndarray:
    """v times the power of two that puts its largest |entry| in [1, 2).

    The scaling is exact, so ratios of entries and norms are those of v.  A
    zero or non-finite v is returned as it is.
    """
    big = float(np.abs(v).max(initial=0.0))
    if not 0.0 < big < math.inf:
        return v
    return np.ldexp(v, 1 - math.frexp(big)[1])


@dataclass(frozen=True)
class SpherePoint:
    """A point of the unit sphere, stored in Cartesian coordinates."""

    x1: float
    x2: float
    x3: float

    def __post_init__(self):
        n = self.x1 * self.x1 + self.x2 * self.x2 + self.x3 * self.x3
        if not abs(n - 1.0) <= SPHERE_TOL:
            raise GeometryError(f"point not on the unit sphere: |x|^2 = {n!r}")

    @classmethod
    def from_vec(cls, v) -> "SpherePoint":
        v = np.asarray(v, dtype=float)
        if v.shape != (3,):
            raise GeometryError(f"a point of R^3 needs shape (3,), not {v.shape}")
        return cls(float(v[0]), float(v[1]), float(v[2]))

    @classmethod
    def from_direction(cls, v) -> "SpherePoint":
        """Normalize an arbitrary nonzero finite 3-vector onto the sphere.

        The norm is taken after an exact power-of-two scaling, so no entry
        size overflows or underflows it.
        """
        v = _pow2_scaled(np.asarray(v, dtype=float))
        n = float(np.linalg.norm(v))
        if not 1.0 <= n < math.inf:
            raise GeometryError("cannot normalize a zero or non-finite vector")
        return cls.from_vec(v / n)

    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "SpherePoint":
        """Polar angle theta from the +x3 axis, azimuth phi from the +x1 axis."""
        st = math.sin(theta)
        return cls(st * math.cos(phi), st * math.sin(phi), math.cos(theta))

    @property
    def vec(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3])

    def __neg__(self) -> "SpherePoint":
        return SpherePoint(-self.x1, -self.x2, -self.x3)


def antipode(p: SpherePoint | np.ndarray) -> SpherePoint | np.ndarray:
    """The free Z2 action on the sphere, x -> -x, of a point or of each row of an array."""
    return -p


def antipode_angles(theta, phi):
    """The antipode in polar coordinates: (theta, phi) -> (pi - theta, phi + pi)."""
    return math.pi - np.asarray(theta), (np.asarray(phi) + math.pi) % TWO_PI


def project(p: SpherePoint | np.ndarray) -> SpherePoint | np.ndarray:
    """Canonical projection S2 -> RP2: the representative of [x]; project(x) == project(-x).

    The first coordinate with |x_i| > COORD_EPS is made positive; every unit
    vector has max_i |x_i| >= 1/sqrt(3), so the scan always finds one.  An
    (N, 3) array gives the (N, 3) array of representatives.
    """
    if isinstance(p, SpherePoint):
        for c in (p.x1, p.x2, p.x3):
            if abs(c) > COORD_EPS:
                return -p if c < 0 else p
        raise GeometryError("no coordinate exceeds the zero threshold")
    xs = _point_rows(p)
    big = np.abs(xs) > COORD_EPS
    if not big.any(axis=1).all():
        raise GeometryError("no coordinate exceeds the zero threshold")
    lead = xs[np.arange(len(xs)), big.argmax(axis=1)]
    return np.where((lead < 0)[:, None], -xs, xs)


def _point_rows(xs) -> np.ndarray:
    """xs as an (N, 3) float array whose every row lies on the unit sphere."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != 3:
        raise GeometryError(f"an array of points needs shape (N, 3), not {xs.shape}")
    n = xs[:, 0] * xs[:, 0] + xs[:, 1] * xs[:, 1] + xs[:, 2] * xs[:, 2]
    off = ~(np.abs(n - 1.0) <= SPHERE_TOL)  # NaN rows are off too
    if off.any():
        i = int(off.argmax())
        raise GeometryError(f"point not on the unit sphere: row {i} has |x|^2 = {n[i]!r}")
    return xs


@dataclass(frozen=True)
class GroupElement:
    """An element of the two-element permutation group, stored as its sign."""

    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise GeometryError("group element sign must be +1 or -1")

    def apply(self, p: SpherePoint | np.ndarray) -> SpherePoint | np.ndarray:
        return antipode(p) if self.sign == -1 else p


SWAP = GroupElement(-1)


def chart_contains(alpha: int, q: SpherePoint | np.ndarray) -> bool | np.ndarray:
    """Whether [x] lies in U_alpha, |x_alpha| > COORD_EPS; an (N, 3) array gives (N,) bools."""
    _check_alpha(alpha)
    if isinstance(q, SpherePoint):
        return abs((q.x1, q.x2, q.x3)[alpha - 1]) > COORD_EPS
    return np.abs(_point_rows(q)[:, alpha - 1]) > COORD_EPS


def chart_map(alpha: int, q: SpherePoint) -> tuple[float, float]:
    """Affine coordinates on U_alpha: the two remaining coordinate ratios.

    alpha=1 -> (x2/x1, x3/x1); alpha=2 -> (x1/x2, x3/x2); alpha=3 -> (x1/x3, x2/x3).
    Ratios are even in x, so the value does not depend on the representative.
    """
    _check_alpha(alpha)
    v = [q.x1, q.x2, q.x3]
    d = v.pop(alpha - 1)
    if abs(d) <= COORD_EPS:
        raise ChartDomainError(f"point outside chart U_{alpha}")
    return v[0] / d, v[1] / d


def chart_inverse(alpha: int, uv) -> SpherePoint:
    """Inverse of chart_map: insert 1 at slot alpha, normalize, project.

    Any finite pair is a chart coordinate; where its norm overflows, (1, u, w)
    is first scaled by an exact power of two.
    """
    _check_alpha(alpha)
    one, u, w = 1.0, float(uv[0]), float(uv[1])
    if not (math.isfinite(u) and math.isfinite(w)):
        raise GeometryError(f"chart coordinates must be finite, got ({u!r}, {w!r})")
    n = math.hypot(one, u, w)
    if n == math.inf:
        k = math.frexp(max(abs(u), abs(w)))[1]
        one, u, w = math.ldexp(one, -k), math.ldexp(u, -k), math.ldexp(w, -k)
        n = math.hypot(one, u, w)
    v = [u / n, w / n]
    v.insert(alpha - 1, one / n)
    return project(SpherePoint(*v))


def partition_phi(alpha: int, q: SpherePoint | np.ndarray) -> float | np.ndarray:
    """Partition-of-unity function sqrt(x_alpha^2) = |x_alpha|; sum of squares is 1.

    An (N, 3) array gives the (N,) values.
    """
    _check_alpha(alpha)
    if isinstance(q, SpherePoint):
        return abs((q.x1, q.x2, q.x3)[alpha - 1])
    return np.abs(_point_rows(q)[:, alpha - 1])


class ChartAtlas:
    """The three-chart affine atlas of RP2."""

    indices = CHART_INDICES

    def charts_containing(self, q: SpherePoint) -> tuple[int, ...]:
        return tuple(a for a, c in zip(self.indices, (q.x1, q.x2, q.x3)) if abs(c) > COORD_EPS)


ATLAS = ChartAtlas()


def _is_integer(x) -> bool:
    # 1.0 and True compare equal to 1 but are not integers here.
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_alpha(alpha: int) -> None:
    if not _is_integer(alpha) or alpha not in CHART_INDICES:
        raise GeometryError(f"chart index must be one of {CHART_INDICES}, got {alpha!r}")


def sample_sphere(n: int, rng) -> np.ndarray:
    """n uniform points on S2 as an (n, 3) array: normalized Gaussian draws."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    v = rng.standard_normal((n, 3))
    norms = np.linalg.norm(v, axis=1)
    # Resample the (measure-zero) draws too close to the origin.
    while np.any(norms < 1e-8):
        bad = norms < 1e-8
        v[bad] = rng.standard_normal((int(bad.sum()), 3))
        norms = np.linalg.norm(v, axis=1)
    return v / norms[:, None]


def angles_of(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polar angles of an (..., 3) array of unit vectors; phi = 0 on the poles."""
    xs = np.asarray(xs, dtype=float)
    theta = np.arccos(np.clip(xs[..., 2], -1.0, 1.0))
    phi = np.arctan2(xs[..., 1], xs[..., 0]) % TWO_PI
    return theta, phi
