"""Points of the sphere and the projective plane, charts, and the partition of unity.

The unconstrained configuration space is the unit sphere S2 in R^3; the
constrained one is the projective plane RP2 obtained by identifying antipodal
points.  RP2 is covered by the three affine charts U_a = {[x] : x_a != 0},
and sqrt(x_a^2) gives a subordinate partition of unity with
sum_a phi_a^2 = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChartDomainError, GeometryError

# Coordinates with absolute value below this are treated as exact zeros when
# canonicalizing representatives and testing chart membership.
COORD_EPS = 1e-12

#: Chart indices of the standard affine atlas of RP2.
CHART_INDICES = (1, 2, 3)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SpherePoint:
    """A point of the unit sphere, stored in Cartesian coordinates."""

    x1: float
    x2: float
    x3: float

    def __post_init__(self):
        n = self.x1 * self.x1 + self.x2 * self.x2 + self.x3 * self.x3
        if not abs(n - 1.0) <= 1e-9:
            raise GeometryError(f"point not on the unit sphere: |x|^2 = {n!r}")

    @classmethod
    def from_vec(cls, v) -> "SpherePoint":
        v = np.asarray(v, dtype=float)
        return cls(float(v[0]), float(v[1]), float(v[2]))

    @classmethod
    def from_direction(cls, v) -> "SpherePoint":
        """Normalize an arbitrary nonzero 3-vector onto the sphere."""
        v = np.asarray(v, dtype=float)
        n = float(np.linalg.norm(v))
        if n <= COORD_EPS:
            raise GeometryError("cannot normalize a (near-)zero vector")
        return cls(float(v[0] / n), float(v[1] / n), float(v[2] / n))

    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "SpherePoint":
        """Polar angle theta from the +x3 axis, azimuth phi from the +x1 axis."""
        st = math.sin(theta)
        return cls(st * math.cos(phi), st * math.sin(phi), math.cos(theta))

    @property
    def vec(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3])

    @property
    def theta(self) -> float:
        return float(angles_of(self.vec)[0])

    @property
    def phi(self) -> float:
        return float(angles_of(self.vec)[1])

    def __neg__(self) -> "SpherePoint":
        return SpherePoint(-self.x1, -self.x2, -self.x3)


def antipode(p: SpherePoint) -> SpherePoint:
    """The free Z2 action on the sphere, x -> -x."""
    return -p


def antipode_angles(theta, phi):
    """The antipode in polar coordinates: (theta, phi) -> (pi - theta, phi + pi)."""
    return math.pi - np.asarray(theta), (np.asarray(phi) + math.pi) % TWO_PI


def _canonical_rep(v: np.ndarray) -> np.ndarray:
    # First coordinate with |x_i| > COORD_EPS is made positive; every unit
    # vector has max_i |x_i| >= 1/sqrt(3), so the scan always terminates.
    for i in range(3):
        if abs(v[i]) > COORD_EPS:
            return -v if v[i] < 0 else v
    raise GeometryError("no coordinate exceeds the zero threshold")


@dataclass(frozen=True)
class ProjectivePoint:
    """A point [x] of RP2, stored through its canonical representative."""

    rep: SpherePoint

    @property
    def vec(self) -> np.ndarray:
        return self.rep.vec


def project(p: SpherePoint) -> ProjectivePoint:
    """Canonical projection S2 -> RP2; project(x) == project(-x)."""
    return ProjectivePoint(SpherePoint.from_vec(_canonical_rep(p.vec)))


@dataclass(frozen=True)
class GroupElement:
    """An element of the two-element permutation group, stored as its sign."""

    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise GeometryError("group element sign must be +1 or -1")

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.sign * other.sign)

    def inverse(self) -> "GroupElement":
        return self

    def apply(self, p: SpherePoint) -> SpherePoint:
        return antipode(p) if self.sign == -1 else p


IDENTITY = GroupElement(1)
SWAP = GroupElement(-1)


def chart_contains(alpha: int, q: ProjectivePoint) -> bool:
    _check_alpha(alpha)
    return abs(q.vec[alpha - 1]) > COORD_EPS


def chart_map(alpha: int, q: ProjectivePoint) -> tuple[float, float]:
    """Affine coordinates on U_alpha: the two remaining coordinate ratios.

    alpha=1 -> (x2/x1, x3/x1); alpha=2 -> (x1/x2, x3/x2); alpha=3 -> (x1/x3, x2/x3).
    Ratios are even in x, so the value does not depend on the representative.
    """
    _check_alpha(alpha)
    v = q.vec
    d = v[alpha - 1]
    if abs(d) <= COORD_EPS:
        raise ChartDomainError(f"point outside chart U_{alpha}")
    others = [i for i in range(3) if i != alpha - 1]
    return float(v[others[0]] / d), float(v[others[1]] / d)


def chart_inverse(alpha: int, uv) -> ProjectivePoint:
    """Inverse of chart_map: insert 1 at slot alpha, normalize, project."""
    _check_alpha(alpha)
    u, w = float(uv[0]), float(uv[1])
    v = np.empty(3)
    others = [i for i in range(3) if i != alpha - 1]
    v[alpha - 1] = 1.0
    v[others[0]] = u
    v[others[1]] = w
    return project(SpherePoint.from_direction(v))


def partition_phi(alpha: int, q: ProjectivePoint) -> float:
    """Partition-of-unity function sqrt(x_alpha^2) = |x_alpha|; sum of squares is 1."""
    _check_alpha(alpha)
    return abs(float(q.vec[alpha - 1]))


class ChartAtlas:
    """The three-chart affine atlas of RP2."""

    indices = CHART_INDICES

    def charts_containing(self, q: ProjectivePoint) -> tuple[int, ...]:
        return tuple(a for a in self.indices if chart_contains(a, q))


ATLAS = ChartAtlas()


def _check_alpha(alpha: int) -> None:
    if alpha not in CHART_INDICES:
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
