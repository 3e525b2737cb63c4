"""Line fields on the sphere and the line bundles over RP2 they present.

A ProjectorField is a line field |u(x)><u(x)| given by its fiber frame u(x)
in C^n and the frame's rate along a curve: the linear frames x -> Cx of an
n x 3 isometry C, or a constant frame (the trivial bundle).  Each gauge map
chi: S2 -> C^3 is such a field, read as ChiVariant.field (vector gives chi,
evaluate |chi><chi|).  An odd chi spans the nontrivial line bundle
and its projector |chi><chi| is even, so it descends to RP2; the even chi
presents an isomorphic copy of the pulled-back bundle in a different gauge.
fiber_coordinate alone decides fiber membership (z = lambda u(x) to within
FIBER_RTOL).  Transition functions of the affine atlas are sign(x_a x_b).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config_space import GroupElement, ProjectivePoint, SpherePoint, _check_alpha, chart_contains
from .errors import BindingError, ChartDomainError, FiberMembershipError, GeometryError, ParityError

# Relative tolerance for deciding that a vector lies in a fiber line.
FIBER_RTOL = 1e-10

_SQRT2 = np.sqrt(2.0)

#: The harmonic gauge chi_h(x) = C_h x.
CHI_HARMONIC = np.array(
    [
        [1.0 / _SQRT2, -1.0j / _SQRT2, 0.0],
        [0.0, 0.0, -1.0],
        [-1.0 / _SQRT2, -1.0j / _SQRT2, 0.0],
    ]
)


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

    def fiber_coordinate(self, x: np.ndarray, z: np.ndarray) -> complex:
        """Extract lambda with z = lambda * u(x) at a unit vector x, rejecting off-line z."""
        z = np.asarray(z, dtype=complex)
        u = self.vector(x)
        if z.shape != u.shape:  # vdot flattens, and the residual would broadcast
            raise FiberMembershipError(f"a fiber vector needs shape {u.shape}, not {z.shape}")
        lam = complex(np.vdot(u, z))
        residual = np.linalg.norm(z - lam * u)
        if not residual <= FIBER_RTOL * max(np.linalg.norm(z), 1e-300):  # NaN fails too
            raise FiberMembershipError(
                f"vector is not in the fiber line (off-line residual {residual:.3e})"
            )
        return lam


def linear_line_field(c: np.ndarray, name: str) -> ProjectorField:
    """The even line field |Cx><Cx| of an n x 3 isometry C; its frame x -> Cx is linear."""
    c = np.asarray(c, dtype=complex)
    if c.ndim != 2 or c.shape[1] != 3 or not np.abs(c.conj().T @ c - np.eye(3)).max() <= 1e-12:
        raise GeometryError("a linear line field needs an n x 3 isometry")

    def vector(xs):
        return np.asarray(xs, dtype=float) @ c.T

    return ProjectorField(vector, lambda xs, vs: vector(vs), name)


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
        out = np.empty(np.asarray(xs).shape[:-1] + u.shape, dtype=complex)
        out[...] = u
        return out

    def vector_rate(xs, vs):
        return np.zeros(np.shape(xs)[:-1] + u.shape, dtype=complex)

    return ProjectorField(vector, vector_rate, name)


class ChiVariant(enum.Enum):
    """Concrete gauge maps chi used to present the line bundles."""

    ODD_LINEAR = "odd-linear"        # chi(x) = x
    ODD_HARMONIC = "odd-harmonic"    # chi(x) = ((x1-i*x2)/sqrt2, -x3, -(x1+i*x2)/sqrt2)
    EVEN_CONSTANT = "even-constant"  # chi(x) = (1, 0, 0)

    @property
    def parity(self) -> str:
        return "even" if self is ChiVariant.EVEN_CONSTANT else "odd"

    @property
    def is_odd(self) -> bool:
        return self.parity == "odd"

    @property
    def field(self) -> ProjectorField:
        """The line field |chi><chi| whose frame is this gauge map."""
        return _GAUGE_FIELDS[self]


_GAUGE_FIELDS = {
    ChiVariant.ODD_LINEAR: linear_line_field(np.eye(3), "chi[odd-linear]"),
    ChiVariant.ODD_HARMONIC: linear_line_field(CHI_HARMONIC, "chi[odd-harmonic]"),
    ChiVariant.EVEN_CONSTANT: constant_projector_field(
        np.diag([1.0, 0.0, 0.0]), "chi[even-constant]"
    ),
}


def chi(variant: ChiVariant, x: SpherePoint) -> np.ndarray:
    """The gauge vector chi(x) in C^3: normalized and nowhere vanishing."""
    return variant.field.frame(x)


def grassmann_field(variant: ChiVariant = ChiVariant.ODD_LINEAR) -> ProjectorField:
    """The projector field |chi><chi| of the nontrivial bundle; chi must be odd.

    An odd chi makes the projector even in x and hence a well-defined
    function on RP2.
    """
    if not variant.is_odd:
        raise ParityError("the nontrivial bundle's projector field needs an odd chi variant")
    return variant.field


def projector_minus(x: SpherePoint, variant: ChiVariant = ChiVariant.ODD_LINEAR) -> np.ndarray:
    """The 3x3 projector |chi(x)><chi(x)| of the nontrivial line bundle.

    For the linear gauge the entries are exactly the real products x_a * x_b.
    """
    return grassmann_field(variant).evaluate(x.vec)


def hermiticity_defect(p: np.ndarray) -> float:
    return float(np.linalg.norm(p - p.conj().swapaxes(-1, -2), axis=(-2, -1)).max())


def idempotency_defect(p: np.ndarray) -> float:
    return float(np.linalg.norm(p @ p - p, axis=(-2, -1)).max())


def trace_defect(p: np.ndarray) -> float:
    """sup |tr P - 1|: the distance from rank one."""
    tr = np.trace(p, axis1=-2, axis2=-1)
    return float(np.abs(tr - 1).max())


def transition(alpha: int, beta: int, q: ProjectivePoint) -> int:
    """Transition function of the line bundle on U_alpha ∩ U_beta: sign(x_a x_b)."""
    in_alpha, in_beta = chart_contains(alpha, q), chart_contains(beta, q)  # checks both indices
    if not (in_alpha and in_beta):
        raise ChartDomainError(f"point outside the overlap U_{alpha} ∩ U_{beta}")
    r = q.rep
    v = (r.x1, r.x2, r.x3)
    return 1 if v[alpha - 1] * v[beta - 1] > 0 else -1


def local_trivialization(alpha: int, q: ProjectivePoint, z: np.ndarray) -> complex:
    """Fiber coordinate over U_alpha: v = sign(x_alpha) * lambda.

    lambda is extracted against the linear gauge chi(x) = x at the canonical
    representative, which resolves the two-valued lambda vs. -lambda
    ambiguity deterministically.  Compatible with the transitions:
    v_beta = sign(x_alpha x_beta) v_alpha.
    """
    if not chart_contains(alpha, q):
        raise ChartDomainError(f"point outside chart U_{alpha}")
    lam = ChiVariant.ODD_LINEAR.field.fiber_coordinate(q.vec, z)
    r = q.rep
    sign = 1.0 if (r.x1, r.x2, r.x3)[alpha - 1] > 0 else -1.0
    return sign * lam


def generator_e(alpha: int, q: ProjectivePoint) -> np.ndarray:
    """Generating global section e_a([x]) = x_a * (x1, x2, x3).

    Each component is even in x, so the value is representative independent;
    the section vanishes exactly where x_a = 0, i.e. outside U_alpha.
    """
    _check_alpha(alpha)
    v = q.vec
    return (v[alpha - 1] * v).astype(complex)


class ActionLabel(enum.Enum):
    TAU_PLUS = "tau-plus"
    TAU_MINUS = "tau-minus"
    TAU_TILDE = "tau-tilde"
    TAU_PRIME = "tau-prime"


@dataclass(frozen=True)
class GroupAction:
    """A Z2 action on the trivial C^3 bundle over S2, covering the antipode map.

    TAU_PLUS fixes fibers, TAU_MINUS flips their sign.  TAU_TILDE moves the
    base point while keeping the ambient fiber vector fixed (the action a
    pull-back inherits); TAU_PRIME re-expands the fiber coordinate against a
    bound gauge map chi at the moved base point and flips its sign.
    """

    label: ActionLabel
    chi_variant: ChiVariant | None = None

    def __post_init__(self):
        if self.label in (ActionLabel.TAU_TILDE, ActionLabel.TAU_PRIME):
            if self.chi_variant is None:
                raise BindingError(f"{self.label.value} needs a bound chi variant")
            if self.label is ActionLabel.TAU_TILDE and not self.chi_variant.is_odd:
                raise BindingError("tau-tilde acts on the pull-back presented by an odd chi")


def tau_plus() -> GroupAction:
    return GroupAction(ActionLabel.TAU_PLUS)


def tau_minus() -> GroupAction:
    return GroupAction(ActionLabel.TAU_MINUS)


def tau_tilde(variant: ChiVariant = ChiVariant.ODD_LINEAR) -> GroupAction:
    return GroupAction(ActionLabel.TAU_TILDE, variant)


def tau_prime(variant: ChiVariant = ChiVariant.EVEN_CONSTANT) -> GroupAction:
    return GroupAction(ActionLabel.TAU_PRIME, variant)


def group_act(
    action: GroupAction, g: GroupElement, x: SpherePoint, v: np.ndarray
) -> tuple[SpherePoint, np.ndarray]:
    """Apply one of the four bundle actions to the element (x, v)."""
    v = np.asarray(v, dtype=complex)
    gx = g.apply(x)
    if action.label is ActionLabel.TAU_PLUS:
        return gx, v.copy()
    if action.label is ActionLabel.TAU_MINUS:
        return gx, g.sign * v
    field = action.chi_variant.field
    if action.label is ActionLabel.TAU_TILDE:
        # Fiber membership over x is required; the ambient vector is carried
        # along unchanged (and lands in the fiber over gx because chi is odd).
        field.fiber_coordinate(x.vec, v)
        return gx, v.copy()
    # TAU_PRIME
    lam = field.fiber_coordinate(x.vec, v)
    return gx, g.sign * lam * field.frame(gx)
