"""Line bundles over RP2 presented inside a trivial C^3 bundle.

The nontrivial line bundle is realized as the family of complex lines spanned
by a normalized, nowhere-vanishing map chi: S2 -> C^3 that is odd under the
antipode; the corresponding rank-1 projector field |chi><chi| is even and
descends to RP2.  An even chi presents an isomorphic copy of the pulled-back
bundle in a different gauge.  Transition functions of the affine atlas are the
signs sign(x_a x_b).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .config_space import GroupElement, ProjectivePoint, SpherePoint, chart_contains
from .errors import BindingError, ChartDomainError, FiberMembershipError, GeometryError, ParityError

# Relative tolerance for deciding that a vector lies in a fiber line.
FIBER_RTOL = 1e-10

_SQRT2 = np.sqrt(2.0)

# chi maps linear in x are stored as the matrix chi(x) = C @ x.
_CHI_LINEAR = np.eye(3, dtype=complex)
_CHI_HARMONIC = np.array(
    [
        [1.0 / _SQRT2, -1.0j / _SQRT2, 0.0],
        [0.0, 0.0, -1.0],
        [-1.0 / _SQRT2, -1.0j / _SQRT2, 0.0],
    ]
)
_CHI_CONSTANT = np.array([1.0, 0.0, 0.0], dtype=complex)


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


def chi_matrix(variant: ChiVariant) -> np.ndarray | None:
    """The matrix C with chi(x) = C x, or None if chi is not linear in x."""
    if variant is ChiVariant.ODD_LINEAR:
        return _CHI_LINEAR
    if variant is ChiVariant.ODD_HARMONIC:
        return _CHI_HARMONIC
    return None


def chi_values(variant: ChiVariant, xs: np.ndarray) -> np.ndarray:
    """Evaluate chi on an (..., 3) array of unit vectors; complex (..., 3)."""
    xs = np.asarray(xs, dtype=float)
    if variant is ChiVariant.EVEN_CONSTANT:
        out = np.empty(xs.shape, dtype=complex)
        out[...] = _CHI_CONSTANT
        return out
    c = chi_matrix(variant)
    return xs @ c.T


def chi(variant: ChiVariant, x: SpherePoint) -> np.ndarray:
    """The gauge vector chi(x) in C^3: normalized and nowhere vanishing."""
    return chi_values(variant, x.vec)


def projector_values(variant: ChiVariant, xs: np.ndarray) -> np.ndarray:
    """Rank-1 projector field |chi><chi| on an (..., 3) array; (..., 3, 3)."""
    v = chi_values(variant, xs)
    return v[..., :, None] * v.conj()[..., None, :]


def projector_minus(x: SpherePoint, variant: ChiVariant = ChiVariant.ODD_LINEAR) -> np.ndarray:
    """The 3x3 projector |chi(x)><chi(x)| of the nontrivial line bundle.

    Requires an odd chi so that the projector is even in x and hence a
    well-defined function on RP2.  For the linear gauge the entries are
    exactly the real products x_a * x_b.
    """
    if not variant.is_odd:
        raise ParityError("projector of the nontrivial bundle needs an odd chi variant")
    return projector_values(variant, x.vec)


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
    if not (chart_contains(alpha, q) and chart_contains(beta, q)):
        raise ChartDomainError(f"point outside the overlap U_{alpha} ∩ U_{beta}")
    v = q.vec
    return 1 if v[alpha - 1] * v[beta - 1] > 0 else -1


def fiber_coefficient(variant: ChiVariant, x: SpherePoint, z: np.ndarray) -> complex:
    """Extract lambda with z = lambda * chi(x), rejecting off-line vectors."""
    z = np.asarray(z, dtype=complex)
    frame = chi(variant, x)
    lam = complex(np.vdot(frame, z))
    residual = np.linalg.norm(z - lam * frame)
    if residual > FIBER_RTOL * max(np.linalg.norm(z), 1e-300):
        raise FiberMembershipError(
            f"vector is not in the fiber line (off-line residual {residual:.3e})"
        )
    return lam


def local_trivialization(
    alpha: int,
    q: ProjectivePoint,
    z: np.ndarray,
    variant: ChiVariant = ChiVariant.ODD_LINEAR,
) -> complex:
    """Fiber coordinate over U_alpha: v = sign(x_alpha) * lambda.

    lambda is extracted against chi at the canonical representative, which
    resolves the two-valued lambda vs. -lambda ambiguity deterministically.
    Compatible with the transitions: v_beta = sign(x_alpha x_beta) v_alpha.
    """
    if not variant.is_odd:
        raise ParityError("local trivializations are defined for the odd chi gauges")
    if not chart_contains(alpha, q):
        raise ChartDomainError(f"point outside chart U_{alpha}")
    lam = fiber_coefficient(variant, q.rep, z)
    sign = 1.0 if q.vec[alpha - 1] > 0 else -1.0
    return sign * lam


def generator_e(alpha: int, q: ProjectivePoint) -> np.ndarray:
    """Generating global section e_a([x]) = x_a * (x1, x2, x3).

    Each component is even in x, so the value is representative independent;
    the section vanishes exactly where x_a = 0, i.e. outside U_alpha.
    """
    if alpha not in (1, 2, 3):
        raise GeometryError(f"chart index must be 1, 2 or 3, got {alpha!r}")
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
    if action.label is ActionLabel.TAU_TILDE:
        # Fiber membership over x is required; the ambient vector is carried
        # along unchanged (and lands in the fiber over gx because chi is odd).
        fiber_coefficient(action.chi_variant, x, v)
        return gx, v.copy()
    # TAU_PRIME
    lam = fiber_coefficient(action.chi_variant, x, v)
    return gx, g.sign * lam * chi(action.chi_variant, gx)
