"""The moving two-spin basis: exchange rotations, transported vectors, projectors.

Two spin-1/2 particles are described inside a 10-dimensional oscillator space
organized into three exchange triplets V_m (one per total-spin projection m)
plus a singlet line.  A direction-dependent unitary U(r), block diagonal in
that scheme, moves the spin basis; the moved basis obeys the exchange rule
|swap(M)(-r)> = -|M(r)>, is parallel for the projector connection, and its
rank-1 projectors assemble the two-spin bundle downstairs into three copies
of the nontrivial line bundle plus a trivial one.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config_space import SpherePoint, angles_of, antipode_angles
from .errors import GeometryError
from .line_bundle import CHI_HARMONIC, ProjectorField, constant_projector_field, linear_line_field
from .section_algebra import ScalarField, evaluate_fields
from .transport import Curve

DIMENSION = 10
SQRT2 = math.sqrt(2.0)
FD_STEP_RANGE = (1e-7, 1e-3)  # the central-difference steps br_parallel_residual accepts

#: Total-spin projections carrying an exchange triplet.
TRIPLET_MS = (-1, 0, 1)
#: Exchange-triplet index within each V_m.
TRIPLET_KS = (-1, 0, 1)

# Scheme positions (0-based indices into e1..e10) for the pure-basis slots.
_SLOT = {
    (-1, -1): 7,  # e8
    (-1, 0): 1,   # e2
    (-1, 1): 9,   # e10
    (0, -1): 4,   # e5
    (0, 1): 5,    # e6
    (1, -1): 6,   # e7
    (1, 0): 0,    # e1
    (1, 1): 8,    # e9
}

#: Product labels (m1, m2) in units of 1/2, ordered to match e1..e4.
PRODUCT_LABELS = ((1, 1), (-1, -1), (1, -1), (-1, 1))
#: Total-spin labels (j, m): the triplet in TRIPLET_MS order, then the singlet.
TOTAL_LABELS = ((1, -1), (1, 0), (1, 1), (0, 0))


def swap_label(label: tuple[int, int]) -> tuple[int, int]:
    return (label[1], label[0])


# Column of swap(M) for each product label M, in PRODUCT_LABELS order.
_SWAP_COLUMNS = [PRODUCT_LABELS.index(swap_label(lbl)) for lbl in PRODUCT_LABELS]


def triplet_vector(m: int, k: int) -> np.ndarray:
    """Scheme basis vector |m>^(k) of the exchange triplet V_m, in C^10."""
    if m not in TRIPLET_MS or k not in TRIPLET_KS:
        raise GeometryError(f"invalid triplet label (m={m}, k={k})")
    v = np.zeros(DIMENSION, dtype=complex)
    if (m, k) == (0, 0):
        v[2] = 1.0 / SQRT2  # (e3 + e4)/sqrt(2)
        v[3] = 1.0 / SQRT2
    else:
        v[_SLOT[(m, k)]] = 1.0
    return v


def singlet_vector() -> np.ndarray:
    v = np.zeros(DIMENSION, dtype=complex)
    v[2] = 1.0 / SQRT2  # (e3 - e4)/sqrt(2)
    v[3] = -1.0 / SQRT2
    return v


def block_matrix(m: int) -> np.ndarray:
    """10 x 3 isometry whose columns are |m>^(k) for k = -1, 0, +1 (read-only)."""
    if m not in TRIPLET_MS:
        raise GeometryError(f"invalid triplet label (m={m})")
    return _BLOCKS[m]


_BLOCKS = {m: np.column_stack([triplet_vector(m, k) for k in TRIPLET_KS]) for m in TRIPLET_MS}
for _b in _BLOCKS.values():
    _b.flags.writeable = False


def total_spin_vector(j: int, m: int) -> np.ndarray:
    """The fixed total-spin basis |j, m> inside the scheme."""
    if j == 1 and m in TRIPLET_MS:
        return triplet_vector(m, 0)
    if j == 0 and m == 0:
        return singlet_vector()
    raise GeometryError(f"invalid total-spin label (j={j}, m={m})")


def product_vector(label: tuple[int, int]) -> np.ndarray:
    """The fixed product basis |m1 m2> via the Clebsch-Gordan change of label."""
    m1, m2 = label
    if (m1, m2) == (1, 1):
        return total_spin_vector(1, 1)
    if (m1, m2) == (-1, -1):
        return total_spin_vector(1, -1)
    if (m1, m2) == (1, -1):
        return (total_spin_vector(1, 0) + total_spin_vector(0, 0)) / SQRT2
    if (m1, m2) == (-1, 1):
        return (total_spin_vector(1, 0) - total_spin_vector(0, 0)) / SQRT2
    raise GeometryError(f"invalid product label {label!r}")


def exchange_block(theta, phi) -> np.ndarray:
    """The 3x3 exchange rotation on one triplet, broadcasting over angles.

    Unitary for every (theta, phi) and exactly the identity at theta = 0.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    theta, phi = np.broadcast_arrays(theta, phi)
    c2 = np.cos(theta / 2.0) ** 2
    s2 = np.sin(theta / 2.0) ** 2
    s = np.sin(theta) / SQRT2
    c = np.cos(theta)
    ep = np.exp(1j * phi)
    em = np.exp(-1j * phi)
    u = np.empty(theta.shape + (3, 3), dtype=complex)
    u[..., 0, 0] = c2
    u[..., 0, 1] = -em * s
    u[..., 0, 2] = em * em * s2
    u[..., 1, 0] = ep * s
    u[..., 1, 1] = c
    u[..., 1, 2] = -em * s
    u[..., 2, 0] = ep * ep * s2
    u[..., 2, 1] = ep * s
    u[..., 2, 2] = c2
    return u


BlockFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def perturbed_block() -> BlockFn:
    """A deliberately broken exchange block (1e-3 added at entry (0, 1)) for fault injection."""

    def block(theta, phi):
        u = exchange_block(theta, phi)
        u[..., 0, 1] += 1e-3
        return u

    return block


def exchange_full_angles(theta, phi, block_fn: BlockFn | None = None) -> np.ndarray:
    """The 10x10 exchange rotation: one block per triplet, identity on the singlet."""
    block = (block_fn or exchange_block)(theta, phi)
    shape = block.shape[:-2]
    u = np.zeros(shape + (DIMENSION, DIMENSION), dtype=complex)
    for m in TRIPLET_MS:
        b = block_matrix(m).real
        u += b @ block @ b.T
    s = singlet_vector()
    u += np.outer(s, s.conj()).real
    return u


def transported_component_vector(theta, phi) -> np.ndarray:
    """Components of the moved total-spin vector against (k=-1, 0, +1), (..., 3)."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    theta, phi = np.broadcast_arrays(theta, phi)
    s = np.sin(theta) / SQRT2
    out = np.empty(theta.shape + (3,), dtype=complex)
    out[..., 0] = -np.exp(-1j * phi) * s
    out[..., 1] = np.cos(theta)
    out[..., 2] = np.exp(1j * phi) * s
    return out


def transported_basis(j: int, m: int, r: SpherePoint | np.ndarray) -> np.ndarray:
    """The moved basis vector |j m (r)> at a point or an (..., 3) array, (..., 10).

    Unit norm and never vanishing.
    """
    xs = r.vec if isinstance(r, SpherePoint) else np.asarray(r, dtype=float)
    if j == 0:
        if m != 0:
            raise GeometryError("the singlet label is (j=0, m=0)")
        return np.broadcast_to(singlet_vector(), xs.shape[:-1] + (DIMENSION,)).copy()
    if j != 1 or m not in TRIPLET_MS:
        raise GeometryError(f"invalid total-spin label (j={j}, m={m})")
    theta, phi = angles_of(xs)
    return transported_component_vector(theta, phi) @ block_matrix(m).T


#: The real Clebsch-Gordan table <j m|M>: rows in TOTAL_LABELS, columns in PRODUCT_LABELS order.
CLEBSCH_GORDAN = (
    np.column_stack([total_spin_vector(j, m) for j, m in TOTAL_LABELS]).conj().T
    @ np.column_stack([product_vector(lbl) for lbl in PRODUCT_LABELS])
).real
# U(r)|M> = _FRAME_LIFT u0(r) + _FRAME_SINGLET, u0 the k=0 block column: the product labels lie
# in span{|1 m>, |00>}, where U(r)|1 m> = B_m u0(r) and U(r)|00> = |00>.
_FRAME_LIFT = sum(block_matrix(m).real[:, :, None] * w for m, w in zip(TRIPLET_MS, CLEBSCH_GORDAN))
_FRAME_SINGLET = np.outer(singlet_vector().real, CLEBSCH_GORDAN[3])


def moved_product_frames(theta, phi, block_fn: BlockFn | None = None) -> np.ndarray:
    """Columns |M(r)> = U(r)|M> for the four product labels, (..., 10, 4).

    Built from the k=0 column of the exchange block alone; the 10x10 U(r) is
    never formed.
    """
    u0 = (block_fn or exchange_block)(theta, phi)[..., :, 1]
    return np.tensordot(u0, _FRAME_LIFT, axes=(-1, 1)) + _FRAME_SINGLET


def exchange_rule_residual(
    points: np.ndarray,
    basis: str = "product",
    block_fn: BlockFn | None = None,
) -> float:
    """sup-residual of the exchange rule over sample directions.

    product basis: || |swap(M)(-r)> + |M(r)> ||  (spin 1/2, so the sign is -1);
    total basis:   the triplet picks up -1 and the singlet +1.
    """
    theta, phi = angles_of(points)
    atheta, aphi = antipode_angles(theta, phi)
    if basis == "product":
        here = moved_product_frames(theta, phi, block_fn)
        there = moved_product_frames(atheta, aphi, block_fn)
        residual = np.linalg.norm(there[..., _SWAP_COLUMNS] + here, axis=-2)
        return float(residual.max())
    if basis == "total":
        u_here = exchange_full_angles(theta, phi, block_fn)
        u_there = exchange_full_angles(atheta, aphi, block_fn)
        worst = 0.0
        for m in TRIPLET_MS:
            v = total_spin_vector(1, m)
            worst = max(worst, float(np.linalg.norm(u_there @ v + u_here @ v, axis=-1).max()))
        s = singlet_vector()
        worst = max(worst, float(np.linalg.norm(u_there @ s - u_here @ s, axis=-1).max()))
        return worst
    raise GeometryError("basis must be 'product' or 'total'")


def br_parallel_residual(
    curve: Curve,
    h: float,
    block_fn: BlockFn | None = None,
) -> float:
    """sup_t,M,M' |<M'(r(t))| d/dt |M(r(t))>| over 64 times, with a central-difference derivative.

    Zero analytically for the moved basis (the basis is parallel); the
    numerical value decays as O(h^2) down to the rounding floor.
    """
    lo, hi = FD_STEP_RANGE
    if not lo <= h <= hi:
        raise GeometryError(f"finite-difference step must lie in [{lo:.0e}, {hi:.0e}]")
    ts = np.linspace(0.0, 1.0, 64)
    frames = []
    for dt in (-h, 0.0, h):
        theta, phi = angles_of(curve.position(ts + dt))
        frames.append(moved_product_frames(theta, phi, block_fn))
    deriv = (frames[2] - frames[0]) / (2.0 * h)
    gram = np.einsum("...ia,...ib->...ab", frames[1].conj(), deriv)
    return float(np.abs(gram).max())


def projector_P0() -> np.ndarray:
    """Projection onto the k = 0 slot of a triplet, diag(0, 1, 0)."""
    return np.diag([0.0, 1.0, 0.0]).astype(complex)


def projector_Pm(r: SpherePoint | np.ndarray) -> np.ndarray:
    """The moved projector U(r) P0 U(r)† on one triplet, (..., 3, 3); even and rank 1."""
    theta, phi = angles_of(r.vec if isinstance(r, SpherePoint) else r)
    u = exchange_block(theta, phi)
    return u @ projector_P0() @ u.conj().swapaxes(-1, -2)


def exchange_line_field(m: int) -> ProjectorField:
    """The line sub-bundle spanned by |1 m (r)> = -B_m chi_h(x), as a 10x10 projector field."""
    if m not in TRIPLET_MS:
        raise GeometryError(f"m must be one of {TRIPLET_MS}")
    return linear_line_field(block_matrix(m) @ CHI_HARMONIC, f"moved-line[m={m}]")


def singlet_field() -> ProjectorField:
    s = singlet_vector()
    return constant_projector_field(np.outer(s, s.conj()), name="singlet-line")


@dataclass(frozen=True)
class TwoSpinWaveFunction:
    """Coefficient fields against the moved basis, in product or total labels."""

    coefficients: dict[tuple[int, int], ScalarField]
    basis: str = "product"

    def __post_init__(self):
        if self.basis not in ("product", "total"):
            raise GeometryError("basis must be 'product' or 'total'")
        expected = set(_labels(self.basis))
        if set(self.coefficients) != expected:
            raise GeometryError(f"coefficient labels must be exactly {sorted(expected)}")

    def to_product(self) -> "TwoSpinWaveFunction":
        """Pointwise unitary change of labels (Clebsch-Gordan)."""
        return self._relabel("product", CLEBSCH_GORDAN.T)

    def to_total(self) -> "TwoSpinWaveFunction":
        return self._relabel("total", CLEBSCH_GORDAN)

    def _relabel(self, basis: str, table: np.ndarray) -> "TwoSpinWaveFunction":
        """psi_new = sum_old table[new, old] psi_old; a weight of 1 passes the field through."""
        if basis == self.basis:
            return self
        old = [self.coefficients[lbl] for lbl in _labels(self.basis)]
        new = {}
        for lbl, row in zip(_labels(basis), table.tolist()):
            terms = [c if w == 1.0 else w * c for w, c in zip(row, old) if w]
            new[lbl] = functools.reduce(operator.add, terms)
        return TwoSpinWaveFunction(new, basis)


def _labels(basis: str) -> tuple[tuple[int, int], ...]:
    return PRODUCT_LABELS if basis == "product" else TOTAL_LABELS


def zero_wavefunction(basis: str = "product") -> TwoSpinWaveFunction:
    from .section_algebra import zero_field

    return TwoSpinWaveFunction({lbl: zero_field() for lbl in _labels(basis)}, basis)


def _state(xs: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The state sum_M coeffs_M |M(r)> over xs, (..., 10), from product-label coefficients (..., 4)."""
    theta, phi = angles_of(xs)
    return np.einsum("...ia,...a->...i", moved_product_frames(theta, phi), coeffs)


def assemble_values(psi: TwoSpinWaveFunction, xs: np.ndarray) -> np.ndarray:
    """The full state sum_M psi_M(r) |M(r)> over an (..., 3) sample, (..., 10)."""
    psi = psi.to_product()
    xs = np.asarray(xs, dtype=float)
    values = evaluate_fields([psi.coefficients[lbl] for lbl in PRODUCT_LABELS], xs)
    return _state(xs, np.stack(values, axis=-1))


@dataclass(frozen=True)
class SpinStatisticsReport:
    """Sup residuals over the sample; arrays with one entry per member for a family."""

    singlevalued_residual: float | np.ndarray
    coefficient_relation_residual: float | np.ndarray


def antisymmetrize(family: dict) -> dict:
    """Project product coefficients onto solutions of psi_swap(M)(-r) = -psi_M(r)."""
    out = {}
    for lbl in PRODUCT_LABELS:
        g = family[lbl]
        h = family[swap_label(lbl)].reflect()
        out[lbl] = 0.5 * (g - h)
    return out


def spin_statistics_check(psi: TwoSpinWaveFunction, points: np.ndarray) -> SpinStatisticsReport:
    """Residuals of (a) |Psi(-r)> = |Psi(r)> and (b) psi_swap(M)(-r) = -psi_M(r).

    Given the exchange rule for the moved basis the two identities are
    equivalent, so the residuals vanish together.  The coefficients at r and
    at -r come from one evaluation pass.  The sup runs over the sample
    only, so a family of wave functions gets one residual per member.
    """
    psi = psi.to_product()
    xs = np.asarray(points, dtype=float)
    fields = [psi.coefficients[lbl] for lbl in PRODUCT_LABELS]
    values = evaluate_fields(fields + [f.reflect() for f in fields], xs)
    coeffs_here = np.stack(values[:4], axis=-1)
    coeffs_there = np.stack(values[4:], axis=-1)
    gap = np.linalg.norm(_state(-xs, coeffs_there) - _state(xs, coeffs_here), axis=-1)
    relation = np.abs(coeffs_there[..., _SWAP_COLUMNS] + coeffs_here)
    return SpinStatisticsReport(_sup(gap, xs.ndim - 1), _sup(relation, xs.ndim))


def _sup(values: np.ndarray, axes: int) -> float | np.ndarray:
    """Max over the trailing `axes` axes; a float when no member axis remains."""
    top = np.max(values, axis=tuple(range(-axes, 0)))
    return float(top) if np.ndim(top) == 0 else top
