"""Scalar fields on the sphere, parity decomposition, and section modules.

Functions on S2 split into even and odd parts under the antipode map (the
isotypic decomposition for the two-element group).  Odd functions a are in
bijection with coefficient triples f_a(x) = x_a * a(x) fixed by the projector
(x_a x_b), which are in bijection with sections of the nontrivial line bundle
and with their pull-backs a(x) * chi(x) upstairs.  Invariance of a pull-back
section under the induced group action is equivalent to membership in the
image of that chain, i.e. to the coefficient being odd, in every gauge;
which *singlevaluedness* identity the section satisfies depends on the gauge
parity instead.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .config_space import GroupElement, SpherePoint
from .errors import BindingError, GeometryError, ParityError
from .line_bundle import ActionLabel, ChiVariant, GroupAction, chi_values

# Tolerance for sampled functional identities (parity checks, projector-fixed
# residuals); algebraic chains are held to 1e-12 in the tests.
FUNCTIONAL_TOL = 1e-10


def _combine_parity(p: str | None, q: str | None, mode: str) -> str | None:
    if p is None or q is None:
        return None
    if mode == "add":
        return p if p == q else None
    # multiplication
    return "even" if p == q else "odd"


@dataclass(frozen=True)
class ScalarField:
    """A complex-valued function on S2 given by a vectorized evaluator.

    The evaluator maps an (..., 3) array of unit vectors to complex values of
    shape (...).  Fields are immutable; arithmetic builds new closures.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    parity: str | None = None
    name: str = "field"

    def __call__(self, x):
        if isinstance(x, SpherePoint):
            return complex(self.evaluator(x.vec[None, :])[0])
        xs = np.asarray(x, dtype=float)
        return np.asarray(self.evaluator(xs))

    def reflect(self) -> "ScalarField":
        """The field x -> a(-x)."""
        ev = self.evaluator
        return ScalarField(lambda xs: ev(-np.asarray(xs)), self.parity, f"{self.name}(-x)")

    def parity_defects(self, xs: np.ndarray) -> tuple[float, float]:
        """(sup |a(x)-a(-x)|, sup |a(x)+a(-x)|) over the sample."""
        v = self(xs)
        w = self(-np.asarray(xs))
        return float(np.abs(v - w).max()), float(np.abs(v + w).max())

    def __add__(self, other: "ScalarField") -> "ScalarField":
        e1, e2 = self.evaluator, other.evaluator
        return ScalarField(
            lambda xs: e1(xs) + e2(xs),
            _combine_parity(self.parity, other.parity, "add"),
            f"({self.name}+{other.name})",
        )

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        return self + (-other)

    def __neg__(self) -> "ScalarField":
        ev = self.evaluator
        return ScalarField(lambda xs: -ev(xs), self.parity, f"-{self.name}")

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            e1, e2 = self.evaluator, other.evaluator
            return ScalarField(
                lambda xs: e1(xs) * e2(xs),
                _combine_parity(self.parity, other.parity, "mul"),
                f"{self.name}*{other.name}",
            )
        c = complex(other)
        ev = self.evaluator
        return ScalarField(lambda xs: c * ev(xs), self.parity, f"{other}*{self.name}")

    __rmul__ = __mul__


def constant_field(c, name: str | None = None) -> ScalarField:
    c = complex(c)
    if name is None:
        name = f"{c.real:g}" if c.imag == 0 else str(c)
    return ScalarField(lambda xs: np.full(np.asarray(xs).shape[:-1], c), "even", name)


def coordinate_field(i: int) -> ScalarField:
    """The odd coordinate function x_i (i in {1, 2, 3})."""
    if i not in (1, 2, 3):
        raise GeometryError("coordinate index must be 1, 2 or 3")
    return ScalarField(lambda xs: np.asarray(xs)[..., i - 1] + 0j, "odd", f"x{i}")


def zero_field() -> ScalarField:
    return constant_field(0.0, "0")


def polynomial_field(terms, name: str | None = None) -> ScalarField:
    """Polynomial in (x1, x2, x3): terms is a list of (coeff, (i, j, k)).

    Parity is declared when every monomial has the same total-degree parity
    (on the unit sphere the antipode flips a monomial by (-1)^degree).
    Evaluation builds one table of coordinate powers by repeated
    multiplication and accumulates real and imaginary parts per term; since
    negation is exact, a pure-parity polynomial obeys p(-x) = +-p(x) bit for
    bit.
    """
    terms = [(complex(c), (int(e[0]), int(e[1]), int(e[2]))) for c, e in terms]
    top = [max((e[a] for _, e in terms), default=0) for a in range(3)]
    degrees = {sum(e) % 2 for c, e in terms if c != 0}
    parity = None
    if len(degrees) == 0:
        parity = "even"  # zero polynomial
    elif degrees == {0}:
        parity = "even"
    elif degrees == {1}:
        parity = "odd"

    def ev(xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        powers = []  # powers[a][d] = x_a^d for 1 <= d <= top[a]
        for a in range(3):
            row = [None, xs[..., a]]
            while len(row) <= top[a]:
                row.append(row[-1] * xs[..., a])
            powers.append(row)
        re = np.zeros(xs.shape[:-1])
        im = np.zeros(xs.shape[:-1])
        for c, exps in terms:
            factors = [powers[a][d] for a, d in enumerate(exps) if d]
            mono = functools.reduce(np.multiply, factors) if factors else 1.0
            if c.real:
                re += c.real * mono
            if c.imag:
                im += c.imag * mono
        return re + 1j * im

    return ScalarField(ev, parity, name or _polynomial_name(terms))


def _polynomial_name(terms) -> str:
    if not terms:
        return "0"
    bits = []
    for c, (i, j, k) in terms:
        mono = "*".join(
            f"x{n}^{e}" if e > 1 else f"x{n}"
            for n, e in zip((1, 2, 3), (i, j, k))
            if e > 0
        )
        coeff = f"{c.real:g}" if c.imag == 0 else f"({c:g})"
        bits.append(f"{coeff}*{mono}" if mono else coeff)
    return " + ".join(bits)


def _monomials(max_degree: int, parity: str | None):
    for i, j, k in itertools.product(range(max_degree + 1), repeat=3):
        d = i + j + k
        if d > max_degree:
            continue
        if parity == "even" and d % 2 != 0:
            continue
        if parity == "odd" and d % 2 != 1:
            continue
        yield (i, j, k)


def random_polynomial(rng, max_degree: int = 5, parity: str | None = None) -> ScalarField:
    """Random real-coefficient polynomial, optionally of pure parity."""
    exps = list(_monomials(max_degree, parity))
    coeffs = rng.standard_normal(len(exps))
    return polynomial_field(list(zip(coeffs, exps)), name=f"poly<=deg{max_degree}:{parity or 'mixed'}")


def parity_decompose(a: ScalarField) -> tuple[ScalarField, ScalarField]:
    """Split a into its even and odd parts, a±(x) = (a(x) ± a(-x)) / 2.

    These are the two isotypic projections of the antipode action on
    functions; the decomposition reconstructs a pointwise.
    """
    return (
        replace(0.5 * (a + a.reflect()), parity="even", name=f"even[{a.name}]"),
        replace(0.5 * (a - a.reflect()), parity="odd", name=f"odd[{a.name}]"),
    )


@functools.cache
def validation_grid() -> np.ndarray:
    """Deterministic well-spread points on S2 (Fibonacci lattice), (512, 3)."""
    n = 512
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    phi = golden * i
    xs = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    xs.setflags(write=False)  # shared by every caller through the cache
    return xs


def _require_parity(a: ScalarField, parity: str, what: str) -> None:
    if a.parity == parity:
        return
    opposite = "odd" if parity == "even" else "even"
    if a.parity == opposite:
        raise ParityError(f"{what} must be {parity}, got a declared-{opposite} field {a.name!r}")
    xs = validation_grid()
    even_defect, odd_defect = a.parity_defects(xs)
    defect = odd_defect if parity == "odd" else even_defect
    scale = max(1.0, float(np.abs(a(xs)).max()))
    if defect > FUNCTIONAL_TOL * scale:
        raise ParityError(f"{what} must be {parity}; sampled defect {defect:.3e}")


@dataclass(frozen=True)
class SectionXi:
    """A section of the nontrivial line bundle as even coefficients f_a.

    Evaluation against the generating sections reads
    value(x) = sum_a f_a(x) * e_a(x) with e_a(x) = x_a * chi(x); the
    coefficient triple is fixed by the projector: sum_a x_b x_a f_a = f_b.
    """

    f1: ScalarField
    f2: ScalarField
    f3: ScalarField
    variant: ChiVariant = ChiVariant.ODD_LINEAR

    def __post_init__(self):
        if not self.variant.is_odd:
            raise ParityError("sections of the nontrivial bundle are presented by an odd chi")
        for f in (self.f1, self.f2, self.f3):
            _require_parity(f, "even", "section coefficient")

    @property
    def fields(self) -> tuple[ScalarField, ScalarField, ScalarField]:
        return (self.f1, self.f2, self.f3)

    def coefficient_values(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return np.stack([f(xs) for f in self.fields], axis=-1)

    def values(self, xs: np.ndarray) -> np.ndarray:
        """Fiber vectors sum_a f_a(x) e_a(x), shape (..., 3)."""
        xs = np.asarray(xs, dtype=float)
        chiv = chi_values(self.variant, xs)
        out = np.zeros(chiv.shape, dtype=complex)
        for a, f in enumerate(self.fields):
            out += (f(xs) * xs[..., a])[..., None] * chiv
        return out

    def projector_residual(self, xs: np.ndarray) -> float:
        """sup-norm of (p f - f) over the sample; zero for genuine sections."""
        xs = np.asarray(xs, dtype=float)
        coeffs = self.coefficient_values(xs)
        a_vals = np.einsum("...a,...a->...", xs, coeffs)
        pf = xs * a_vals[..., None]
        return float(np.linalg.norm(pf - coeffs, axis=-1).max())


def zero_section(variant: ChiVariant = ChiVariant.ODD_LINEAR) -> SectionXi:
    z = zero_field()
    return SectionXi(z, z, z, variant)


def section_from_odd(a: ScalarField, variant: ChiVariant = ChiVariant.ODD_LINEAR) -> SectionXi:
    """The section with coefficients f_a(x) = x_a * a(x) for an odd function a."""
    _require_parity(a, "odd", "coefficient function")
    f1, f2, f3 = (coordinate_field(i) * a for i in (1, 2, 3))
    return SectionXi(f1, f2, f3, variant)


def odd_from_section(f: SectionXi) -> ScalarField:
    """Recover the odd function a(x) = sum_a x_a f_a(x); inverse of section_from_odd."""
    residual = f.projector_residual(validation_grid())
    if residual > FUNCTIONAL_TOL:
        raise GeometryError(
            f"coefficients are not projector-fixed (residual {residual:.3e}); not a section"
        )
    x1, x2, x3 = (coordinate_field(i) for i in (1, 2, 3))
    return replace(x1 * f.f1 + x2 * f.f2 + x3 * f.f3, parity="odd", name="sum_a x_a*f_a")


def project_to_section(
    g1: ScalarField,
    g2: ScalarField,
    g3: ScalarField,
    variant: ChiVariant = ChiVariant.ODD_LINEAR,
) -> SectionXi:
    """Apply the projector (x_a x_b) to an even coefficient triple."""
    for g in (g1, g2, g3):
        _require_parity(g, "even", "coefficient")
    inner = coordinate_field(1) * g1 + coordinate_field(2) * g2 + coordinate_field(3) * g3
    return SectionXi(
        coordinate_field(1) * inner,
        coordinate_field(2) * inner,
        coordinate_field(3) * inner,
        variant,
    )


@dataclass(frozen=True)
class PullbackSection:
    """A section of the pulled-back bundle upstairs: x -> (x, a(x) * chi(x))."""

    coefficient: ScalarField
    variant: ChiVariant = ChiVariant.ODD_LINEAR

    def values(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return self.coefficient(xs)[..., None] * chi_values(self.variant, xs)

    def at(self, x: SpherePoint) -> tuple[SpherePoint, np.ndarray]:
        return x, self.values(x.vec)

    def sup_norm(self, xs: np.ndarray) -> float:
        return float(np.linalg.norm(self.values(xs), axis=-1).max())


def pullback_T(f: SectionXi) -> PullbackSection:
    """Lift a section to the pull-back bundle: T(s)(x) = (x, a(x) chi(x)).

    The term x_a in e_a(x) = x_a chi(x) is absorbed into the coefficients,
    leaving the odd function a = sum_a x_a f_a against the gauge chi.  The
    image is exactly the set of invariant sections upstairs.
    """
    return PullbackSection(odd_from_section(f), f.variant)


def g_action_on_section(
    sigma: PullbackSection, g: GroupElement, action: GroupAction
) -> PullbackSection:
    """The induced action on sections, (g.s)(x) = tau_g(s(g^{-1} x))."""
    if action.label not in (ActionLabel.TAU_TILDE, ActionLabel.TAU_PRIME):
        raise BindingError(f"{action.label.value} does not act on gauge-presented sections")
    if action.chi_variant is not sigma.variant:
        raise BindingError(
            f"action bound to {action.chi_variant and action.chi_variant.value} cannot act on a "
            f"section presented by {sigma.variant.value}"
        )
    if g.sign == 1:
        return PullbackSection(sigma.coefficient, sigma.variant)
    a = sigma.coefficient
    # Both actions transform the coefficient the same way: under tau-tilde the
    # ambient vector a(-x) chi(-x) re-expands against the odd chi(x) as
    # -a(-x) chi(x); tau-prime flips the coefficient sign by definition.
    return PullbackSection(replace(-a.reflect(), name=f"(g.{a.name})"), sigma.variant)


def invariance_residual(sigma: PullbackSection, action: GroupAction, points: np.ndarray) -> float:
    """sup_x |(g.sigma)(x) - sigma(x)| for the nontrivial group element.

    Vanishes exactly when the section is invariant, i.e. lies in the image of
    the pull-back of a downstairs section (coefficient odd).
    """
    xs = np.asarray(points, dtype=float)
    acted = g_action_on_section(sigma, GroupElement(-1), action)
    diff = acted.values(xs) - sigma.values(xs)
    return float(np.linalg.norm(diff, axis=-1).max())


def singlevaluedness_residuals(sigma: PullbackSection, points: np.ndarray) -> tuple[float, float]:
    """(sup |v(-x) - v(x)|, sup |v(-x) + v(x)|) for the ambient fiber vectors.

    The first vanishes for sections taking equal values at antipodes, the
    second for sections taking opposite values.
    """
    xs = np.asarray(points, dtype=float)
    v = sigma.values(xs)
    w = sigma.values(-xs)
    same = float(np.linalg.norm(w - v, axis=-1).max())
    opposite = float(np.linalg.norm(w + v, axis=-1).max())
    return same, opposite
