"""Scalar fields on the sphere, parity decomposition, and section modules.

Functions on S2 split into even and odd parts under the antipode map (the
isotypic decomposition for the two-element group).  Odd functions a are in
bijection with coefficient triples f_a(x) = x_a * a(x) fixed by the projector
(x_a x_b), which are in bijection with sections of the nontrivial line bundle
(SectionXi, presented in the linear gauge chi(x) = x) and with their
pull-backs a(x) * chi(x) upstairs, in any gauge ChiVariant.field.  Invariance
of a pull-back section under the induced group action is equivalent to
membership in the image of that chain, i.e. to the coefficient being odd, in
every gauge; which *singlevaluedness* identity the section satisfies depends
on the gauge parity instead.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .config_space import GroupElement, SpherePoint
from .errors import BindingError, GeometryError, ParityError
from .line_bundle import ActionLabel, ChiVariant, GroupAction

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
    shape (...), or (k, ...) for a family of k fields (see
    polynomial_family).  Fields are immutable.  The operators build composite
    fields whose evaluator keeps the operation and the operand fields as
    data, so one call walks the expression once and evaluates each leaf at
    most once at x and once at -x (see evaluate_fields).
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    parity: str | None = None
    name: str = "field"

    def __call__(self, x):
        if isinstance(x, SpherePoint):
            v = np.asarray(self.evaluator(x.vec[None, :]))[..., 0]
            return complex(v) if v.ndim == 0 else v
        xs = np.asarray(x, dtype=float)
        return np.asarray(self.evaluator(xs))

    def reflect(self) -> "ScalarField":
        """The field x -> a(-x)."""
        return ScalarField(_Expression(None, (self,)), self.parity, f"{self.name}(-x)")

    def __add__(self, other: "ScalarField") -> "ScalarField":
        return ScalarField(
            _Expression(operator.add, (self, other)),
            _combine_parity(self.parity, other.parity, "add"),
            f"({self.name}+{other.name})",
        )

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        return self + (-other)

    def __neg__(self) -> "ScalarField":
        return ScalarField(_Expression(operator.neg, (self,)), self.parity, f"-{self.name}")

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            return ScalarField(
                _Expression(operator.mul, (self, other)),
                _combine_parity(self.parity, other.parity, "mul"),
                f"{self.name}*{other.name}",
            )
        scale = functools.partial(operator.mul, complex(other))
        return ScalarField(_Expression(scale, (self,)), self.parity, f"{other}*{self.name}")

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class _Expression:
    """The evaluator of a composite field: combine(*operand values), or with
    combine None the single operand at -x (reflect)."""

    combine: Callable | None
    operands: tuple[ScalarField, ...]

    def __call__(self, xs):
        return _expression_values([self], np.asarray(xs, dtype=float))[0]


def _expression_values(evaluators, xs: np.ndarray) -> list:
    """Values of several evaluators at xs in one walk of their expressions.

    Values are keyed by evaluator and by the sign of the point set, which
    reflect flips, so every leaf runs at most once at xs and once at -xs.
    A first walk counts the readers of each value, and the second drops a
    value once its last reader has it.
    """
    readers = collections.Counter()
    pending = [(ev, 1) for ev in evaluators]
    while pending:
        ev, sign = pending.pop()
        readers[id(ev), sign] += 1
        if readers[id(ev), sign] == 1 and isinstance(ev, _Expression):
            inner = -sign if ev.combine is None else sign
            pending.extend((f.evaluator, inner) for f in ev.operands)
    points, memo = {1: xs}, {}
    return [_value(ev, 1, points, memo, readers) for ev in evaluators]


def _value(ev, sign: int, points: dict, memo: dict, readers: collections.Counter):
    key = (id(ev), sign)
    if key not in memo:
        if not isinstance(ev, _Expression):
            if sign not in points:
                points[sign] = -points[1]
            memo[key] = ev(points[sign])
        elif ev.combine is None:
            memo[key] = _value(ev.operands[0].evaluator, -sign, points, memo, readers)
        else:
            memo[key] = ev.combine(
                *(_value(f.evaluator, sign, points, memo, readers) for f in ev.operands)
            )
    readers[key] -= 1
    return memo[key] if readers[key] else memo.pop(key)


def evaluate_fields(fields, xs) -> list[np.ndarray]:
    """The values of several fields at an (..., 3) array, sharing one evaluation pass."""
    xs = np.asarray(xs, dtype=float)
    return [np.asarray(v) for v in _expression_values([f.evaluator for f in fields], xs)]


@functools.cache
def coordinate_field(i: int) -> ScalarField:
    """The odd coordinate function x_i (i in {1, 2, 3}); one shared field per index."""
    if i not in (1, 2, 3):
        raise GeometryError("coordinate index must be 1, 2 or 3")
    return ScalarField(lambda xs: np.asarray(xs)[..., i - 1] + 0j, "odd", f"x{i}")


@dataclass(frozen=True, eq=False)
class _Polynomial:
    """The evaluator of sum_m c_m x^e_m: exponents (M, 3), coefficients (M,) or (k, M).

    Evaluation builds one table of coordinate powers by repeated
    multiplication and accumulates real and imaginary parts per term, for
    all k members at once; every member sees the IEEE operations of its own
    single polynomial, in the same order.  Since negation is exact, a
    pure-parity polynomial obeys p(-x) = +-p(x) bit for bit.
    """

    exponents: np.ndarray
    coefficients: np.ndarray

    @functools.cached_property
    def _terms(self) -> list:
        """(exponents, Re c, Im c) per term: floats for one polynomial, (k, 1)
        columns for a family, None for a part that is zero in every member."""

        def part(c):
            return None if not c.any() else c[:, None] if c.ndim else float(c)

        return [
            (exps, part(c.real), part(c.imag))
            for exps, c in zip(self.exponents.tolist(), self.coefficients.T)
        ]

    def __call__(self, xs):
        xs = np.asarray(xs, dtype=float)
        flat = xs.reshape(-1, 3)  # the samples on one axis, after the member axis
        powers = []  # powers[a][d] = x_a^d for 1 <= d <= the top exponent of x_a
        for a, top in enumerate(self.exponents.max(axis=0, initial=0).tolist()):
            row = [None, flat[:, a]]
            while len(row) <= top:
                row.append(row[-1] * flat[:, a])
            powers.append(row)
        shape = self.coefficients.shape[:-1] + flat.shape[:1]
        re = np.zeros(shape)
        im = np.zeros(shape)
        for exps, c_re, c_im in self._terms:
            factors = [powers[a][d] for a, d in enumerate(exps) if d]
            mono = functools.reduce(np.multiply, factors) if factors else 1.0
            if c_re is not None:
                re += c_re * mono
            if c_im is not None:
                im += c_im * mono
        return (re + 1j * im).reshape(self.coefficients.shape[:-1] + xs.shape[:-1])


def _polynomial(coefficients, exponents, name: str) -> ScalarField:
    """A polynomial field, or a family for 2-D coefficients; parity comes from the exponents.

    Parity is declared when every monomial with a nonzero coefficient (in
    any member) has the same total-degree parity: on the unit sphere the
    antipode flips a monomial by (-1)^degree.
    """
    exponents = np.asarray(exponents, dtype=int).reshape(-1, 3)
    coefficients = np.asarray(coefficients, dtype=complex)
    live = np.any(coefficients != 0, axis=tuple(range(coefficients.ndim - 1)))
    degrees = set((exponents[live].sum(axis=1) % 2).tolist())
    parity = "even" if degrees <= {0} else "odd" if degrees == {1} else None  # zero: even
    return ScalarField(_Polynomial(exponents, coefficients), parity, name)


def polynomial_field(terms, name: str | None = None) -> ScalarField:
    """Polynomial in (x1, x2, x3): terms is a list of (coeff, (i, j, k))."""
    terms = [(complex(c), (int(e[0]), int(e[1]), int(e[2]))) for c, e in terms]
    return _polynomial(
        [c for c, _ in terms], [e for _, e in terms], name or _polynomial_name(terms)
    )


def polynomial_family(coefficients, exponents, name: str = "polynomial family") -> ScalarField:
    """k polynomials sharing one exponent table: coefficients (k, M), exponents (M, 3).

    Values carry a leading member axis of length k, and every operator and
    section function broadcasts over it; member i is bit-identical to
    polynomial_field(zip(coefficients[i], exponents)).
    """
    coefficients = np.asarray(coefficients)
    exponents = np.asarray(exponents, dtype=int).reshape(-1, 3)
    if coefficients.ndim != 2 or coefficients.shape[1] != len(exponents):
        raise GeometryError("family coefficients must be (members, terms), one term per exponent row")
    return _polynomial(coefficients, exponents, name)


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


def random_polynomial_families(
    rng, members: int, count: int, max_degree: int = 5, parity: str | None = None
) -> list[ScalarField]:
    """count families of members random polynomials each, drawn in one call.

    The draw consumes the stream exactly as members rounds of count
    random_polynomial calls: member i of family j is the j-th polynomial of
    round i, bit for bit.
    """
    exps = list(_monomials(max_degree, parity))
    coeffs = rng.standard_normal((members, count, len(exps)))
    name = f"poly<=deg{max_degree}:{parity or 'mixed'}"
    return [polynomial_family(coeffs[:, j], exps, name) for j in range(count)]


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


def sampled_parity(a: ScalarField, parity: str) -> tuple[float, bool]:
    """The sampled test of parity on validation_grid(): (defect, passed).

    The defect is sup |a(x) -+ a(-x)|, and it passes when it is at most
    FUNCTIONAL_TOL * max(1, sup |a(x)|).  A family passes when every member
    does against its own scale; the defect returned is the largest.
    """
    v, w = evaluate_fields([a, a.reflect()], validation_grid())
    defect = np.abs(v + w if parity == "odd" else v - w).max(axis=-1)
    bound = FUNCTIONAL_TOL * np.maximum(1.0, np.abs(v).max(axis=-1))
    return float(defect.max()), bool(np.all(defect <= bound))


def _require_parity(a: ScalarField, parity: str, what: str) -> None:
    if a.parity == parity:
        return
    opposite = "odd" if parity == "even" else "even"
    if a.parity == opposite:
        raise ParityError(f"{what} must be {parity}, got a declared-{opposite} field {a.name!r}")
    defect, passed = sampled_parity(a, parity)
    if not passed:
        raise ParityError(f"{what} must be {parity}; sampled defect {defect:.3e}")


@dataclass(frozen=True)
class SectionXi:
    """A section of the nontrivial line bundle as even coefficients f_a.

    The section is sum_a f_a(x) * x_a * x in the linear gauge chi(x) = x,
    and its coefficient triple is fixed by the projector:
    sum_a x_b x_a f_a = f_b.  pullback_T lifts it to a(x) * x upstairs.
    """

    f1: ScalarField
    f2: ScalarField
    f3: ScalarField

    def __post_init__(self):
        for f in (self.f1, self.f2, self.f3):
            _require_parity(f, "even", "section coefficient")

    @property
    def fields(self) -> tuple[ScalarField, ScalarField, ScalarField]:
        return (self.f1, self.f2, self.f3)

    def coefficient_values(self, xs: np.ndarray) -> np.ndarray:
        """The triple (f1, f2, f3) at xs, (..., 3), from one evaluation pass."""
        return np.stack(evaluate_fields(self.fields, xs), axis=-1)

    def projector_residual(self, xs: np.ndarray) -> float:
        """sup-norm of (p f - f) over the sample; zero for genuine sections."""
        xs = np.asarray(xs, dtype=float)
        return projector_defect(xs, self.coefficient_values(xs))


def projector_defect(xs: np.ndarray, coeffs: np.ndarray) -> float:
    """sup-norm of (p f - f) for coefficient values (..., 3) at the points xs."""
    a_vals = np.einsum("...a,...a->...", xs, coeffs)
    return float(np.linalg.norm(xs * a_vals[..., None] - coeffs, axis=-1).max())


def section_from_odd(a: ScalarField) -> SectionXi:
    """The section with coefficients f_a(x) = x_a * a(x) for an odd function a."""
    _require_parity(a, "odd", "coefficient function")
    f1, f2, f3 = (coordinate_field(i) * a for i in (1, 2, 3))
    return SectionXi(f1, f2, f3)


def odd_from_section(f: SectionXi) -> ScalarField:
    """Recover the odd function a(x) = sum_a x_a f_a(x); inverse of section_from_odd.

    The projector residual on validation_grid() is measured on the
    coefficients divided by max(1, sup |f|), the scale sampled_parity uses
    (per member for a family).
    """
    xs = validation_grid()
    coeffs = f.coefficient_values(xs)
    scale = np.maximum(1.0, np.abs(coeffs).max(axis=(-2, -1), keepdims=True))
    residual = projector_defect(xs, coeffs / scale)
    if residual > FUNCTIONAL_TOL:
        raise GeometryError(
            f"coefficients are not projector-fixed (residual {residual:.3e}); not a section"
        )
    x1, x2, x3 = (coordinate_field(i) for i in (1, 2, 3))
    return replace(x1 * f.f1 + x2 * f.f2 + x3 * f.f3, parity="odd", name="sum_a x_a*f_a")


def project_to_section(g1: ScalarField, g2: ScalarField, g3: ScalarField) -> SectionXi:
    """Apply the projector (x_a x_b) to an even coefficient triple."""
    for g in (g1, g2, g3):
        _require_parity(g, "even", "coefficient")
    inner = coordinate_field(1) * g1 + coordinate_field(2) * g2 + coordinate_field(3) * g3
    return SectionXi(
        coordinate_field(1) * inner,
        coordinate_field(2) * inner,
        coordinate_field(3) * inner,
    )


@dataclass(frozen=True)
class PullbackSection:
    """A section of the pulled-back bundle upstairs: x -> (x, a(x) * chi(x))."""

    coefficient: ScalarField
    variant: ChiVariant = ChiVariant.ODD_LINEAR

    def values(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return self.coefficient(xs)[..., None] * self.variant.field.vector(xs)

    def sup_norm(self, xs: np.ndarray) -> float:
        return float(np.linalg.norm(self.values(xs), axis=-1).max())


def pullback_T(f: SectionXi) -> PullbackSection:
    """Lift a section to the pull-back bundle: T(s)(x) = (x, a(x) x).

    The term x_a in e_a(x) = x_a x is absorbed into the coefficients,
    leaving the odd function a = sum_a x_a f_a against the linear gauge.
    The image is exactly the set of invariant sections upstairs.
    """
    return PullbackSection(odd_from_section(f))


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
