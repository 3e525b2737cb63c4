import functools
import math
import operator

import numpy as np
import pytest
from conftest import assemble_values, constant_curve
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbundles.config_space import SpherePoint, angles_of, antipode_angles
from spinbundles.errors import GeometryError
from spinbundles.line_bundle import ChiVariant, projector_minus
from spinbundles.berry_robbins import (
    CLEBSCH_GORDAN,
    DIMENSION,
    PRODUCT_LABELS,
    TOTAL_LABELS,
    TRIPLET_KS,
    TRIPLET_MS,
    SpinStatisticsReport,
    TwoSpinWaveFunction,
    antisymmetrize,
    block_matrix,
    br_parallel_residual,
    exchange_block,
    exchange_full_angles,
    exchange_line_field,
    exchange_rule_residual,
    moved_product_frames,
    perturbed_block,
    product_vector,
    projector_P0,
    projector_Pm,
    singlet_field,
    singlet_vector,
    spin_statistics_check,
    swap_label,
    total_spin_vector,
    transported_basis,
    transported_component_vector,
    triplet_vector,
)
from spinbundles.section_algebra import coordinate_field, polynomial_field
from spinbundles.transport import antipodal_arc, great_circle, holonomy, parallel_transport

SQRT2 = math.sqrt(2.0)
ZERO = polynomial_field([])
ONE = polynomial_field([(1.0, (0, 0, 0))])


def _zero_wavefunction():
    return TwoSpinWaveFunction({lbl: ZERO for lbl in PRODUCT_LABELS}, "product")


def _to_total(psi):
    """The total-label coefficients psi_jm = sum_M <j m|M> psi_M of a product-label psi."""
    old = [psi.coefficients[lbl] for lbl in PRODUCT_LABELS]
    new = {
        lbl: functools.reduce(operator.add, [w * c for w, c in zip(row, old) if w])
        for lbl, row in zip(TOTAL_LABELS, CLEBSCH_GORDAN.tolist())
    }
    return TwoSpinWaveFunction(new, "total")


def test_scheme_vectors_orthonormal():
    vs = [triplet_vector(m, k) for m in TRIPLET_MS for k in TRIPLET_KS]
    vs.append(singlet_vector())
    gram = np.array([[np.vdot(a, b) for b in vs] for a in vs])
    assert np.abs(gram - np.eye(DIMENSION)).max() < 1e-12


def test_scheme_slots():
    # pure slots of the scheme, written against e1..e10
    assert np.argmax(np.abs(triplet_vector(-1, -1))) == 7   # e8
    assert np.argmax(np.abs(triplet_vector(-1, 0))) == 1    # e2
    assert np.argmax(np.abs(triplet_vector(-1, 1))) == 9    # e10
    assert np.argmax(np.abs(triplet_vector(0, -1))) == 4    # e5
    assert np.argmax(np.abs(triplet_vector(0, 1))) == 5     # e6
    assert np.argmax(np.abs(triplet_vector(1, -1))) == 6    # e7
    assert np.argmax(np.abs(triplet_vector(1, 0))) == 0     # e1
    assert np.argmax(np.abs(triplet_vector(1, 1))) == 8     # e9
    mid = triplet_vector(0, 0)
    assert mid[2] == pytest.approx(1 / SQRT2) and mid[3] == pytest.approx(1 / SQRT2)
    s = singlet_vector()
    assert s[2] == pytest.approx(1 / SQRT2) and s[3] == pytest.approx(-1 / SQRT2)


def test_clebsch_gordan_labels_are_unitary_and_match_oscillator_slots():
    p = np.column_stack([product_vector(lbl) for lbl in PRODUCT_LABELS])
    assert np.abs(p.conj().T @ p - np.eye(4)).max() < 1e-12
    # |++>, |-->, |+->, |-+> sit on e1..e4 exactly
    assert np.abs(p - np.eye(DIMENSION)[:, :4]).max() < 1e-12
    # the one table every change of labels reads is orthogonal
    assert np.abs(CLEBSCH_GORDAN @ CLEBSCH_GORDAN.T - np.eye(4)).max() < 1e-15
    assert np.abs(CLEBSCH_GORDAN.T @ CLEBSCH_GORDAN - np.eye(4)).max() < 1e-15


def test_swap_label():
    assert swap_label((1, -1)) == (-1, 1)
    assert swap_label(swap_label((1, -1))) == (1, -1)


def test_exchange_block_identity_at_zero():
    assert np.array_equal(exchange_block(0.0, 0.7), np.eye(3, dtype=complex))


def test_exchange_block_frozen_value():
    # direct substitution at theta = pi/2, phi = 0
    expected = np.array(
        [
            [0.5, -1 / SQRT2, 0.5],
            [1 / SQRT2, 0.0, -1 / SQRT2],
            [0.5, 1 / SQRT2, 0.5],
        ]
    )
    assert np.abs(exchange_block(np.pi / 2, 0.0) - expected).max() < 1e-15


def test_exchange_block_unitary_everywhere(rng):
    theta = rng.uniform(0, np.pi, 1000)
    phi = rng.uniform(0, 2 * np.pi, 1000)
    u = exchange_block(theta, phi)
    defect = np.abs(np.einsum("...ji,...jk->...ik", u.conj(), u) - np.eye(3)).max()
    assert defect < 1e-12
    assert np.abs(np.linalg.det(u) - 1.0).max() < 1e-12


def test_exchange_full_blocks_and_singlet(points):
    theta, phi = angles_of(points[:128])
    u10 = exchange_full_angles(theta, phi)
    # unitary on the whole space
    defect = np.abs(np.einsum("...ji,...jk->...ik", u10.conj(), u10) - np.eye(10)).max()
    assert defect < 1e-12
    s = singlet_vector()
    assert np.linalg.norm(u10 @ s - s, axis=-1).max() < 1e-12
    for m in TRIPLET_MS:
        b = block_matrix(m).real
        restriction = np.einsum("ia,...ij,jb->...ab", b, u10, b)
        assert np.abs(restriction - exchange_block(theta, phi)).max() < 1e-12


def test_exchange_full_identity():
    # the sqrt(2) embedding of the mixed slots costs one ulp at theta = 0
    north = SpherePoint(0.0, 0.0, 1.0)
    assert np.abs(exchange_full_angles(*angles_of(north.vec)) - np.eye(10)).max() < 1e-15


def test_transported_basis_examples(points):
    north = SpherePoint(0.0, 0.0, 1.0)
    assert np.allclose(transported_basis(1, 1, north), triplet_vector(1, 0))
    for v in points[:64]:
        x = SpherePoint.from_vec(v)
        assert np.allclose(transported_basis(0, 0, x), singlet_vector())
        u10 = exchange_full_angles(*angles_of(x.vec))
        for m in TRIPLET_MS:
            moved = transported_basis(1, m, x)
            assert np.linalg.norm(moved - u10 @ total_spin_vector(1, m)) < 1e-12
            assert abs(np.linalg.norm(moved) - 1.0) < 1e-12
    with pytest.raises(GeometryError):
        transported_basis(2, 0, north)


def test_transported_basis_antipodal_signs(points):
    for v in points[:512]:
        x = SpherePoint.from_vec(v)
        for m in TRIPLET_MS:
            res = np.linalg.norm(transported_basis(1, m, -x) + transported_basis(1, m, x))
            assert res < 1e-12


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _seam_point(pair, t, signs):
    v = np.full(3, np.sqrt(max(1.0 - 2.0 * t * t, 0.0)))
    v[list(pair)] = t
    return _unit(v * np.array(signs))


# Unit vectors at the poles, within 1e-9 of them, on the chart seams
# |x_a| = |x_b|, and at random.
_NEAR_POLE = st.builds(
    lambda eps, az, sign: _unit([eps * np.cos(az), eps * np.sin(az), sign]),
    st.floats(0.0, 1e-9),
    st.floats(0.0, 2 * np.pi),
    st.sampled_from([-1.0, 1.0]),
)
_SEAM = st.builds(
    _seam_point,
    st.sampled_from([(0, 1), (0, 2), (1, 2)]),
    st.floats(0.01, 1.0 / SQRT2),
    st.tuples(*[st.sampled_from([-1.0, 1.0])] * 3),
)
_RANDOM = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: np.linalg.norm(v) > 1e-3
).map(_unit)
# The azimuth seam x2 = +-0.0, x1 <= 0, where atan2 returns +-pi.
_AZIMUTH_SEAM = st.builds(
    lambda x3, zero: np.array([-np.sqrt(1.0 - x3 * x3), zero, x3]),
    st.floats(-1.0, 1.0),
    st.sampled_from([0.0, -0.0]),
)
# |x3| just above 1 but within SPHERE_TOL, where arccos needs the clip.
_PAST_POLE = st.builds(
    lambda t, az, excess, sign: np.array([t * np.cos(az), t * np.sin(az), sign * (1.0 + excess)]),
    st.floats(0.0, 1e-6),
    st.floats(0.0, 2 * np.pi),
    st.floats(0.0, 4e-10),
    st.sampled_from([-1.0, 1.0]),
)
_UNIT_VECTORS = st.one_of(
    st.sampled_from([np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])]),
    _NEAR_POLE,
    _SEAM,
    _AZIMUTH_SEAM,
    _PAST_POLE,
    _RANDOM,
)


@settings(max_examples=200, deadline=None)
@given(vs=st.lists(_UNIT_VECTORS, min_size=1, max_size=12))
def test_moved_basis_array_forms_match_scalar_bitwise(vs):
    xs = np.array(vs)
    pm = projector_Pm(xs)
    moved = {m: transported_basis(1, m, xs) for m in TRIPLET_MS}
    for i, v in enumerate(xs):
        x = SpherePoint.from_vec(v)
        assert np.array_equal(projector_Pm(x), pm[i])
        for m in TRIPLET_MS:
            assert np.array_equal(transported_basis(1, m, x), moved[m][i])
        assert np.array_equal(transported_basis(0, 0, x), singlet_vector())


def test_scalar_moved_basis_checks_labels_and_returns_fresh_arrays():
    x = SpherePoint.from_direction([0.3, -0.5, 0.7])
    for j, m in ((0, 1), (2, 0), (1, 2)):
        for r in (x, x.vec, x.vec[None]):
            with pytest.raises(GeometryError):
                transported_basis(j, m, r)
    returned = [transported_basis(j, m, x) for j, m in ((1, -1), (1, 0), (1, 1), (0, 0))]
    returned.append(projector_Pm(x))
    before = [a.copy() for a in returned]
    for a in returned:
        a[...] = 7.0
    again = [transported_basis(j, m, x) for j, m in ((1, -1), (1, 0), (1, 1), (0, 0))]
    again.append(projector_Pm(x))
    for a, b in zip(again, before):
        assert np.array_equal(a, b)
    assert np.array_equal(transported_basis(0, 0, x.vec), singlet_vector())


def test_moved_basis_array_shapes(points):
    for xs in (points[0], points[:10], points[:10].reshape(2, 5, 3)):
        lead = xs.shape[:-1]
        assert projector_Pm(xs).shape == lead + (3, 3)
        for j, m in ((1, -1), (1, 0), (1, 1), (0, 0)):
            assert transported_basis(j, m, xs).shape == lead + (DIMENSION,)
        flat = projector_Pm(xs.reshape(-1, 3))
        assert np.array_equal(projector_Pm(xs), flat.reshape(lead + (3, 3)))
        singlet = transported_basis(0, 0, xs)
        assert np.array_equal(singlet, np.broadcast_to(singlet_vector(), singlet.shape))


def _frames_reference(theta, phi, block_fn):
    # the definition |M(r)> = U(r)|M>, with the full 10x10 rotation
    pm = np.column_stack([product_vector(lbl) for lbl in PRODUCT_LABELS])
    return exchange_full_angles(theta, phi, block_fn) @ pm


def test_transported_orthonormal(points):
    theta, phi = angles_of(points[:256])
    frames = moved_product_frames(theta, phi)
    gram = np.einsum("...ia,...ib->...ab", frames.conj(), frames)
    assert np.abs(gram - np.eye(4)).max() < 1e-12
    for block_fn in (None, perturbed_block):
        reference = _frames_reference(theta, phi, block_fn)
        assert np.abs(moved_product_frames(theta, phi, block_fn) - reference).max() < 1e-15


_POLAR = st.one_of(
    st.sampled_from([0.0, np.pi]),
    st.floats(0.0, 1e-9),
    st.floats(np.pi - 1e-9, np.pi),
    st.floats(0.0, np.pi),
)


@settings(max_examples=200, deadline=None)
@given(theta=_POLAR, phi=st.floats(0.0, 2 * np.pi), perturbed=st.booleans())
def test_moved_frames_match_full_rotation(theta, phi, perturbed):
    block_fn = perturbed_block if perturbed else None
    frames = moved_product_frames(theta, phi, block_fn)
    assert frames.shape == (DIMENSION, 4)
    assert np.abs(frames - _frames_reference(theta, phi, block_fn)).max() < 1e-15


def test_exchange_rule_residual(points):
    assert exchange_rule_residual(points[:1000]) < 1e-10
    assert exchange_rule_residual(points[:1000], "total") < 1e-10


def test_exchange_rule_on_dense_angle_grid():
    theta, phi = np.meshgrid(
        np.linspace(0.0, np.pi, 60), np.linspace(0.0, 2 * np.pi, 60, endpoint=False)
    )
    st = np.sin(theta)
    grid = np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)
    assert exchange_rule_residual(grid.reshape(-1, 3)) < 1e-10


def test_exchange_rule_reduction_at_pole():
    # at r = e3 the rule reads U(pi, pi)|swap(M)> = -|M>
    theta, phi = angles_of(np.array([0.0, 0.0, 1.0]))
    atheta, aphi = antipode_angles(theta, phi)
    assert atheta == pytest.approx(np.pi) and aphi == pytest.approx(np.pi)
    u_there = exchange_full_angles(np.asarray(atheta), np.asarray(aphi))
    for lbl in PRODUCT_LABELS:
        lhs = u_there @ product_vector(swap_label(lbl))
        rhs = -product_vector(lbl)
        assert np.linalg.norm(lhs - rhs) < 1e-12


def test_exchange_rule_detects_perturbation(points):
    assert exchange_rule_residual(points[:200], "product", perturbed_block) > 1e-4


def test_br_parallel_residual_great_circle():
    g = great_circle([1, 0, 0], [0, 0, 1])
    assert br_parallel_residual(g, 1e-5) < 1e-8
    assert br_parallel_residual(constant_curve(SpherePoint(0.0, 0.0, 1.0)), 1e-5) == 0.0


def test_br_parallel_residual_second_order_decay():
    from spinbundles.transport import reparametrize

    g = great_circle([1, 0, 0], [0, 0, 1])
    warped = reparametrize(
        g,
        lambda t: t + 0.1 * np.sin(2 * np.pi * t),
        lambda t: 1.0 + 0.2 * np.pi * np.cos(2 * np.pi * t),
    )
    r_coarse = br_parallel_residual(warped, 1e-4)
    r_fine = br_parallel_residual(warped, 5e-5)
    assert 3.0 < r_coarse / r_fine < 5.0


def test_br_parallel_residual_validates_step():
    g = great_circle([1, 0, 0], [0, 0, 1])
    with pytest.raises(GeometryError):
        br_parallel_residual(g, 1e-2)


def test_projector_p0():
    p0 = projector_P0()
    assert np.array_equal(p0, np.diag([0, 1, 0]).astype(complex))
    assert np.abs(p0 @ p0 - p0).max() == 0.0
    for k, expect in ((-1, 0.0), (0, 1.0), (1, 0.0)):
        idx = TRIPLET_KS.index(k)
        col = np.zeros(3)
        col[idx] = 1.0
        assert np.linalg.norm(p0 @ col) == pytest.approx(expect)


def test_projector_pm_properties(points):
    north = SpherePoint(0.0, 0.0, 1.0)
    assert np.abs(projector_Pm(north) - projector_P0()).max() == 0.0
    for v in points[:512]:
        x = SpherePoint.from_vec(v)
        pm = projector_Pm(x)
        # even, rank one, and equal to the dyad of the moved vector
        assert np.abs(projector_Pm(-x) - pm).max() < 1e-12
        th, ph = angles_of(v)
        tv = transported_component_vector(th, ph)
        assert np.abs(pm - np.outer(tv, tv.conj())).max() < 1e-12
        assert abs(np.trace(pm) - 1.0) < 1e-12


def test_projector_pm_matches_odd_harmonic_gauge(points):
    for v in points[:512]:
        x = SpherePoint.from_vec(v)
        assert np.abs(projector_Pm(x) - projector_minus(x, ChiVariant.ODD_HARMONIC)).max() < 1e-12


def test_moved_line_holonomy_decomposition():
    arc = antipodal_arc([1, 0, 0], [0, 0, 1])
    for m in TRIPLET_MS:
        h = holonomy(exchange_line_field(m), arc, 2048)
        assert abs(h + 1.0) < 1e-6
    assert holonomy(singlet_field(), arc, 64) == 1.0


def test_exchange_line_field_matches_rotated_p0(points):
    # reference: the moved projector built from the full rotation, U P0 U†;
    # U depends on the angles, which lose digits like 1/sin(theta) at the poles
    theta, phi = angles_of(points)
    u = exchange_full_angles(theta, phi)
    tol = 1e-12 / np.maximum(np.hypot(points[:, 0], points[:, 1]), 1e-4)
    for m in TRIPLET_MS:
        v = triplet_vector(m, 0)
        reference = u @ np.outer(v, v.conj()) @ np.conj(np.swapaxes(u, -1, -2))
        err = np.abs(exchange_line_field(m).evaluate(points) - reference).max(axis=(-2, -1))
        assert np.all(err <= tol)


def test_transport_crosscheck_reproduces_moved_basis():
    g = great_circle([1, 0, 0], [0, 0, 1])
    field = exchange_line_field(0)
    from spinbundles.transport import restrict

    half = restrict(g, 0.0, 0.5)
    w0 = transported_basis(1, 0, g.point(0.0))
    w1 = parallel_transport(field, half, w0, 2048)
    assert np.linalg.norm(w1 - transported_basis(1, 0, g.point(0.5))) < 1e-6


def test_wavefunction_label_validation():
    with pytest.raises(GeometryError):
        TwoSpinWaveFunction({(1, 1): ZERO}, "product")
    with pytest.raises(GeometryError):
        TwoSpinWaveFunction({}, "weird")


def test_assemble_examples(points):
    psi0 = _zero_wavefunction()
    assert np.abs(assemble_values(psi0, points[:32])).max() == 0.0

    labels = ((1, -1), (1, 0), (1, 1), (0, 0))
    coeffs = {lbl: ZERO for lbl in labels}
    coeffs[(0, 0)] = ONE
    singlet_only = TwoSpinWaveFunction(coeffs, "total")
    vals = assemble_values(singlet_only, points[:32])
    assert np.abs(vals - singlet_vector()).max() < 1e-12


def test_assemble_odd_coefficient_times_moved_triplet_is_even(points):
    labels = ((1, -1), (1, 0), (1, 1), (0, 0))
    coeffs = {lbl: ZERO for lbl in labels}
    coeffs[(1, 0)] = coordinate_field(3)
    psi = TwoSpinWaveFunction(coeffs, "total")
    here = assemble_values(psi, points[:128])
    there = assemble_values(psi, -points[:128])
    assert np.abs(there - here).max() < 1e-12


def test_assemble_scalar_wrapper():
    psi = _zero_wavefunction()
    out = assemble_values(psi, SpherePoint(0.0, 0.0, 1.0).vec)
    assert out.shape == (DIMENSION,)


def test_clebsch_gordan_round_trip(points):
    rngl = np.random.default_rng(5)
    raw = {
        lbl: coordinate_field(1) * float(rngl.standard_normal())
        + polynomial_field([(float(rngl.standard_normal()), (0, 0, 0))])
        for lbl in PRODUCT_LABELS
    }
    psi = TwoSpinWaveFunction(raw, "product")
    back = _to_total(psi).to_product()
    for lbl in PRODUCT_LABELS:
        assert np.abs(back.coefficients[lbl](points[:64]) - raw[lbl](points[:64])).max() < 1e-15
    # assembling in either labeling gives the same state
    a = assemble_values(psi, points[:64])
    b = assemble_values(_to_total(psi), points[:64])
    assert np.abs(a - b).max() < 1e-12


def test_spin_statistics_constructed_family(points, rng):
    from spinbundles.section_algebra import random_polynomial

    raw = {lbl: random_polynomial(rng, 3) for lbl in PRODUCT_LABELS}
    psi = TwoSpinWaveFunction(antisymmetrize(raw), "product")
    rep = spin_statistics_check(psi, points[:512])
    assert rep.singlevalued_residual < 1e-10
    assert rep.coefficient_relation_residual < 1e-10


def test_spin_statistics_violating_family(points):
    psi = TwoSpinWaveFunction(
        {lbl: ONE for lbl in PRODUCT_LABELS}, "product"
    )
    rep = spin_statistics_check(psi, points[:512])
    assert rep.singlevalued_residual > 0.1
    assert rep.coefficient_relation_residual > 0.1


def test_spin_statistics_zero(points):
    rep = spin_statistics_check(_zero_wavefunction(), points)
    assert rep.singlevalued_residual == 0.0
    assert rep.coefficient_relation_residual == 0.0


def _spin_report_reference(psi, xs):
    # two passes: assemble the states at r and -r, then evaluate every
    # coefficient again for the relation psi_swap(M)(-r) = -psi_M(r)
    psi = psi.to_product()

    def state(ys):
        frames = moved_product_frames(*angles_of(ys))
        coeffs = np.stack([psi.coefficients[lbl](ys) for lbl in PRODUCT_LABELS], axis=-1)
        return np.einsum("...ia,...a->...i", frames, coeffs)

    singlevalued = float(np.linalg.norm(state(-xs) - state(xs), axis=-1).max())
    relation = 0.0
    for lbl in PRODUCT_LABELS:
        a = psi.coefficients[lbl](xs)
        b = psi.coefficients[swap_label(lbl)](-xs)
        relation = max(relation, float(np.abs(b + a).max()))
    return SpinStatisticsReport(singlevalued, relation)


def test_residuals_vanish_together(points, rng):
    from spinbundles.section_algebra import random_polynomial

    for _ in range(50):
        raw = {lbl: random_polynomial(rng, 3) for lbl in PRODUCT_LABELS}
        comply = bool(rng.integers(0, 2))
        psi = TwoSpinWaveFunction(antisymmetrize(raw) if comply else raw, "product")
        rep = spin_statistics_check(psi, points[:256])
        assert rep == _spin_report_reference(psi, points[:256])
        both_small = (
            rep.singlevalued_residual <= 1e-10 and rep.coefficient_relation_residual <= 1e-10
        )
        both_large = (
            rep.singlevalued_residual > 1e-3 and rep.coefficient_relation_residual > 1e-3
        )
        assert both_small if comply else both_large


def test_spin_statistics_family_reports_each_member(points):
    from spinbundles.section_algebra import random_polynomial, random_polynomial_families

    families = dict(zip(PRODUCT_LABELS, random_polynomial_families(np.random.default_rng(5), 6, 4, 3)))
    sequential = np.random.default_rng(5)
    members = [{lbl: random_polynomial(sequential, 3) for lbl in PRODUCT_LABELS} for _ in range(6)]
    for xs in (points[:128], points[:10].reshape(2, 5, 3)):
        for prepare in (antisymmetrize, dict):
            rep = spin_statistics_check(TwoSpinWaveFunction(prepare(families)), xs)
            states = assemble_values(TwoSpinWaveFunction(prepare(families)), xs)
            assert rep.singlevalued_residual.shape == rep.coefficient_relation_residual.shape == (6,)
            assert states.shape == (6,) + xs.shape[:-1] + (DIMENSION,)
            for i, raw in enumerate(members):
                psi = TwoSpinWaveFunction(prepare(raw))
                assert spin_statistics_check(psi, xs) == SpinStatisticsReport(
                    rep.singlevalued_residual[i], rep.coefficient_relation_residual[i]
                )
                assert np.array_equal(states[i], assemble_values(psi, xs))
