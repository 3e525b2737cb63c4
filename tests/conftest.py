import dataclasses
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from spinbundles.berry_robbins import PRODUCT_LABELS, moved_product_frames
from spinbundles.config_space import COORD_EPS, SpherePoint, angles_of, sample_sphere
from spinbundles.experiments import SuiteConfig, run_suite
from spinbundles.section_algebra import evaluate_fields
from spinbundles.transport import Curve


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def points(rng):
    """2048 uniform sphere points shared across property tests."""
    return sample_sphere(2048, rng)


@pytest.fixture
def many_points():
    return sample_sphere(10_000, np.random.default_rng(555))


@pytest.fixture(scope="session")
def cached_suite():
    """run_suite for a config, computed once per session and keyed by every config field.

    Tests that share a config share its report; determinism tests call
    run_suite directly so that they compare two fresh runs.
    """
    reports = {}

    def run(**fields):
        config = SuiteConfig(**fields)
        key = dataclasses.astuple(config)
        if key not in reports:
            reports[key] = run_suite(config)
        return reports[key]

    return run


def constant_curve(p: SpherePoint) -> Curve:
    """The curve that stays at p: closed, with zero velocity."""
    v = p.vec
    return Curve(
        lambda t: np.broadcast_to(v, np.shape(t) + (3,)).copy(),
        lambda t: np.zeros(np.shape(t) + (3,)),
        "constant",
    )


def section_values(f, xs):
    """The fiber vectors sum_a f_a(x) e_a(x) of a section, with the generating
    sections e_a(x) = x_a * x of the linear gauge, (..., 3)."""
    xs = np.asarray(xs, dtype=float)
    return sum((c * xs[..., a])[..., None] * xs for a, c in enumerate(evaluate_fields(f.fields, xs)))


def assemble_values(psi, xs):
    """The two-spin state sum_M psi_M(r) |M(r)> over an (..., 3) sample, (..., 10)."""
    psi = psi.to_product()
    xs = np.asarray(xs, dtype=float)
    coeffs = np.stack(evaluate_fields([psi.coefficients[lbl] for lbl in PRODUCT_LABELS], xs), axis=-1)
    return np.einsum("...ia,...a->...i", moved_product_frames(*angles_of(xs)), coeffs)


# Coordinates at a chart boundary: signed zeros, and |x_a| at COORD_EPS and
# one ulp to either side of it.
_EDGE = [0.0, math.nextafter(COORD_EPS, 0.0), COORD_EPS, math.nextafter(COORD_EPS, 1.0)]
_EDGE_COORDS = st.sampled_from(_EDGE + [-c for c in _EDGE])
_SIGNS = st.sampled_from((1.0, -1.0))


@st.composite
def chart_edge_points(draw):
    """Unit vectors where the scalar chart queries branch: one or two boundary
    coordinates (two give the poles), seams |x_a| = |x_b|, and generic
    directions; the coordinates come in any order."""
    kind = draw(st.sampled_from(("edge", "seam", "generic")))
    if kind == "edge":
        a = draw(_EDGE_COORDS)
        b = draw(st.one_of(_EDGE_COORDS, st.floats(-1.0, 1.0)))
        coords = [a, b, draw(_SIGNS) * math.sqrt(max(0.0, 1.0 - a * a - b * b))]
    elif kind == "seam":
        t = draw(st.floats(0.0, math.sqrt(0.5)))
        c = math.sqrt(max(0.0, 1.0 - 2.0 * t * t))
        coords = [draw(_SIGNS) * t, draw(_SIGNS) * t, draw(_SIGNS) * c]
    else:
        v = draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(lambda v: math.hypot(*v) > 0.1))
        n = math.hypot(*v)
        coords = [c / n for c in v]
    return SpherePoint(*draw(st.permutations(coords)))
