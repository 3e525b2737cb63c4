import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinbundles import kernels
from spinbundles.berry_robbins import TRIPLET_MS, exchange_line_field
from spinbundles.config_space import SpherePoint
from spinbundles.transport import _horizontal_frame, great_circle


def _sequential_rk4(u, w, h, v0):
    """Reference: one classical RK4 step at a time, as matrix-vector products
    with the dense generator grid |w><u| - |u><w|."""
    gen = w[:, :, None] * u.conj()[:, None, :] - u[:, :, None] * w.conj()[:, None, :]
    v = np.asarray(v0, dtype=complex).copy()
    steps = (gen.shape[0] - 1) // 2
    out = np.empty((steps + 1, v.shape[0]), dtype=complex)
    out[0] = v
    for i in range(steps):
        a0 = gen[2 * i]
        am = gen[2 * i + 1]
        a1 = gen[2 * i + 2]
        k1 = a0 @ v
        k2 = am @ (v + (0.5 * h) * k1)
        k3 = am @ (v + (0.5 * h) * k2)
        k4 = a1 @ (v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = v
    return out


def _random_frame(rng, n, steps):
    """A frame u and a rate w, each of shape (2*steps + 1, n), with random complex entries."""
    shape = (2 * steps + 1, n)
    u, w = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
    return u, w


def _assert_matches_reference(u, w, h, v0):
    end = kernels.rk4_transport_path(u, w, h, v0)
    reference = _sequential_rk4(u, w, h, v0)[-1]
    assert end.shape == reference.shape
    assert np.linalg.norm(end - reference) / max(1.0, np.linalg.norm(reference)) < 1e-13
    return end


def test_zero_generator_is_exact_identity(rng):
    # The frame of a line that does not move: w = 0, u arbitrary.
    u = rng.standard_normal((2 * 32 + 1, 3)) + 1j * rng.standard_normal((2 * 32 + 1, 3))
    w = np.zeros_like(u)
    v0 = np.array([1.0, 2.0 - 1.0j, 3.0])
    end = kernels.rk4_transport_path(u, w, 1.0 / 32, v0)
    assert end.tobytes() == v0.tobytes()


def test_path_shape_and_start():
    u = np.zeros((2 * 16 + 1, 2), dtype=complex)
    v0 = np.array([1.0, 0.0], dtype=complex)
    assert kernels.rk4_transport_path(u, u, 1.0 / 16, v0).shape == (2,)
    # No steps: the endpoint is the start, as a fresh array.
    end = kernels.rk4_transport_path(u[:1], u[:1], 1.0, v0)
    assert end.tobytes() == v0.tobytes() and end is not v0
    end[...] = 0.0
    assert v0[0] == 1.0


def test_rejects_malformed_grid():
    good = np.zeros((5, 3), dtype=complex)
    for u, w, v0 in (
        (np.zeros((4, 3)), np.zeros((4, 3)), np.zeros(3)),  # even node count
        (good, np.zeros((7, 3)), np.zeros(3)),  # frame and rate of different shapes
        (good, np.zeros((5, 4)), np.zeros(3)),
        (np.zeros((5, 3, 2)), np.zeros((5, 3, 2)), np.zeros(3)),  # not (nodes, n)
        (np.zeros(5), np.zeros(5), np.zeros(3)),
        (good, good, np.zeros(2)),  # wrong start length
    ):
        with pytest.raises(ValueError):
            kernels.rk4_transport_path(u, w, 0.5, v0)


def test_path_matches_sequential_reference(rng):
    for n, steps in ((4, 50), (3, 4096), (10, 1031)):
        u, w = _random_frame(rng, n, steps)
        v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        _assert_matches_reference(u, w, 1.0 / steps, v0)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10), steps=st.integers(0, 300))
@example(seed=0, n=4, steps=0)
@example(seed=1, n=3, steps=1)
@example(seed=2, n=10, steps=2)
@example(seed=3, n=3, steps=97)
@example(seed=4, n=10, steps=293)
@example(seed=5, n=1, steps=290)
def test_blocked_scan_matches_sequential_reference(seed, n, steps):
    # Primes and non-squares leave the last block of the scan padded.
    rng = np.random.default_rng(seed)
    u, w = _random_frame(rng, n, steps)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    h = 1.0 / max(steps, 1)
    end = _assert_matches_reference(u, w, h, v0)
    assert end.shape == (n,)
    flat = kernels.rk4_transport_path(u, np.zeros_like(w), h, v0)
    assert flat.tobytes() == v0.tobytes()
    with pytest.raises(ValueError):
        kernels.rk4_transport_path(u, w, h, np.ones(n + 1))


def test_norm_preserved_for_smooth_antihermitian_generator(rng):
    # |w><u| - |u><w| is anti-Hermitian for any u, w: the exact flow is
    # unitary, and RK4 drifts only at its truncation order.
    a, b, c, d = (rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(4))
    steps = 400
    ts = np.linspace(0.0, 1.0, 2 * steps + 1)[:, None]
    u = np.cos(2 * np.pi * ts) * a + np.sin(2 * np.pi * ts) * b
    w = np.sin(2 * np.pi * ts) * c + np.cos(4 * np.pi * ts) * d
    v0 = np.array([1.0, 1.0j, -0.5])
    out = kernels.rk4_transport_path(u, w, 1.0 / steps, v0)
    assert abs(np.linalg.norm(out) - np.linalg.norm(v0)) < 1e-8


def _whole_path_increments(u, w, h, rows):
    """Reference: every step's increment built at once, as one set of factor
    stacks, cores and rows over the whole path, in `rows` zero slots."""
    fw = kernels._windows(np.stack([w, -u], axis=1))
    gh = np.stack([u, w])
    np.conjugate(gh, out=gh)
    g0, gm, g1 = gh[:, 0:-1:2], gh[:, 1::2], gh[:, 2::2]
    c = np.empty((3, 2, 2, fw.shape[0], 1), dtype=np.complex128)
    for x, (gx, y) in enumerate(((gm, 0), (gm, 2), (g1, 2))):
        for i in range(2):
            for j in range(2):
                np.einsum("sn,sn->s", gx[i], fw[:, y + j], out=c[x, i, j, :, 0])
    c_m0, c_mm, c_1m = c
    c_1mm = kernels._mul(c_1m, c_mm)
    k_m0 = h * c_m0 + (0.5 * h * h) * kernels._mul(c_mm, c_m0)
    k_mm = h * c_mm
    k_mm[0, 0] += 4.0
    k_mm[1, 1] += 4.0
    k_1m = h * c_1m + (0.5 * h * h) * c_1mm
    k_10 = (0.25 * h**3) * kernels._mul(c_1mm, c_m0)
    right = np.empty((6,) + g0.shape[1:], dtype=np.complex128)
    right[0:2] = g0
    right[2:4] = kernels._rows(k_m0, g0) + kernels._rows(k_mm, gm)
    right[4:6] = kernels._rows(k_10, g0) + kernels._rows(k_1m, gm) + g1
    q = np.zeros((rows, fw.shape[2], fw.shape[2]), dtype=np.complex128)
    d = np.matmul(fw.transpose(0, 2, 1), right.transpose(1, 0, 2), out=q[: fw.shape[0]])
    d *= h / 6.0
    return q


def _whole_path_endpoint(u, w, h, v0):
    steps, n = (u.shape[0] - 1) // 2, u.shape[1]
    block = math.ceil(math.sqrt(steps))
    q = _whole_path_increments(u, w, h, -(-steps // block) * block)
    return kernels._blocked_scan(q.reshape(-1, block, n, n), v0)


_RANGE_STEPS = [16, 17, 1000, 1024, 4096, 5000]


def _moved_line_frame(m, steps):
    curve = great_circle(SpherePoint.from_direction([0.3, -0.5, 0.8]), [1.0, 0.4, 0.0])
    return _horizontal_frame(exchange_line_field(m), curve, steps)


@pytest.mark.parametrize("steps", _RANGE_STEPS)
@pytest.mark.parametrize("case", ["random-2", "random-3", "random-10", *(f"moved-line-{m}" for m in TRIPLET_MS)])
def test_ranged_increments_match_the_whole_path_build_bit_for_bit(case, steps):
    # Each increment reads only its own step's three nodes, so building the
    # increments one range of steps at a time changes no bit of the endpoint.
    rng = np.random.default_rng(steps)
    if case.startswith("random"):
        n = int(case.rpartition("-")[2])
        u, w = _random_frame(rng, n, steps)
    else:
        u, w = _moved_line_frame(int(case.rpartition("-")[2]), steps)
        n = u.shape[1]
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    end = kernels.rk4_transport_path(u, w, 1.0 / steps, v0)
    assert end.tobytes() == _whole_path_endpoint(u, w, 1.0 / steps, v0).tobytes()


@pytest.mark.parametrize("n, steps", [(2, 5000), (3, 4096), (10, 1000), (10, 5000)])
def test_increments_are_built_in_bounded_ranges(monkeypatch, rng, n, steps):
    # Contiguous ranges cover every step once, and none spans more steps
    # than CHUNK_BYTES allows at about 160 n bytes a step.
    spans = []
    original = kernels._step_increments

    def recording(u, w, h, out):
        spans.append((u.shape[0] - 1) // 2)
        assert out.shape[0] == spans[-1]
        return original(u, w, h, out)

    monkeypatch.setattr(kernels, "_step_increments", recording)
    u, w = _random_frame(rng, n, steps)
    kernels.rk4_transport_path(u, w, 1.0 / steps, np.ones(n, dtype=complex))
    assert sum(spans) == steps and len(spans) > 1
    assert max(spans) * 160 * n <= kernels.CHUNK_BYTES
