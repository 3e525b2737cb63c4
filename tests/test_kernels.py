import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinbundles import kernels


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
