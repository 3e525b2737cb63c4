import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinbundles import kernels


def _sequential_rk4(gen, h, v0):
    """Reference: one classical RK4 step at a time, as matrix-vector products."""
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


def _random_chain(rng, n, steps, antihermitian=True):
    a = rng.standard_normal((2 * steps + 1, n, n)) + 1j * rng.standard_normal(
        (2 * steps + 1, n, n)
    )
    return a - a.conj().swapaxes(-1, -2) if antihermitian else a


def _assert_matches_reference(gen, h, v0):
    path = kernels.rk4_transport_path(gen, h, v0)
    reference = _sequential_rk4(gen, h, v0)
    assert path.shape == reference.shape
    scale = np.maximum(1.0, np.linalg.norm(reference, axis=1))
    assert (np.linalg.norm(path - reference, axis=1) / scale).max() < 1e-13
    return path


def test_zero_generator_is_exact_identity():
    gen = np.zeros((2 * 32 + 1, 3, 3), dtype=complex)
    v0 = np.array([1.0, 2.0 - 1.0j, 3.0])
    out = kernels.rk4_transport_path(gen, 1.0 / 32, v0)[-1]
    assert np.array_equal(out, v0)


def test_path_shape_and_start():
    gen = np.zeros((2 * 16 + 1, 2, 2), dtype=complex)
    v0 = np.array([1.0, 0.0], dtype=complex)
    path = kernels.rk4_transport_path(gen, 1.0 / 16, v0)
    assert path.shape == (17, 2)
    assert np.array_equal(path[0], v0)


def test_rejects_malformed_grid():
    with pytest.raises(ValueError):
        kernels.rk4_transport_path(np.zeros((4, 3, 3), dtype=complex), 0.1, np.zeros(3))
    with pytest.raises(ValueError):
        kernels.rk4_transport_path(np.zeros((5, 3, 3), dtype=complex), 0.5, np.zeros(2))


def test_path_matches_sequential_reference(rng):
    for n, steps in ((4, 50), (3, 4096), (10, 1031)):
        gen = _random_chain(rng, n, steps)
        v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        _assert_matches_reference(gen, 1.0 / steps, v0)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 10),
    steps=st.integers(0, 300),
    antihermitian=st.booleans(),
)
@example(seed=0, n=4, steps=0, antihermitian=False)
@example(seed=1, n=3, steps=1, antihermitian=True)
@example(seed=2, n=10, steps=2, antihermitian=False)
@example(seed=3, n=3, steps=97, antihermitian=True)
@example(seed=4, n=10, steps=293, antihermitian=False)
@example(seed=5, n=1, steps=290, antihermitian=True)
def test_blocked_scan_matches_sequential_reference(seed, n, steps, antihermitian):
    # Primes and non-squares leave the last block of the scan padded.
    rng = np.random.default_rng(seed)
    gen = _random_chain(rng, n, steps, antihermitian)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    h = 1.0 / max(steps, 1)
    path = _assert_matches_reference(gen, h, v0)
    assert path.shape == (steps + 1, n)
    assert np.array_equal(path[0], v0)
    flat = kernels.rk4_transport_path(np.zeros_like(gen), h, v0)
    assert np.array_equal(flat, np.broadcast_to(v0, flat.shape))
    with pytest.raises(ValueError):
        kernels.rk4_transport_path(gen, h, np.ones(n + 1))


def test_norm_preserved_for_smooth_antihermitian_generator(rng):
    # exact flow is unitary; RK4 drifts only at its truncation order
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = b - b.conj().T
    c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c = c - c.conj().T
    steps = 400
    ts = np.linspace(0.0, 1.0, 2 * steps + 1)
    gen = np.sin(2 * np.pi * ts)[:, None, None] * b + np.cos(2 * np.pi * ts)[:, None, None] * c
    v0 = np.array([1.0, 1.0j, -0.5])
    out = kernels.rk4_transport_path(gen, 1.0 / steps, v0)[-1]
    assert abs(np.linalg.norm(out) - np.linalg.norm(v0)) < 1e-8
