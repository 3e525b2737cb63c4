"""Hot numeric kernel: fixed-step RK4 for small dense complex linear ODEs.

The transport equation dv/dt = A(t) v is integrated with the classical
4th-order scheme over a precomputed generator grid A sampled at every node
and midpoint.  For a linear ODE one RK4 step is v -> T_i v, with T_i a
matrix polynomial in the step's three samples, so the kernel builds every
increment D_i = T_i - I at once and chains them with a blocked prefix scan:
about sqrt(steps) steps per block, batched prefix products inside all
blocks together, then one matrix-vector product per block to carry v
across blocks.  The prefix products are kept as increments P - I: adding
the identity into every product would round the small increments against
1 at each step.  Everything is numpy; there is no compiled backend.
"""

from __future__ import annotations

import importlib.util
import math

import numpy as np


def numba_available() -> bool:
    """Whether numba is importable; the kernel does not use it."""
    return importlib.util.find_spec("numba") is not None


def backend_name() -> str:
    return "numpy"


def _step_increments(gen: np.ndarray, h: float) -> np.ndarray:
    # D_i = T_i - I for every step, from the samples A0, Am, A1 of step i:
    # k1 = A0 v, k2 = S2 v, k3 = S3 v, k4 = S4 v.
    a0, am, a1 = gen[0:-1:2], gen[1::2], gen[2::2]
    s2 = am + (0.5 * h) * (am @ a0)
    s3 = am + (0.5 * h) * (am @ s2)
    s4 = a1 + h * (a1 @ s3)
    return (h / 6.0) * (a0 + 2.0 * s2 + 2.0 * s3 + s4)


def _blocked_scan(d: np.ndarray, v0: np.ndarray) -> np.ndarray:
    # Nodes 1..steps of the chain v_i = (I + D_i) v_{i-1}, shape (steps, n).
    steps, n = d.shape[0], d.shape[1]
    block = math.ceil(math.sqrt(steps))
    blocks = (steps + block - 1) // block
    q = np.zeros((blocks, block, n, n), dtype=np.complex128)
    q.reshape(-1, n, n)[:steps] = d
    # In-block prefix increments Q_j = P_j - I = D_j + Q_{j-1} + D_j Q_{j-1},
    # with the two small terms summed first so that only one rounding is at
    # the size of Q.  The zero padding of the last block changes no prefix.
    for j in range(1, block):
        q[:, j] += q[:, j] @ q[:, j - 1]
        q[:, j] += q[:, j - 1]
    w = np.empty((blocks, n), dtype=np.complex128)
    w[0] = v0
    for b in range(1, blocks):
        w[b] = w[b - 1] + q[b - 1, -1] @ w[b - 1]
    path = w[:, None, :] + (q @ w[:, None, :, None])[..., 0]
    return path.reshape(-1, n)[:steps]


def rk4_transport_path(gen: np.ndarray, h: float, v0: np.ndarray) -> np.ndarray:
    """Integrate dv/dt = A(t) v, returning the (steps + 1, n) node trajectory."""
    gen = np.ascontiguousarray(gen, dtype=np.complex128)
    if gen.ndim != 3 or gen.shape[1] != gen.shape[2] or gen.shape[0] % 2 != 1:
        raise ValueError("generator grid must have shape (2*steps + 1, n, n)")
    v0 = np.asarray(v0, dtype=np.complex128)
    if v0.shape != gen.shape[1:2]:
        raise ValueError("start vector must have shape (n,) for an (n, n) generator")
    steps = (gen.shape[0] - 1) // 2
    out = np.empty((steps + 1, gen.shape[1]), dtype=np.complex128)
    out[0] = v0
    if steps:
        out[1:] = _blocked_scan(_step_increments(gen, float(h)), v0)
    return out
