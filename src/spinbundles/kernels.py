"""Hot numeric kernel: fixed-step RK4 for the projector transport ODE.

The transport equation dv/dt = A(t) v is integrated with the classical
4th-order scheme.  The kernel is handed the fiber frame u and its horizontal
rate w at every node and midpoint; the generator A = |w><u| - |u><w| is
F G^H with the rank-2 factors F = [w, -u] and G = [u, w], which the kernel
lays out itself, and it is never formed as an n x n matrix.
For a linear ODE one RK4 step is v -> T_i v, with T_i a matrix polynomial in
the step's three samples; every product of generators in it has a 2x2 core
G_x^H F_y, so the increment D_i = T_i - I is one n x 6 by 6 x n product
built from the factors and a handful of per-step scalars.  The kernel builds
every increment at once and chains them with a blocked prefix scan: about
sqrt(steps) steps per block, batched prefix products inside all blocks
together, then one matrix-vector product per block to carry v across
blocks.  The prefix products are kept as increments P - I: adding the
identity into every product would round the small increments against 1 at
each step.  Everything is numpy; there is no compiled backend.
"""

from __future__ import annotations

import importlib.util
import math

import numpy as np
from numpy.lib.stride_tricks import as_strided


def numba_available() -> bool:
    """Whether numba is importable; the kernel does not use it."""
    return importlib.util.find_spec("numba") is not None


def backend_name() -> str:
    return "numpy"


def _windows(a: np.ndarray) -> np.ndarray:
    # (2*steps + 1, 2, n) -> (steps, 6, n) view: rows a_0, a_m, a_1 of each step.
    st = a.strides
    shape = ((a.shape[0] - 1) // 2, 6, a.shape[2])
    return as_strided(a, shape=shape, strides=(2 * st[0], st[1], st[2]), writeable=False)


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Per-step 2x2 products of cores laid out as (2, 2, steps, 1).
    return a[:, 0, None] * b[None, 0] + a[:, 1, None] * b[None, 1]


def _rows(k: np.ndarray, g: np.ndarray) -> np.ndarray:
    # The two rows of K G^H per step, from a (2, 2, steps, 1) core and the
    # (2, steps, n) rows of G^H.
    return k[:, 0] * g[0] + k[:, 1] * g[1]


def _step_increments(u: np.ndarray, w: np.ndarray, h: float) -> np.ndarray:
    # D_i = T_i - I for every step from the factors F = [w, -u], G = [u, w]
    # of A = F G^H at the step's nodes 0, m, 1.  Each product of generators
    # has a 2x2 core C_xy = G_x^H F_y,
    # so D = (h/6) [F_0 F_m F_1] K [G_0 G_m G_1]^H with the 6x6 block-triangular
    #   K = [[I, 0, 0], [K_m0, 4I + h C_mm, 0], [h^3/4 C_1m C_mm C_m0, K_1m, I]],
    #   K_m0 = h C_m0 + h^2/2 C_mm C_m0,  K_1m = h C_1m + h^2/2 C_1m C_mm.
    # The core algebra runs on per-step scalar arrays; only the last product
    # is n x n.
    fw = _windows(np.stack([w, -u], axis=1))  # rows of F^T = [w, -u] per node
    gh = np.stack([u, w])  # rows of G^H = [u, w]^H per node
    np.conjugate(gh, out=gh)
    g0, gm, g1 = gh[:, 0:-1:2], gh[:, 1::2], gh[:, 2::2]
    c = np.empty((3, 2, 2, fw.shape[0], 1), dtype=np.complex128)
    for x, (gx, y) in enumerate(((gm, 0), (gm, 2), (g1, 2))):
        for i in range(2):
            for j in range(2):
                np.einsum("sn,sn->s", gx[i], fw[:, y + j], out=c[x, i, j, :, 0])
    c_m0, c_mm, c_1m = c
    c_1mm = _mul(c_1m, c_mm)
    k_m0 = h * c_m0 + (0.5 * h * h) * _mul(c_mm, c_m0)
    k_mm = h * c_mm
    k_mm[0, 0] += 4.0
    k_mm[1, 1] += 4.0
    k_1m = h * c_1m + (0.5 * h * h) * c_1mm
    k_10 = (0.25 * h**3) * _mul(c_1mm, c_m0)
    right = np.empty((6,) + g0.shape[1:], dtype=np.complex128)
    right[0:2] = g0
    right[2:4] = _rows(k_m0, g0) + _rows(k_mm, gm)
    right[4:6] = _rows(k_10, g0) + _rows(k_1m, gm) + g1
    return (h / 6.0) * (fw.transpose(0, 2, 1) @ right.transpose(1, 0, 2))


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


def rk4_transport_path(u: np.ndarray, w: np.ndarray, h: float, v0: np.ndarray) -> np.ndarray:
    """Integrate dv/dt = (|w><u| - |u><w|) v, returning the (steps + 1, n) node trajectory.

    u is the fiber frame and w its horizontal rate at every node and
    midpoint, both of shape (2*steps + 1, n).
    """
    u = np.asarray(u, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] % 2 != 1:
        raise ValueError("the frame must have shape (2*steps + 1, n)")
    if w.shape != u.shape:
        raise ValueError("the frame and its rate must have the same shape")
    v0 = np.asarray(v0, dtype=np.complex128)
    if v0.shape != u.shape[1:]:
        raise ValueError("start vector must have shape (n,) for an (.., n) frame")
    steps = (u.shape[0] - 1) // 2
    out = np.empty((steps + 1, u.shape[1]), dtype=np.complex128)
    out[0] = v0
    if steps:
        out[1:] = _blocked_scan(_step_increments(u, w, float(h)), v0)
    return out
