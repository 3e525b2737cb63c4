"""Hot numeric kernel: fixed-step RK4 for the projector transport ODE.

The transport equation dv/dt = A(t) v is integrated with the classical
4th-order scheme.  The kernel is handed the fiber frame u and its horizontal
rate w at every node and midpoint; the generator A = |w><u| - |u><w| is
F G^H with the rank-2 factors F = [w, -u] and G = [u, w], which the kernel
lays out itself, and it is never formed as an n x n matrix.
For a linear ODE one RK4 step is v -> T_i v, with T_i a matrix polynomial in
the step's three samples; every product of generators in it has a 2x2 core
G_x^H F_y, so the increment D_i = T_i - I is one n x 6 by 6 x n product
built from the factors and a handful of per-step scalars.  The kernel writes
the increments into the zero-padded buffer of a blocked prefix scan, one
contiguous range of steps at a time, so that the factor stacks, cores and
rows it builds them from never span more than one range: each increment
reads only its own step's three nodes, so the ranges change no bit of it.
The scan then takes about sqrt(steps) steps per block, batched prefix
products inside all blocks together, then one matrix-vector product per
block to carry v across blocks to the endpoint v(1), the only node it
returns.  The prefix products are kept as increments P - I: adding the
identity into every product would round the small increments against 1 at
each step.  Everything is numpy; there is no compiled backend.
"""

from __future__ import annotations

import importlib.util
import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

# Steps per range of the increment build: CHUNK_BYTES // (160 n), at ten
# complex n-vectors a step.  One range's temporaries then peak at 2.5-4 MiB
# for n = 2..10, whatever the number of steps.
CHUNK_BYTES = 1 << 20


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


def _step_increments(u: np.ndarray, w: np.ndarray, h: float, out: np.ndarray) -> np.ndarray:
    # D_i = T_i - I for each step of the nodes u, w, written into `out` and
    # returned, from the factors F = [w, -u], G = [u, w] of A = F G^H at the
    # step's nodes 0, m, 1.  Each product of generators has a 2x2 core
    # C_xy = G_x^H F_y, so D = (h/6) [F_0 F_m F_1] K [G_0 G_m G_1]^H with the
    # 6x6 block-triangular
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
    d = np.matmul(fw.transpose(0, 2, 1), right.transpose(1, 0, 2), out=out)
    d *= h / 6.0
    return d


def _blocked_scan(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    # v(1) of the chain v_i = (I + D_i) v_{i-1} from v(0) = v, with the
    # increments in a zero-padded (blocks, block, n, n) buffer it overwrites.
    # In-block prefix increments Q_j = P_j - I = D_j + Q_{j-1} + D_j Q_{j-1},
    # with the two small terms summed first so that only one rounding is at
    # the size of Q.  The zero padding of the last block changes no prefix.
    for j in range(1, q.shape[1]):
        q[:, j] += q[:, j] @ q[:, j - 1]
        q[:, j] += q[:, j - 1]
    for p in q[:, -1]:
        v = v + p @ v
    return v


def rk4_transport_path(u: np.ndarray, w: np.ndarray, h: float, v0: np.ndarray) -> np.ndarray:
    """Integrate dv/dt = (|w><u| - |u><w|) v along a path, returning the endpoint v(1).

    u is the fiber frame and w its horizontal rate at every node and
    midpoint of the path, both of shape (2*steps + 1, n); the result has shape (n,).
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
    steps, n = (u.shape[0] - 1) // 2, u.shape[1]
    if not steps:
        return v0.copy()
    h = float(h)
    block = math.ceil(math.sqrt(steps))
    q = np.zeros((-(-steps // block) * block, n, n), dtype=np.complex128)
    chunk = max(1, CHUNK_BYTES // (160 * n))
    for s0 in range(0, steps, chunk):
        s1 = min(s0 + chunk, steps)
        nodes = slice(2 * s0, 2 * s1 + 1)
        # The increments fill the slice they are handed and come back as it;
        # numpy skips assigning an array onto itself.
        q[s0:s1] = _step_increments(u[nodes], w[nodes], h, q[s0:s1])
    return _blocked_scan(q.reshape(-1, block, n, n), v0)
