"""Shared numeric helpers: torus geometry, batched QR, subspace angles."""

from __future__ import annotations

import numpy as np


def wrap(x: np.ndarray) -> np.ndarray:
    """Reduce coordinates to the fundamental domain [0, 1)^d.

    x % 1.0 rounds values a hair below an integer up to exactly 1.0, which
    would escape the half-open cell; fold that boundary case back to 0.
    """
    w = np.asarray(x, dtype=float) % 1.0
    return np.where(w == 1.0, 0.0, w)


def torus_delta(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Shortest representative of a - b on the torus, componentwise in [-1/2, 1/2].

    The Euclidean norm is coordinate-separable, so nearest-integer reduction
    per coordinate realizes the minimum over all integer translates.
    """
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return d - np.round(d)


def torus_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.norm(torus_delta(a, b), axis=-1)


def grid_points(d: int, n: int) -> np.ndarray:
    """Uniform grid (i_1/n, ..., i_d/n), shape (n^d, d), lexicographic order."""
    axes = [np.arange(n) / n] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def qr_pos(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QR with nonnegative R diagonal; batched over leading axes."""
    q, r = np.linalg.qr(m)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    sign = np.where(diag < 0.0, -1.0, 1.0)
    q = q * sign[..., None, :]
    r = r * sign[..., :, None]
    return q, r


def canonical_sign(v: np.ndarray) -> np.ndarray:
    """Flip sign so the first component above 1e-12 in size is positive; batched."""
    v = np.asarray(v, dtype=float)
    big = np.abs(v) > 1e-12
    lead = np.take_along_axis(v, np.argmax(big, axis=-1)[..., None], axis=-1)
    return np.where(big.any(axis=-1, keepdims=True) & (lead < 0.0), -v, v)


def pairwise_principal_angles(bases: np.ndarray) -> np.ndarray:
    """Largest principal angle (radians) between every pair of m subspaces.

    bases (..., m, d, k) holds spanning sets of equal-dimension subspaces.
    Returns (..., m(m-1)/2), pairs (i, j) with i < j in np.triu_indices order.
    The angle is atan2 of its sine ||(I - Q_i Q_i^T) Q_j||_2 and its cosine
    sigma_min(Q_i^T Q_j): the cosine alone cannot resolve angles below about
    1.5e-8, where it rounds to 1.
    """
    q, _ = qr_pos(np.asarray(bases, dtype=float))
    a, b = np.triu_indices(q.shape[-3], 1)
    qa, qb = q[..., a, :, :], q[..., b, :, :]
    overlap = np.swapaxes(qa, -1, -2) @ qb
    cos = np.linalg.svd(overlap, compute_uv=False).min(axis=-1)
    sin = np.linalg.svd(qb - qa @ overlap, compute_uv=False).max(axis=-1)
    return np.arctan2(sin, cos)


def rows_times(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x @ m.T over the last axis of a stack x, as a sum unrolled over m's few
    columns: elementwise, so a row's bits do not depend on its batch."""
    out = np.zeros(x.shape[:-1] + m.shape[:1])
    for c in range(m.shape[1]):
        out += x[..., c, None] * m[:, c]
    return out


def solve_batched(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Solve stacked 2x2 or 3x3 linear systems; mats (..., d, d), vecs (..., d).

    The adjugate closed form: forward error is cond-limited as with LAPACK,
    and it avoids a per-matrix LAPACK round trip on large stacks.
    """
    return np.einsum("...ij,...j->...i", inv_batched(mats), vecs)


def adjugate(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adjugates and determinants of stacked 2x2 or 3x3 matrices, closed form."""
    d = mats.shape[-1]
    adj = np.empty_like(mats)
    if d == 2:
        a, b = mats[..., 0, 0], mats[..., 0, 1]
        c, e = mats[..., 1, 0], mats[..., 1, 1]
        adj[..., 0, 0] = e
        adj[..., 0, 1] = -b
        adj[..., 1, 0] = -c
        adj[..., 1, 1] = a
        return adj, a * e - b * c
    if d != 3:
        raise ValueError(f"closed-form adjugate is for 2x2 and 3x3 matrices, got {d}x{d}")
    m = [[mats[..., i, j] for j in range(3)] for i in range(3)]
    for i in range(3):
        i1, i2 = (i + 1) % 3, (i + 2) % 3
        for j in range(3):
            j1, j2 = (j + 1) % 3, (j + 2) % 3
            adj[..., j, i] = m[i1][j1] * m[i2][j2] - m[i1][j2] * m[i2][j1]
    det = m[0][0] * adj[..., 0, 0] + m[0][1] * adj[..., 1, 0] + m[0][2] * adj[..., 2, 0]
    return adj, det


def inv_batched(mats: np.ndarray) -> np.ndarray:
    """Inverses of stacked 2x2 or 3x3 matrices, adjugate over determinant."""
    adj, det = adjugate(mats)
    return adj / det[..., None, None]


def float_cell(x) -> str:
    """Canonical CSV rendering: shortest round-trip decimal, stable across runs."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")
