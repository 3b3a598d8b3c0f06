"""Invariant bundles: the most-contracted stable direction and branch-dependent unstable data.

The most-contracted stable direction at a point is branch-free: M^-1 w,
normalized, for M = DF^N along the forward orbit. It comes from one chain of
2x2 or 3x3 adjugates walked from the far end of the window, which also yields
the singular rates that check its gap. Along an orbit segment the
log-contraction sums to one forward product of adjugates.

Unstable directions live on backward branches: each step of a branch walk
picks one preimage coset, and the pushed-forward subspace depends on those
choices exactly when the map fails to be special.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from anosovlab.errors import GapTooSmall
from anosovlab.linear import LinearModel, coset_representatives
from anosovlab.maps import TorusMap
from anosovlab.util import adjugate, float_cell, pairwise_principal_angles, qr_pos


def _generic_frame(d: int) -> np.ndarray:
    """Fixed generic orthonormal frame; its first column seeds the d = 3 J^T
    chain of `first_stable_direction`.

    A coordinate-axis seed can sit exactly on an invariant axis (block
    fixtures), which the chain then never leaves, so its growth would not
    read the largest singular rate.
    """
    return np.linalg.qr(np.random.default_rng(1905).standard_normal((d, d)))[0]


def _check_rates(rates: np.ndarray, k: int, min_gap: float) -> None:
    """rates descending; stable block must be simple and separated from unstable."""
    d = rates.shape[-1]
    worst = np.inf
    for i in range(d - k - 1, d - 1):
        if i >= 0:
            worst = min(worst, float((rates[..., i] - rates[..., i + 1]).min()))
    if worst < min_gap:
        raise GapTooSmall(
            f"singular rate gap {worst:.4f} below {min_gap}; splitting unresolved at this depth"
        )


def _stable_seed(model: LinearModel) -> np.ndarray:
    """Unit normal to the linear bundles other than E^s_1; for k = 1, to E^u.

    In the plane it is the quarter turn R u of the unstable line, exactly.
    """
    h = np.concatenate([model.unstable_subspace, model.stable_lines[1:].T], axis=1)
    if model.dim == 2:
        return np.array([-h[1, 0], h[0, 0]])
    n = np.cross(h[:, 0], h[:, 1])
    return n / np.linalg.norm(n)


def _entries(mats: np.ndarray) -> np.ndarray:
    """A (..., d, d) stack entry by entry, (d, d, ...), each entry contiguous."""
    return np.ascontiguousarray(np.moveaxis(mats, (-2, -1), (0, 1)))


def _unit_walk(m: np.ndarray, seed: np.ndarray, depth: int, growth: bool = False):
    """w <- m_j w / |w| from the far end of every depth-window, j = depth - 1 .. 0.

    m (d, d, T + depth - 1, n) holds the factors entry by entry, and window t
    applies m[:, :, t + depth - 1] first. Each product is an unrolled sum over
    the components, started at component 0. Returns the d unit components,
    (T, n) each, and with `growth` the chain's log growth, the summed log
    norms of the products (T, n); otherwise None.
    """
    d = m.shape[0]
    windows = m.shape[2] - depth + 1
    w = [float(c) for c in seed]
    logs = np.zeros((windows,) + m.shape[3:]) if growth else None
    for j in range(depth - 1, -1, -1):
        rows = slice(j, j + windows)
        prod = []
        for i in range(d):
            acc = m[i, 0, rows] * w[0]
            for c in range(1, d):
                acc += m[i, c, rows] * w[c]
            prod.append(acc)
        norm = prod[0] * prod[0]
        for c in range(1, d):
            norm += prod[c] * prod[c]
        norm = np.sqrt(norm)
        if growth:
            logs += np.log(norm)
        w = [c / norm for c in prod]
    return w, logs


def first_stable_direction(
    f: TorusMap, jacs: np.ndarray, depth: int, min_gap: float = 0.02
) -> np.ndarray:
    """Most-contracted direction at the first T steps of n forward orbits, d <= 3.

    jacs (T + depth - 1, n, d, d) holds DF along the orbits; the direction at
    step t comes from the window jacs[t : t + depth]. Returns unit vectors
    (T, n, d), sign not normalized. With M the window's product DF^depth,
    the direction is M^-1 w normalized, found by walking the adjugates
    adj J = det(J) J^-1 from the window's far end, seeded with the unit
    normal to the linear E^u (`_stable_seed`). In the plane adj J = R J^T R^T
    for the quarter turn R, so this is the transpose recursion on the most
    expanded right-singular direction, rotated. In 3-D the three singular
    rates are checked for gaps: the smallest from the adjugate chain's log
    growth less the window's sum of log|det J|, the largest from a J^T chain
    and the middle one as their sum's remainder.
    """
    d, k = f.dim, f.model.stable_dim
    windows = jacs.shape[0] - depth + 1
    adj, det = adjugate(jacs)
    w, shrink = _unit_walk(_entries(adj), _stable_seed(f.model), depth, growth=d == 3)
    if d == 3:
        logdet = np.cumsum(np.log(np.abs(det)), axis=0)
        logdet = np.concatenate([np.zeros((1,) + logdet.shape[1:]), logdet])
        total = logdet[depth : depth + windows] - logdet[:windows]
        transposed = _entries(np.swapaxes(jacs, -1, -2))
        _, stretch = _unit_walk(transposed, _generic_frame(d)[:, 0], depth, growth=True)
        rates = np.stack([stretch, shrink - stretch, total - shrink], axis=-1) / depth
        _check_rates(rates, k, min_gap)
    return np.stack(w, axis=-1)


def _ordered_product(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """m[:, :, 0] @ m[:, :, 1] @ ... of an entry stack (d, d, T, n), multiplied in
    pairs level by level, each product divided by its largest entry.

    Returns the product (d, d, n) and the summed log of the divisors (n,).
    """
    logs = np.zeros(m.shape[3:])
    while m.shape[2] > 1:
        pairs = m.shape[2] // 2
        prod = np.einsum("ic...,cj...->ij...", m[:, :, 0 : 2 * pairs : 2], m[:, :, 1 : 2 * pairs : 2])
        scale = np.abs(prod).max(axis=(0, 1))
        logs += np.log(scale).sum(axis=0)
        m = np.concatenate([prod / scale, m[:, :, 2 * pairs :]], axis=2)
    return m[:, :, 0], logs


def stable_log_sums(f: TorusMap, blocks, depth: int, min_gap: float = 0.02) -> np.ndarray:
    """Summed log-contraction of DF on E^s_1 along n forward orbits, shape (n,).

    `blocks` yields DF along the orbits in time blocks (m, n, d, d), as
    `TorusMap.orbit_jacobians` does; the sum runs over every step but the
    last depth - 1. With J_t = DF(x_t) it telescopes to sum_t log|det J_t| -
    log|P u|: P = adj(J_0) ... adj(J_{T-1}) is accumulated block by block and
    u is `_stable_seed` pushed back through the depth - 1 tail adjugates. In
    3-D every depth-window is checked for rate gaps (`first_stable_direction`).
    """
    prod, logs, tail = None, 0.0, None  # tail: the Jacobians that close the next block's windows
    for jacs in blocks:
        held = jacs if tail is None else np.concatenate([tail, jacs])
        done = max(0, held.shape[0] - depth + 1)
        if done:
            if f.dim == 3:
                first_stable_direction(f, held, depth, min_gap)
            adj, det = adjugate(held[:done])
            stack = _entries(adj) if prod is None else np.concatenate([prod[:, :, None], _entries(adj)], axis=2)
            prod, block_logs = _ordered_product(stack)
            logs = logs + block_logs - np.log(np.abs(det)).sum(axis=0)
        tail = held[done:]
    u, _ = _unit_walk(_entries(adjugate(tail)[0]), _stable_seed(f.model), depth - 1)
    pu = [sum(prod[i, c] * u[c] for c in range(f.dim)) for i in range(f.dim)]
    return -logs - 0.5 * np.log(sum(c * c for c in pu)).ravel()


# -- branch-dependent unstable directions -------------------------------------

_BRANCH_INVERT_TOL = 1e-11  # lift-inverse tolerance of each backward branch step


def _branch_walk_directions(f: TorusMap, pts: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Unstable subspaces (n_pts, n_codes, d, d-k) pushed along coded branches.

    Walk j of point i steps backward through the preimage selected by
    codes[j, step], then pushes the linear unstable subspace forward along
    that branch with per-step orthonormalization.
    """
    reps = np.array(coset_representatives(f.model.matrix).representatives, dtype=float)
    n_pts, d = pts.shape
    n_codes, depth = codes.shape
    starts = np.broadcast_to(pts[:, None, :], (n_pts, n_codes, d)).reshape(-1, d).copy()
    # shifts[step] holds each walk's coset representative, (depth, n_pts * n_codes, d)
    shifts = np.broadcast_to(reps[codes.T][:, None], (depth, n_pts, n_codes, d)).reshape(depth, -1, d)
    jacs = f.branch_jacobians(starts, shifts, _BRANCH_INVERT_TOL)
    basis = np.broadcast_to(
        f.model.unstable_subspace, (starts.shape[0],) + f.model.unstable_subspace.shape
    ).copy()
    for step in range(depth - 1, -1, -1):
        basis, _ = qr_pos(jacs[step] @ basis)
    return basis.reshape(n_pts, n_codes, d, -1)


@dataclass(frozen=True)
class IntegrabilityReport:
    """Branch-direction spread scan and the resulting verdict."""

    integrable: bool
    max_spread: float
    tol: float
    depth: int
    witness: dict | None
    rows: tuple  # (point, code_a, code_b, angle)

    def csv_rows(self) -> list[list[str]]:
        out = [["point", "code_a", "code_b", "angle"]]
        for pt, ca, cb, ang in self.rows:
            out.append([
                " ".join(float_cell(c) for c in pt),
                ca,
                cb,
                float_cell(ang),
            ])
        return out


def _sample_codes(rng: np.random.Generator, degree: int, count: int, depth: int) -> np.ndarray:
    rows = [np.zeros(depth, dtype=int), np.full(depth, degree - 1, dtype=int)]
    while len(rows) < count:
        rows.append(rng.integers(0, degree, depth))
    return np.array(rows[:count], dtype=int)


def integrability_verdict(
    f: TorusMap,
    samples: int = 50,
    codes_per_point: int = 8,
    depth: int = 12,
    tol: float = 1e-3,
    seed: int = 0,
) -> IntegrabilityReport:
    """Integrable iff branch choice never moves the unstable direction by > tol.

    Codes include the all-zeros and all-extreme constants plus seeded random
    draws; the spread is the max pairwise principal angle per sample point.
    Fewer than 2 codes leave no pair to compare and raise ValueError.
    """
    if codes_per_point < 2:
        raise ValueError(f"codes_per_point {codes_per_point} leaves no branch pair to compare; need >= 2")
    rng = np.random.default_rng(seed)
    pts = rng.random((samples, f.dim))
    codes = _sample_codes(rng, f.degree, codes_per_point, depth)
    bases = _branch_walk_directions(f, pts, codes)
    labels = ["".join(str(c) for c in row) for row in codes]
    pairs = np.transpose(np.triu_indices(codes.shape[0], 1)).tolist()
    angles = pairwise_principal_angles(bases).tolist()
    rows = tuple(
        (tuple(pts[p].tolist()), labels[i], labels[j], ang)
        for p in range(samples)
        for (i, j), ang in zip(pairs, angles[p])
    )
    # the witness is the first pair, in row order, with the largest angle
    top = max(rows, key=lambda row: row[3], default=None)
    worst = 0.0 if top is None else top[3]
    integrable = worst <= tol
    return IntegrabilityReport(
        integrable=integrable,
        max_spread=worst,
        tol=tol,
        depth=depth,
        witness=None if integrable else dict(zip(("point", "code_a", "code_b", "angle"), top)),
        rows=rows,
    )
