"""Exact analysis of the integer linear model and its lattice structure.

The linear model behind every torus map here is an integer matrix that is
hyperbolic (no eigenvalue on the unit circle) and usually irreducible over Q.
This module computes its exact invariants (characteristic polynomial,
degree, irreducibility), numerically safe spectral data (stable lines,
spectral projections via the matrix sign function), transversals of Z^d / A Z^d,
the density of iterated preimage lattices, and deep sublattice vectors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from anosovlab import intlinalg as il
from anosovlab.errors import NotHyperbolic, ResourceLimit
from anosovlab.util import canonical_sign, grid_points

_HYPERBOLIC_TOL = 1e-9  # unit-circle margin and eigen-residual tolerance of analyze_matrix
_SIGN_TOL = 1e-15  # target relative change of the matrix sign iteration
_SIGN_MAX_ITER = 100
_LLL_DELTA = 0.99  # Lovasz condition factor of the lattice basis reduction


@dataclass(frozen=True)
class IntMatrix:
    """Square integer matrix with nonzero determinant."""

    entries: il.IMatrix

    def __init__(self, rows):
        object.__setattr__(self, "entries", il.as_imatrix(rows))
        if il.int_det(self.entries) == 0:
            raise ValueError(f"matrix {self.entries} is singular over Q")

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def det(self) -> int:
        return il.int_det(self.entries)

    @property
    def array(self) -> np.ndarray:
        return np.array(self.entries, dtype=float)

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(v) for v in row) for row in self.entries) + "]"


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Spectral and arithmetic data of a hyperbolic integer matrix.

    stable_eigenvalues are sorted by increasing modulus; stable_lines[i] is
    the unit eigenvector for stable_eigenvalues[i] (sign: first nonzero
    component positive). Projections are the spectral (oblique) projections
    onto the stable/unstable invariant subspaces, summing to the identity.
    """

    matrix: IntMatrix
    char_poly: tuple[int, ...]
    irreducible: bool
    degree: int
    dim: int
    stable_dim: int
    stable_eigenvalues: tuple[float, ...]
    unstable_moduli: tuple[float, ...]
    stable_lines: np.ndarray = field(repr=False)
    stable_basis: np.ndarray = field(repr=False)
    unstable_subspace: np.ndarray = field(repr=False)
    stable_projection: np.ndarray = field(repr=False)
    unstable_projection: np.ndarray = field(repr=False)
    stable_norm: float
    unstable_conorm: float

    @property
    def stable_exponents(self) -> tuple[float, ...]:
        return tuple(float(np.log(abs(m))) for m in self.stable_eigenvalues)

    @property
    def array(self) -> np.ndarray:
        return self.matrix.array


def _real_eigenvector(a: np.ndarray, mu: float) -> np.ndarray:
    """Unit kernel vector of (A - mu I) from the SVD, canonically signed."""
    _, _, vt = np.linalg.svd(a - mu * np.eye(a.shape[0]))
    return canonical_sign(vt[-1])


def _matrix_sign(c: np.ndarray) -> np.ndarray:
    """sign(C) by Newton's iteration X <- (X + X^-1)/2 (Higham, Functions of Matrices, ch. 5).

    Stops by Higham's rule ||X_{j+1} - X_j|| <= (tol ||X_{j+1}|| / ||X_j^-1||)^(1/2), in the
    entrywise 1-norm: the convergence is quadratic, so the step after one that small
    changes X by about tol.
    """
    x = c
    for _ in range(_SIGN_MAX_ITER):
        inv = np.linalg.inv(x)
        nxt = 0.5 * (x + inv)
        step = np.abs(nxt - x).sum()
        x = nxt
        if step * step <= _SIGN_TOL * np.abs(x).sum() / np.abs(inv).sum():
            return x
    raise ArithmeticError(f"matrix sign iteration did not converge in {_SIGN_MAX_ITER} steps")


def _spectral_projection(a: np.ndarray) -> np.ndarray:
    """Oblique projection onto the stable invariant subspace along the unstable one.

    The Cayley transform C = (A - I)^-1 (A + I) sends eigenvalues inside the
    unit circle to the open left half-plane and those outside it to the right,
    so P_s = (I - sign(C)) / 2.
    """
    eye = np.eye(a.shape[0])
    return 0.5 * (eye - _matrix_sign(np.linalg.solve(a - eye, a + eye)))


def _invariant_bases(p_s: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (columns) of E^s = range(P_s) and E^u = ker(P_s) from one SVD
    of P_s, each column canonically signed. A projector's nonzero singular values
    are at least 1, so the split between the two is never close."""
    u, _, vt = np.linalg.svd(p_s)
    both = canonical_sign(np.concatenate([u[:, :k], vt[k:].T], axis=1).T).T
    return both[:, :k], both[:, k:]


def analyze_matrix(matrix) -> LinearModel:
    """Full exact + spectral breakdown of an integer hyperbolic matrix.

    Args:
        matrix: IntMatrix or nested ints; 2x2 or 3x3, nonsingular.

    Raises:
        ValueError: the matrix is not 2x2 or 3x3, the sizes the kernels support.
        NotHyperbolic: some eigenvalue modulus is within _HYPERBOLIC_TOL of 1.
    """
    m = matrix if isinstance(matrix, IntMatrix) else IntMatrix(matrix)
    a = m.array
    d = m.dim
    if d not in (2, 3):
        raise ValueError(f"matrix is {d}x{d}; the kernels support 2x2 and 3x3 (T^2 and T^3)")

    poly = il.char_poly(m.entries)
    irreducible = il.is_irreducible_over_q(poly)
    degree = abs(m.det)

    eigvals = np.linalg.eigvals(a)
    moduli = np.abs(eigvals)
    tol = _HYPERBOLIC_TOL
    if np.any(np.abs(moduli - 1.0) <= tol):
        mods = [round(float(x), 12) for x in sorted(moduli)]
        raise NotHyperbolic(f"eigenvalue moduli {mods} touch the unit circle at tol={tol}")

    stable_mask = moduli < 1.0
    k = int(stable_mask.sum())
    stable_vals = eigvals[stable_mask]
    order = np.argsort(np.abs(stable_vals))
    stable_vals = stable_vals[order]

    scale = max(1.0, float(np.abs(a).max()))
    all_real = bool(np.all(np.abs(stable_vals.imag) <= tol * scale))

    if all_real and k >= 1:
        stable_eigs = tuple(float(v.real) for v in stable_vals)
        lines = np.stack([_real_eigenvector(a, mu) for mu in stable_eigs])
        for mu, v in zip(stable_eigs, lines):
            res = np.linalg.norm(a @ v - mu * v)
            if res > tol * scale * 10.0:
                raise ArithmeticError(f"eigenvector residual {res:.3e} for modulus {mu}")
    else:
        stable_eigs = ()
        lines = np.zeros((0, d))

    p_s = _spectral_projection(a)
    p_u = np.eye(d) - p_s
    # Consistency: rank k, idempotent and commuting with A, up to roundoff.
    if (abs(np.trace(p_s) - k) > 1e-8 or np.linalg.norm(p_s @ p_s - p_s) > 1e-8
            or np.linalg.norm(a @ p_s - p_s @ a) > 1e-8 * scale):
        raise ArithmeticError("spectral projection failed its own consistency check")

    stable_basis, unstable_basis = _invariant_bases(p_s, k)

    if k:
        m_s = stable_basis.T @ a @ stable_basis
        stable_norm = float(np.linalg.norm(m_s, 2))
    else:
        stable_norm = 0.0
    m_u = unstable_basis.T @ a @ unstable_basis
    unstable_conorm = float(np.linalg.svd(m_u, compute_uv=False)[-1])

    unstable_moduli = tuple(sorted(float(x) for x in moduli[~stable_mask]))

    model = LinearModel(
        matrix=m,
        char_poly=poly,
        irreducible=irreducible,
        degree=degree,
        dim=d,
        stable_dim=k,
        stable_eigenvalues=stable_eigs,
        unstable_moduli=unstable_moduli,
        stable_lines=lines,
        stable_basis=stable_basis,
        unstable_subspace=unstable_basis,
        stable_projection=p_s,
        unstable_projection=p_u,
        stable_norm=stable_norm,
        unstable_conorm=unstable_conorm,
    )
    for arr in (model.stable_lines, model.stable_basis, model.unstable_subspace,
                model.stable_projection, model.unstable_projection):
        arr.setflags(write=False)
    return model


@dataclass(frozen=True)
class LatticeCoset:
    """Transversal of Z^d / A Z^d, one representative per coset."""

    matrix: IntMatrix
    representatives: tuple[tuple[int, ...], ...]

    @property
    def degree(self) -> int:
        return len(self.representatives)


def coset_representatives(matrix, cap: int = 200_000) -> LatticeCoset:
    """Deterministic transversal of Z^d / A Z^d.

    Breadth-first search over the quotient group from 0 along the generators
    +-e_i; cosets are labelled by the exact invariant adj(A) v mod |det A|,
    whose kernel is precisely A Z^d. Always finds exactly |det A|
    representatives, independent of matrix entry size.
    """
    m = matrix if isinstance(matrix, IntMatrix) else IntMatrix(matrix)
    absdet = abs(m.det)
    if absdet > cap:
        raise ResourceLimit(f"|det| = {absdet} cosets exceeds cap {cap}")
    adj = il.int_adjugate(m.entries)
    d = m.dim

    start = (0,) * d
    seen = {il.lattice_key(adj, absdet, start)}
    reps = [start]
    queue = [start]
    steps = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    steps += [tuple(-s for s in st) for st in steps]
    while queue and len(reps) < absdet:
        v = queue.pop(0)
        for st in steps:
            w = tuple(a + b for a, b in zip(v, st))
            key = il.lattice_key(adj, absdet, w)
            if key not in seen:
                seen.add(key)
                reps.append(w)
                queue.append(w)
                if len(reps) == absdet:
                    break
    if len(reps) != absdet:
        raise ArithmeticError(f"coset search found {len(reps)} of {absdet} cosets")
    return LatticeCoset(matrix=m, representatives=tuple(reps))


def _lll_basis(columns: il.IMatrix) -> list[list[int]]:
    """LLL-reduced basis of the integer lattice spanned by the matrix columns,
    shortest vector first (Lenstra, Lenstra and Lovasz, Math. Ann. 261, 1982).

    Column operations run on Python ints, so the lattice is kept exactly; the
    Gram-Schmidt data that choose them come from a float QR. In the plane this
    is Lagrange-Gauss reduction up to the factor _LLL_DELTA.
    """
    b = [list(col) for col in zip(*columns)]
    j = 1
    while j < len(b):
        for i in reversed(range(j)):
            r = np.linalg.qr(np.array(b, dtype=float).T)[1]
            mu = round(r[i, j] / r[i, i])
            if mu:
                b[j] = [x - mu * y for x, y in zip(b[j], b[i])]
        r = np.linalg.qr(np.array(b, dtype=float).T)[1]
        if r[j, j] ** 2 >= (_LLL_DELTA - (r[j - 1, j] / r[j - 1, j - 1]) ** 2) * r[j - 1, j - 1] ** 2:
            j += 1
        else:
            b[j - 1], b[j] = b[j], b[j - 1]
            j = max(j - 1, 1)
    return sorted(b, key=lambda v: sum(x * x for x in v))


def preimage_covering_radius(matrix, k: int) -> float:
    """Measured covering radius of the k-th preimage lattice on the torus.

    Maximum over a uniform grid (64 points per axis in the plane, 32 above) of
    the torus distance to the nearest preimage point. The preimage points form
    the lattice L = A^-k Z^d, which contains Z^d, so that distance is the
    Euclidean distance to L, found by an exact closest-vector search. The
    basis (adj(A^k) / |det A^k|) is LLL-reduced in exact integers, ordered
    shortest first and factored B = QR. Babai's nearest-plane rounding
    (Combinatorica 6, 1986) bounds every grid point's distance by rho; coordinates
    2..d of the closest vector then lie in the box |c_j - (R'^-1 y')_j| <=
    rho |row j of R'^-1|, with R' the trailing block of R, and the box is
    enumerated. Coordinate 1 enters only the first row of R, so rounding it is
    exact. A grid maximum can only underestimate the true covering radius.
    """
    m = matrix if isinstance(matrix, IntMatrix) else IntMatrix(matrix)
    if k < 0:
        raise ValueError(f"preimage depth must be >= 0, got {k}")
    d = m.dim
    ak = il.int_pow(m.entries, k)
    basis = np.array(_lll_basis(il.int_adjugate(ak)), dtype=float).T / abs(il.int_det(ak))
    q, r = np.linalg.qr(basis)
    y = grid_points(d, 64 if d == 2 else 32) @ q
    babai = np.zeros_like(y)
    for i in reversed(range(d)):
        babai[:, i] = np.round((y[:, i] - babai[:, i + 1:] @ r[i, i + 1:]) / r[i, i])
    rho = float(np.linalg.norm(babai @ r.T - y, axis=1).max())

    tail = y[:, 1:]
    tail_inv = np.linalg.inv(r[1:, 1:])
    # widened by a hair so that rounding in the centre cannot drop a box edge
    reach = rho * np.linalg.norm(tail_inv, axis=1) * (1.0 + 1e-9) + 1e-12
    low = np.ceil(tail @ tail_inv.T - reach)
    best = np.full(y.shape[0], np.inf)
    for offset in itertools.product(*(range(int(2.0 * w) + 1) for w in reach)):
        c = low + np.array(offset, dtype=float)
        rest = tail - c @ r[1:, 1:].T
        head = y[:, 0] - c @ r[0, 1:]
        head -= np.round(head / r[0, 0]) * r[0, 0]
        best = np.minimum(best, head * head + np.einsum("ij,ij->i", rest, rest))
    return float(np.sqrt(best.max()))


def covering_radius_table(matrix, k_max: int) -> list[dict]:
    """Covering radii for k = 0..k_max plus the fitted density-law constant.

    The law r_k <= C |det|^{-k/d} with C fitted at k = 1 (C = r_1 |det|^{1/d});
    each row records the measured radius and the bound it is tested against.
    """
    m = matrix if isinstance(matrix, IntMatrix) else IntMatrix(matrix)
    degree = abs(m.det)
    radii = [preimage_covering_radius(m, k) for k in range(k_max + 1)]
    c = radii[1] * degree ** (1.0 / m.dim) if k_max >= 1 else float("nan")
    rows = []
    for k, r in enumerate(radii):
        rows.append({
            "k": k,
            "radius": r,
            "bound": c * degree ** (-k / m.dim) if k_max >= 1 else float("nan"),
            "fitted_constant": c,
        })
    return rows


def deep_lattice_vectors(matrix, m: int, bound: float) -> tuple[tuple[int, ...], ...]:
    """All n in A^m Z^d with ||n||_2 <= bound, sorted by (norm, lex).

    Candidates are integer vectors in the Euclidean ball; membership is the
    exact adjugate congruence for A^m. Every returned vector is re-verified
    to satisfy A^{-i} n in Z^d for all 1 <= i <= m in exact arithmetic.
    """
    mm = matrix if isinstance(matrix, IntMatrix) else IntMatrix(matrix)
    if m < 0:
        raise ValueError(f"lattice depth must be >= 0, got {m}")
    d = mm.dim
    r = int(np.floor(bound))
    if r < 0:
        return ()
    axes = [np.arange(-r, r + 1)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    cands = np.stack([g.ravel() for g in mesh], axis=-1)
    cands = cands[np.linalg.norm(cands, axis=1) <= bound + 1e-12]

    powers = [il.int_pow(mm.entries, i) for i in range(1, m + 1)]
    checks = [(il.int_adjugate(p), abs(il.int_det(p))) for p in powers]
    kept = []
    for row in cands:
        v = tuple(int(x) for x in row)
        if m == 0 or il.membership_in_image(*checks[-1], v):
            for adj_i, det_i in checks:
                if not il.membership_in_image(adj_i, det_i, v):
                    raise ArithmeticError(f"vector {v} passed depth {m} but failed an intermediate level")
            kept.append(v)
    kept.sort(key=lambda v: (float(np.linalg.norm(v)), v))
    return tuple(kept)


def minimal_deep_vector(matrix, m: int) -> tuple[int, ...]:
    """Shortest nonzero vector of A^m Z^d (ties broken lexicographically,
    sign fixed so the first nonzero entry is positive)."""
    mm = matrix if isinstance(matrix, IntMatrix) else IntMatrix(matrix)
    degree = abs(mm.det)
    bound = max(1.0, float(degree) ** (m / mm.dim))
    while True:
        vecs = [v for v in deep_lattice_vectors(mm, m, bound) if any(v)]
        if vecs:
            canon = []
            for v in vecs:
                first = next(x for x in v if x)
                canon.append(tuple(-x for x in v) if first < 0 else v)
            canon.sort(key=lambda v: (float(np.linalg.norm(v)), v))
            return canon[0]
        bound *= 1.5
